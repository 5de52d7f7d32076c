package logicsim

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/partition"
	"repro/internal/seqsim"
	"repro/internal/timewarp"
)

// aggressiveRow names the cancellation-policy level of the matrices'
// subtests. The kernel cancels aggressively only; the level keeps the
// "lazy=false" name these rows had while lazy cancellation existed, so a
// row's name means the same run across versions of the suite.
const aggressiveRow = "lazy=false"

// TestDeterminismMatrix is the end-to-end determinism suite for the
// asynchronous GVT protocol: for every partitioner of the study and
// 1/2/8 clusters, a parallel run must commit
// exactly the events of the sequential oracle and reproduce its output
// history, output values, and final gate state. Any protocol race —
// a message slipping under a GVT cut, a premature fossil collection, a
// lost anti-message — shows up here as a committed-count or state mismatch.
func TestDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "det280", Inputs: 8, Gates: 280, Outputs: 6, FlipFlops: 22, Seed: 31,
	})
	cfg := seqsim.Config{Cycles: 10, StimulusSeed: 77}
	want, err := seqsim.Run(c, cfg)
	if err != nil {
		t.Fatalf("seqsim: %v", err)
	}
	if want.Events == 0 {
		t.Fatal("sequential run processed no events")
	}
	for _, p := range partitioners() {
		for _, k := range []int{1, 2, 8} {
			name := fmt.Sprintf("%s/%s/k=%d", p.Name(), aggressiveRow, k)
			t.Run(name, func(t *testing.T) {
				a, err := p.Partition(c, k)
				if err != nil {
					t.Fatalf("partition: %v", err)
				}
				got, err := Run(c, a, Config{
					Cycles:       cfg.Cycles,
					StimulusSeed: cfg.StimulusSeed,
				})
				if err != nil {
					t.Fatalf("logicsim: %v", err)
				}
				if got.CommittedEvents != want.Events {
					t.Errorf("committed events = %d, sequential = %d", got.CommittedEvents, want.Events)
				}
				if got.OutputHistory != want.OutputHistory {
					t.Errorf("output history = %#x, sequential = %#x", got.OutputHistory, want.OutputHistory)
				}
				for i := range want.OutputValues {
					if got.OutputValues[i] != want.OutputValues[i] {
						t.Errorf("output %d = %v, sequential = %v", i, got.OutputValues[i], want.OutputValues[i])
					}
				}
				for id := range want.FinalValues {
					if got.FinalValues[id] != want.FinalValues[id] {
						t.Errorf("gate %d final = %v, sequential = %v", id, got.FinalValues[id], want.FinalValues[id])
						break
					}
				}
			})
		}
	}
}

// runTCPPair runs one simulation as two in-process "nodes" over TCP loopback,
// each hosting one of the two clusters, and merges their results: committed
// counts and the order-independent output history add, and each gate's final
// value comes from the single node that hosted it (Result.Local).
func runTCPPair(t *testing.T, c *circuit.Circuit, a partition.Assignment, cfg Config) Result {
	t.Helper()
	const n = 2
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	results := make([]Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := timewarp.NewTCPTransport(timewarp.TCPOptions{
				Node: i, Peers: addrs, Listener: lns[i], DialTimeout: 5 * time.Second,
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer tr.Close()
			nodeCfg := cfg
			nodeCfg.Transport = tr
			results[i], errs[i] = Run(c, a, nodeCfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}

	merged := Result{
		OutputValues: make([]circuit.Value, len(c.Outputs)),
		FinalValues:  make([]circuit.Value, c.NumGates()),
		Local:        make([]bool, c.NumGates()),
	}
	for _, r := range results {
		merged.CommittedEvents += r.CommittedEvents
		merged.OutputHistory += r.OutputHistory
	}
	for id := 0; id < c.NumGates(); id++ {
		owners := 0
		for _, r := range results {
			if r.Local[id] {
				owners++
				merged.FinalValues[id] = r.FinalValues[id]
				merged.Local[id] = true
			}
		}
		if owners != 1 {
			t.Fatalf("gate %d reported by %d nodes, want exactly 1", id, owners)
		}
	}
	for i, id := range c.Outputs {
		merged.OutputValues[i] = merged.FinalValues[id]
	}
	return merged
}

// requireDynamicRefused checks that a run asking for dynamic balancing over
// a two-node TCP transport fails before any socket opens, with an error
// wrapping timewarp.ErrBadTransport: gates migrate within one process only.
func requireDynamicRefused(t *testing.T, c *circuit.Circuit, a partition.Assignment, cfg Config) {
	t.Helper()
	tr, err := timewarp.NewTCPTransport(timewarp.TCPOptions{Node: 0, Peers: []string{"127.0.0.1:1", "127.0.0.1:2"}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg.Transport = tr
	if _, err := Run(c, a, cfg); !errors.Is(err, timewarp.ErrBadTransport) {
		t.Fatalf("dynamic balancing over two processes: err = %v, want ErrBadTransport", err)
	}
}

// TestDeterminismTCPLoopback is the multi-process column of the determinism
// matrix: the same circuit at two clusters, distributed over two OS-level
// kernel instances connected by TCP loopback, must commit bit-identically to
// the sequential oracle (and therefore to the in-memory kernel, which the
// matrix above holds to the same oracle). Gates do not migrate between
// processes, so the dynamic rows check that such a run is refused.
func TestDeterminismTCPLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "det280", Inputs: 8, Gates: 280, Outputs: 6, FlipFlops: 22, Seed: 31,
	})
	cfg := seqsim.Config{Cycles: 10, StimulusSeed: 77}
	want, err := seqsim.Run(c, cfg)
	if err != nil {
		t.Fatalf("seqsim: %v", err)
	}
	a, err := partition.Cone{}.Partition(c, 2)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	for _, dynamic := range []bool{false, true} {
		t.Run(fmt.Sprintf("%s/dynamic=%v", aggressiveRow, dynamic), func(t *testing.T) {
			runCfg := Config{
				Cycles:       cfg.Cycles,
				StimulusSeed: cfg.StimulusSeed,
			}
			if dynamic {
				runCfg.DynamicRebalance = true
				requireDynamicRefused(t, c, a, runCfg)
				return
			}
			got := runTCPPair(t, c, a, runCfg)
			if got.CommittedEvents != want.Events {
				t.Errorf("committed events = %d, sequential = %d", got.CommittedEvents, want.Events)
			}
			if got.OutputHistory != want.OutputHistory {
				t.Errorf("output history = %#x, sequential = %#x", got.OutputHistory, want.OutputHistory)
			}
			for i := range want.OutputValues {
				if got.OutputValues[i] != want.OutputValues[i] {
					t.Errorf("output %d = %v, sequential = %v", i, got.OutputValues[i], want.OutputValues[i])
				}
			}
			for id := range want.FinalValues {
				if got.FinalValues[id] != want.FinalValues[id] {
					t.Errorf("gate %d final = %v, sequential = %v", id, got.FinalValues[id], want.FinalValues[id])
					break
				}
			}
		})
	}
}

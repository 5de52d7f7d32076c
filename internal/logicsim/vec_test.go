package logicsim

import (
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

// vecScalarOracle runs the W independent scalar sequential simulations a
// vectored run must reproduce lane for lane, plus the vectored oracle for the
// committed-event denominator (a vectored event fires when ANY lane changes,
// so the scalar per-lane counts do not apply).
type vecScalarOracle struct {
	vec   seqsim.VecResult
	lanes []seqsim.Result // lane s = scalar run with StimulusSeed+s
}

func runVecOracle(t *testing.T, c *circuit.Circuit, cfg seqsim.Config) vecScalarOracle {
	t.Helper()
	vec, err := seqsim.RunVec(c, cfg)
	if err != nil {
		t.Fatalf("seqsim vec: %v", err)
	}
	if vec.Events == 0 {
		t.Fatal("vectored sequential run processed no events")
	}
	lanes := make([]seqsim.Result, circuit.W)
	for s := range lanes {
		laneCfg := cfg
		laneCfg.StimulusSeed = cfg.StimulusSeed + int64(s)
		lanes[s], err = seqsim.Run(c, laneCfg)
		if err != nil {
			t.Fatalf("seqsim lane %d: %v", s, err)
		}
	}
	return vecScalarOracle{vec: vec, lanes: lanes}
}

// checkVecResult holds one vectored parallel run to the full equivalence
// contract: committed events equal the vectored oracle's union count, and
// every lane's history, output values and final gate state are
// bit-identical to the independent scalar run with seed StimulusSeed+lane.
func checkVecResult(t *testing.T, got Result, o vecScalarOracle) {
	t.Helper()
	if got.CommittedEvents != o.vec.Events {
		t.Errorf("committed events = %d, vectored sequential = %d", got.CommittedEvents, o.vec.Events)
	}
	for s := 0; s < circuit.W; s++ {
		sc := &o.lanes[s]
		if got.VecOutputHistory[s] != sc.OutputHistory {
			t.Errorf("lane %d: output history = %#x, scalar = %#x", s, got.VecOutputHistory[s], sc.OutputHistory)
		}
		for i := range sc.OutputValues {
			if g, w := got.VecOutputValues[i].Lane(s), sc.OutputValues[i]; g != w {
				t.Errorf("lane %d output %d = %v, scalar = %v", s, i, g, w)
			}
		}
		for id := range sc.FinalValues {
			if g, w := got.VecFinalValues[id].Lane(s), sc.FinalValues[id]; g != w {
				t.Errorf("lane %d gate %d final = %v, scalar = %v", s, id, g, w)
				break
			}
		}
	}
	// The scalar-typed fields must be lane 0's view, so vectored runs drop
	// into scalar tooling unchanged.
	if got.OutputHistory != got.VecOutputHistory[0] {
		t.Errorf("scalar OutputHistory = %#x, lane 0 = %#x", got.OutputHistory, got.VecOutputHistory[0])
	}
}

// TestDeterminismMatrixVectors is the vectored column of the determinism
// matrix: one 64-scenario parallel run per cell, held bit-identical — per
// lane — to 64 independent scalar sequential runs, across every partitioner,
// both cancellation policies, and 1/2/8 clusters. Rollbacks under k>1 must
// restore all 128 packed planes or a lane diverges here.
func TestDeterminismMatrixVectors(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "det280", Inputs: 8, Gates: 280, Outputs: 6, FlipFlops: 22, Seed: 31,
	})
	cfg := seqsim.Config{Cycles: 10, StimulusSeed: 77}
	oracle := runVecOracle(t, c, cfg)
	for _, p := range partitioners() {
		for _, lazy := range []bool{false, true} {
			for _, k := range []int{1, 2, 8} {
				name := fmt.Sprintf("%s/lazy=%v/k=%d", p.Name(), lazy, k)
				t.Run(name, func(t *testing.T) {
					a, err := p.Partition(c, k)
					if err != nil {
						t.Fatalf("partition: %v", err)
					}
					got, err := Run(c, a, Config{
						Cycles:           cfg.Cycles,
						StimulusSeed:     cfg.StimulusSeed,
						LazyCancellation: lazy,
						Vectors:          true,
					})
					if err != nil {
						t.Fatalf("logicsim: %v", err)
					}
					checkVecResult(t, got, oracle)
				})
			}
		}
	}
}

// TestVectorsForcedMigration holds the vectored mode to the oracle while the
// kernel migrates gates between clusters mid-run: the vectored gateLP state
// codec must carry every packed plane and all 64 per-lane history terms
// across the move, or a lane's signature diverges.
func TestVectorsForcedMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "det280", Inputs: 8, Gates: 280, Outputs: 6, FlipFlops: 22, Seed: 31,
	})
	cfg := seqsim.Config{Cycles: 10, StimulusSeed: 77}
	oracle := runVecOracle(t, c, cfg)
	a, err := partition.Cone{}.Partition(c, 4)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	var migrations uint64
	for _, lazy := range []bool{false, true} {
		t.Run(fmt.Sprintf("lazy=%v", lazy), func(t *testing.T) {
			got, err := Run(c, a, Config{
				Cycles:                cfg.Cycles,
				StimulusSeed:          cfg.StimulusSeed,
				LazyCancellation:      lazy,
				Vectors:               true,
				DynamicRebalance:      true,
				GVTPeriodEvents:       128,
				RebalancePeriodRounds: 1,
				RebalanceImbalance:    1.0,
			})
			if err != nil {
				t.Fatalf("logicsim: %v", err)
			}
			migrations += got.Stats.Migrations
			checkVecResult(t, got, oracle)
		})
	}
	if migrations == 0 {
		t.Error("no gate migrated across the dynamic rows")
	}
}

// runVecTCPPair runs one vectored simulation as two in-process "nodes" over
// TCP loopback and merges their results like runTCPPair, extended to the
// per-lane fields: histories add lane-wise (order-insensitive sums), packed
// values come from each gate's single owner.
func runVecTCPPair(t *testing.T, c *circuit.Circuit, a partition.Assignment, cfg Config) (Result, uint64) {
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
		VecOutputValues:  make([]circuit.VecValue, len(c.Outputs)),
		VecOutputHistory: make([]uint64, circuit.W),
		VecFinalValues:   make([]circuit.VecValue, c.NumGates()),
		Local:            make([]bool, c.NumGates()),
	}
	var migrations uint64
	for _, r := range results {
		merged.CommittedEvents += r.CommittedEvents
		for s, h := range r.VecOutputHistory {
			merged.VecOutputHistory[s] += h
		}
		migrations += r.Stats.Migrations
	}
	for id := 0; id < c.NumGates(); id++ {
		owners := 0
		for _, r := range results {
			if r.Local[id] {
				owners++
				merged.VecFinalValues[id] = r.VecFinalValues[id]
				merged.Local[id] = true
			}
		}
		if owners != 1 {
			t.Fatalf("gate %d reported by %d nodes, want exactly 1", id, owners)
		}
	}
	for i, id := range c.Outputs {
		merged.VecOutputValues[i] = merged.VecFinalValues[id]
	}
	merged.OutputHistory = merged.VecOutputHistory[0]
	return merged, migrations
}

// TestVectorsTCPLoopback is the multi-process cell of the vectored column:
// two OS-level kernel instances over TCP loopback, with the dynamic rows
// additionally forcing migration, must reproduce all 64 scalar runs
// bit-identically — payload-bearing events and widened gate-state blobs
// crossing the socket included.
func TestVectorsTCPLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "det280", Inputs: 8, Gates: 280, Outputs: 6, FlipFlops: 22, Seed: 31,
	})
	cfg := seqsim.Config{Cycles: 10, StimulusSeed: 77}
	oracle := runVecOracle(t, c, cfg)
	a, err := partition.Cone{}.Partition(c, 2)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	var totalMigrations uint64
	for _, lazy := range []bool{false, true} {
		for _, dynamic := range []bool{false, true} {
			t.Run(fmt.Sprintf("lazy=%v/dynamic=%v", lazy, dynamic), func(t *testing.T) {
				runCfg := Config{
					Cycles:           cfg.Cycles,
					StimulusSeed:     cfg.StimulusSeed,
					LazyCancellation: lazy,
					Vectors:          true,
				}
				if dynamic {
					runCfg.DynamicRebalance = true
					runCfg.GVTPeriodEvents = 128
					runCfg.RebalancePeriodRounds = 1
					runCfg.RebalanceImbalance = 1.0
				}
				got, migrations := runVecTCPPair(t, c, a, runCfg)
				totalMigrations += migrations
				checkVecResult(t, got, oracle)
			})
		}
	}
	if totalMigrations == 0 {
		t.Error("no gate migrated between processes across the dynamic rows")
	}
}

// TestVectorsEquivalenceHotspot covers the workload the throughput study
// reports on — hotspot stimulus under lazy cancellation — on a second
// generated netlist, so the equivalence claim is not specific to det280 or
// uniform stimulus.
func TestVectorsEquivalenceHotspot(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "hot220", Inputs: 8, Gates: 220, Outputs: 6, FlipFlops: 18, Seed: 41,
	})
	cfg := seqsim.Config{Cycles: 8, StimulusSeed: 900, Hotspot: true, HotspotFraction: 0.25}
	oracle := runVecOracle(t, c, cfg)
	a, err := partition.Cone{}.Partition(c, 4)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	got, err := Run(c, a, Config{
		Cycles:           cfg.Cycles,
		StimulusSeed:     cfg.StimulusSeed,
		Hotspot:          true,
		HotspotFraction:  0.25,
		LazyCancellation: true,
		Vectors:          true,
	})
	if err != nil {
		t.Fatalf("logicsim: %v", err)
	}
	checkVecResult(t, got, oracle)
}

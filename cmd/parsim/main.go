// Command parsim runs an optimistic parallel logic simulation of a circuit
// under a chosen partitioning strategy and reports the paper's metrics.
//
// Usage:
//
//	parsim -bench s9234 -scale 0.3 -nodes 8 -algo multilevel -cycles 10
//	parsim -nodes 4 circuit.bench
//	parsim -bench s9234 -nodes 8 -hotspot -dynamic -rebalance-period 2
//
// -hotspot concentrates stimulus in a rotating cone of the circuit;
// -dynamic enables GVT-synchronized LP migration on top of the chosen
// initial partition (the routing table then adapts to the observed load);
// -vectors switches to bit-parallel evaluation, carrying 64 independent
// scenarios (stimulus seeds seed..seed+63) per run, one per bit of the
// packed value planes. The run is verified against the sequential oracle
// unless -noverify is set (in vectored mode, every lane is verified against
// the vectored oracle).
//
// One simulation can also run as several OS processes connected by TCP:
// start n copies with identical flags plus -node i/n and the same -peers
// list, one listen address per node. Each process hosts the clusters
// assigned to its node index, all other traffic crosses the sockets, and
// every process verifies the gathered global totals against the oracle:
//
//	parsim -bench s5378 -nodes 4 -node 0/2 -peers 127.0.0.1:9101,127.0.0.1:9102 &
//	parsim -bench s5378 -nodes 4 -node 1/2 -peers 127.0.0.1:9101,127.0.0.1:9102
//
// -dynamic works across processes too: gate state is migrated over the
// wire, encoded by the same Handler.EncodeState the kernel saves it with.
//
// Multi-process exit codes distinguish failure classes for supervisors:
//
//	0  success (run completed and, unless -noverify, verified)
//	1  any other error (bad flags, circuit load, verification failure)
//	2  handshake rejection: wire-protocol or configuration mismatch
//	   between mesh nodes
//	3  mesh peer failure: a peer died, went silent past -peer-timeout,
//	   sent a corrupt frame, or aborted the run
//
// On codes 2 and 3 the error printed to stderr names the origin node and
// the abort reason.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/logicsim"
	"repro/internal/partition"
	"repro/internal/seqsim"
	"repro/internal/timewarp"
)

func main() {
	var (
		nodes       = flag.Int("nodes", 4, "number of simulation nodes (clusters)")
		algo        = flag.String("algo", "multilevel", "partitioner: multilevel, random, dfs, cluster, topological, cone")
		cycles      = flag.Int("cycles", 10, "clock cycles")
		seed        = flag.Int64("seed", 1, "seed for stimulus and partitioner")
		grain       = flag.Int("grain", 2000, "busy-loop iterations per gate evaluation")
		window      = flag.Float64("window", 0.12, "optimism window in clock cycles (0 = unbounded)")
		lazy        = flag.Bool("lazy", false, "lazy cancellation")
		bench       = flag.String("bench", "", "built-in benchmark (s5378, s9234, s15850)")
		scale       = flag.Float64("scale", 0.3, "scale for -bench")
		noverify    = flag.Bool("noverify", false, "skip the sequential oracle cross-check")
		vectors     = flag.Bool("vectors", false, "bit-parallel mode: carry 64 independent scenarios (stimulus seeds seed..seed+63) per run")
		hotspot     = flag.Bool("hotspot", false, "concentrate stimulus in a rotating window of the primary inputs")
		hotspotFrac = flag.Float64("hotspot-frac", 0.25, "fraction of inputs inside the hotspot window")
		dynamic     = flag.Bool("dynamic", false, "dynamic load balancing: GVT-synchronized LP migration")
		rebalPeriod = flag.Int("rebalance-period", 4, "GVT-advancing rounds between rebalance decisions (with -dynamic)")
		imbalance   = flag.Float64("imbalance", 1.1, "min max/mean committed-load ratio before migrating (with -dynamic)")
		nodeSpec    = flag.String("node", "", "multi-process run: this process's index as i/n (requires -peers)")
		peers       = flag.String("peers", "", "multi-process run: comma-separated host:port listen addresses, one per node")
		heartbeat   = flag.Duration("heartbeat", time.Second, "multi-process run: idle-lane heartbeat period (negative disables liveness)")
		peerTimeout = flag.Duration("peer-timeout", 5*time.Second, "multi-process run: declare a silent peer dead after this long (negative disables)")
		faultSpec   = flag.String("fault", "", "chaos testing: comma-separated k=v fault plan (peer=N, seed=N, refuse-dial=DUR, drop-after=N, truncate=N, corrupt=N, stall-after=N, stall=DUR)")
	)
	flag.Parse()

	var tr *timewarp.TCPTransport
	if *nodeSpec != "" || *peers != "" {
		// The config digest folds in every flag that shapes the simulation,
		// so two processes started with diverging flags are rejected at the
		// handshake instead of silently desynchronizing.
		tag := configTag(*bench, *scale, flag.Arg(0), *cycles, *seed, *grain, *algo, *nodes,
			*window, *lazy, *vectors, *hotspot, *hotspotFrac, *dynamic, *rebalPeriod, *imbalance)
		fp, err := parseFaultPlan(*faultSpec)
		if err != nil {
			fail(err)
		}
		tr, err = buildTransport(*nodeSpec, *peers, *heartbeat, *peerTimeout, tag, fp)
		if err != nil {
			fail(err)
		}
		meshCloser = tr
		defer tr.Close()
	}

	c, err := loadCircuit(*bench, *scale, flag.Arg(0))
	if err != nil {
		fail(err)
	}
	p, err := buildPartitioner(*algo, *seed)
	if err != nil {
		fail(err)
	}
	a, err := p.Partition(c, *nodes)
	if err != nil {
		fail(err)
	}
	q, _ := partition.Measure(p.Name(), c, a)
	fmt.Printf("circuit %s: %d gates, %d edges\n", c.Name, c.NumGates(), c.NumEdges())
	fmt.Println(q)

	cfg := logicsim.Config{
		Cycles:                *cycles,
		StimulusSeed:          *seed,
		Grain:                 *grain,
		OptimismCycles:        *window,
		LazyCancellation:      *lazy,
		Hotspot:               *hotspot,
		HotspotFraction:       *hotspotFrac,
		DynamicRebalance:      *dynamic,
		RebalancePeriodRounds: *rebalPeriod,
		RebalanceImbalance:    *imbalance,
		RebalanceSeed:         *seed,
		Vectors:               *vectors,
	}
	if !*hotspot {
		cfg.HotspotFraction = 0
	}
	if tr != nil {
		cfg.Transport = tr
	}
	start := time.Now()
	res, err := logicsim.Run(c, a, cfg)
	if err != nil {
		fail(err)
	}
	wall := time.Since(start)

	// In a multi-process run every node holds only its own share of the
	// counters; gather the order-independent global totals so each process
	// prints and verifies the same result. In vectored mode the per-lane
	// histories are order-independent sums too, so they gather the same way.
	gathered := []uint64{res.CommittedEvents, res.OutputHistory}
	if *vectors {
		gathered = append(gathered, res.VecOutputHistory...)
	}
	if tr != nil {
		totals, err := tr.GatherSum(gathered)
		if err != nil {
			fail(err)
		}
		gathered = totals
		fmt.Printf("node %s: %d committed events locally\n", *nodeSpec, res.CommittedEvents)
	}
	committed, history := gathered[0], gathered[1]
	laneHistory := gathered[2:]
	fmt.Printf("parallel run: %s wall, %d committed events (%.0f events/ms)\n",
		wall.Round(time.Millisecond), committed,
		float64(committed)/float64(wall.Milliseconds()+1))
	if *vectors {
		// A vectored event commits when any lane changes, so committed events
		// do not scale with the lanes; wall time per scenario does compare
		// with a scalar run's wall time.
		fmt.Printf("  vectored: %d lanes, %s wall per scenario\n",
			circuit.W, (wall / circuit.W).Round(time.Microsecond))
	}
	s := res.Stats
	fmt.Printf("  processed=%d rolledback=%d rollbacks=%d efficiency=%.1f%%\n",
		s.EventsProcessed, s.EventsRolledBack, s.Rollbacks,
		100*float64(s.EventsCommitted)/float64(s.EventsProcessed))
	fmt.Printf("  remote=%d local=%d anti=%d gvt-rounds=%d\n",
		s.RemoteMessages, s.LocalMessages, s.AntiMessages, s.GVTRounds)
	fmt.Printf("  stalls=%d stall-timer-wakes=%d\n", s.Stalls, s.StallTimerWakes)
	if *dynamic {
		fmt.Printf("  migrations=%d forwarded=%d rebalance-rounds=%d route-epoch=%d\n",
			s.Migrations, s.ForwardedMessages, res.Stats.RebalanceRounds, res.Stats.RouteEpoch)
	}

	if !*noverify {
		seqCfg := seqsim.Config{
			Cycles: *cycles, StimulusSeed: *seed,
			Hotspot: *hotspot, HotspotFraction: cfg.HotspotFraction,
		}
		if *vectors {
			// The vectored oracle carries the same 64 lanes; every lane's
			// history (and the union event count) must match bit-exactly.
			want, err := seqsim.RunVec(c, seqCfg)
			if err != nil {
				fail(err)
			}
			if committed != want.Events {
				fail(fmt.Errorf("verification FAILED: committed=%d/%d", committed, want.Events))
			}
			for s, h := range laneHistory {
				if h != want.OutputHistory[s] {
					fail(fmt.Errorf("verification FAILED: lane %d history=%#x/%#x", s, h, want.OutputHistory[s]))
				}
			}
			fmt.Printf("verified all %d lanes against the vectored sequential oracle\n", circuit.W)
			return
		}
		sim, err := seqsim.New(c, seqCfg)
		if err != nil {
			fail(err)
		}
		want, err := sim.Run()
		if err != nil {
			fail(err)
		}
		if committed != want.Events || history != want.OutputHistory {
			fail(fmt.Errorf("verification FAILED: committed=%d/%d history=%#x/%#x",
				committed, want.Events, history, want.OutputHistory))
		}
		fmt.Println("verified against the sequential oracle")
	}
}

// buildTransport parses -node i/n plus the -peers list into a TCP transport.
func buildTransport(nodeSpec, peers string, heartbeat, peerTimeout time.Duration,
	tag uint64, fp *timewarp.FaultPlan) (*timewarp.TCPTransport, error) {
	if nodeSpec == "" || peers == "" {
		return nil, fmt.Errorf("-node and -peers must be used together")
	}
	var i, n int
	if c, err := fmt.Sscanf(nodeSpec, "%d/%d", &i, &n); err != nil || c != 2 {
		return nil, fmt.Errorf("bad -node %q, want i/n (e.g. 0/2)", nodeSpec)
	}
	addrs := strings.Split(peers, ",")
	if len(addrs) != n {
		return nil, fmt.Errorf("-node %s names %d nodes but -peers lists %d addresses", nodeSpec, n, len(addrs))
	}
	return timewarp.NewTCPTransport(timewarp.TCPOptions{
		Node: i, Peers: addrs,
		HeartbeatEvery: heartbeat, PeerTimeout: peerTimeout,
		ConfigTag: tag, Fault: fp,
		MeshUp: func() { fmt.Printf("node %s: mesh up, %d peers connected\n", nodeSpec, n-1) },
	})
}

// configTag hashes the determinism-affecting flag values into the handshake's
// configuration digest (FNV-1a over each value's string form).
func configTag(vals ...interface{}) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		s := fmt.Sprint(v)
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		// Separator so adjacent values cannot shift into each other.
		h ^= 0xff
		h *= 1099511628211
	}
	return h
}

// parseFaultPlan parses the -fault spec: comma-separated k=v pairs.
func parseFaultPlan(spec string) (*timewarp.FaultPlan, error) {
	if spec == "" {
		return nil, nil
	}
	p := &timewarp.FaultPlan{Peer: -1}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad -fault entry %q, want key=value", kv)
		}
		var err error
		switch k {
		case "peer":
			p.Peer, err = strconv.Atoi(v)
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		case "refuse-dial":
			p.RefuseDialFor, err = time.ParseDuration(v)
		case "drop-after":
			p.DropAfterFrames, err = strconv.Atoi(v)
		case "truncate":
			p.TruncateFrame, err = strconv.Atoi(v)
		case "corrupt":
			p.CorruptFrame, err = strconv.Atoi(v)
		case "stall-after":
			p.StallAfterFrames, err = strconv.Atoi(v)
		case "stall":
			p.StallFor, err = time.ParseDuration(v)
		default:
			return nil, fmt.Errorf("unknown -fault key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("bad -fault entry %q: %v", kv, err)
		}
	}
	return p, nil
}

func loadCircuit(bench string, scale float64, path string) (*circuit.Circuit, error) {
	if bench != "" {
		return circuit.NewBenchmark(bench, scale)
	}
	if path == "" {
		return nil, fmt.Errorf("pass a .bench file or -bench <name>")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return circuit.ParseBench(path, f)
}

func buildPartitioner(algo string, seed int64) (partition.Partitioner, error) {
	switch algo {
	case "random":
		return partition.Random{Seed: seed}, nil
	case "dfs":
		return partition.DepthFirst{}, nil
	case "cluster", "bfs":
		return partition.Cluster{}, nil
	case "topological", "level":
		return partition.Topological{}, nil
	case "cone":
		return partition.Cone{}, nil
	case "multilevel", "ml":
		return core.New(seed), nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", algo)
}

// meshCloser is the transport to flush and tear down before a failure exit
// (os.Exit skips defers); nil for single-process runs.
var meshCloser interface{ Close() error }

// fail prints the error — for mesh failures it names the origin node and the
// abort reason — and exits with the failure class: 2 for handshake rejection,
// 3 for a peer failure, 1 otherwise.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "parsim:", err)
	if meshCloser != nil {
		meshCloser.Close() // flush any pending abort frames to the peers
	}
	switch {
	case errors.Is(err, timewarp.ErrProtoMismatch) || errors.Is(err, timewarp.ErrConfigMismatch):
		os.Exit(2)
	case errors.Is(err, timewarp.ErrPeerDown):
		os.Exit(3)
	}
	os.Exit(1)
}

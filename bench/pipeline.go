package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/logicsim"
	"repro/internal/partition"
	"repro/internal/seqsim"
	"repro/internal/timewarp"
)

// inputs is what set-up hands the program under test: the generated circuit,
// the assignment and the partition's measured quality. The simulators never
// see the benchmark seed, only these and a Config.
type inputs struct {
	c  *circuit.Circuit
	a  partition.Assignment
	q  partition.Quality
	ml core.Stats // hierarchy statistics; zero for the baseline partitioners

	generate, partition, measure, total time.Duration
}

// setup runs the pipeline's set-up stage once: generate and validate the
// circuit, partition it, measure the partition, and on the tcp workload bind
// the loopback listeners and build (then release) the two transports.
func setup(w workload, seed int64, tr *tracer, parent int) (*inputs, error) {
	in := &inputs{}
	start := time.Now()
	root := tr.begin(parent, "setup")

	id := tr.begin(root, "circuit.generate")
	c, err := circuit.NewBenchmark(w.Circuit, 1)
	if err == nil {
		err = c.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", w.Circuit, err)
	}
	in.c = c
	in.generate = time.Since(start)
	tr.end(id, map[string]float64{"gates": float64(c.NumGates()), "edges": float64(c.NumEdges())})

	p, err := w.partitioner(seed)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	if ml, ok := p.(*core.Multilevel); ok {
		id = tr.begin(root, "core.partition")
		in.a, in.ml, err = ml.PartitionStats(c, w.K)
	} else {
		id = tr.begin(root, "partition."+w.Partitioner)
		in.a, err = p.Partition(c, w.K)
	}
	if err != nil {
		return nil, fmt.Errorf("partition %s k=%d: %w", p.Name(), w.K, err)
	}
	in.partition = time.Since(t)
	tr.end(id, map[string]float64{"levels": float64(in.ml.Levels), "final_cut": float64(in.ml.FinalCut)})

	t = time.Now()
	id = tr.begin(root, "partition.measure")
	in.q, err = partition.Measure(p.Name(), c, in.a)
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	in.measure = time.Since(t)
	tr.end(id, map[string]float64{"edge_cut": float64(in.q.EdgeCut)})

	if w.Transport == "tcp" {
		id = tr.begin(root, "timewarp.tcp_mesh")
		m, err := newMesh(w.K)
		if err != nil {
			return nil, err
		}
		m.close()
		tr.end(id, nil)
	}
	in.total = time.Since(start)
	tr.end(root, nil)
	return in, nil
}

// mesh is the tcp workload's fabric: one TCPTransport per node, both in this
// process, connected over loopback. A transport serves one run.
type mesh struct {
	nodes []*timewarp.TCPTransport
}

func newMesh(n int) (*mesh, error) {
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("bind loopback listener: %w", err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	m := &mesh{}
	for i := range lns {
		tr, err := timewarp.NewTCPTransport(timewarp.TCPOptions{Node: i, Peers: addrs, Listener: lns[i]})
		if err != nil {
			m.close()
			for _, l := range lns[i:] {
				l.Close()
			}
			return nil, fmt.Errorf("tcp transport node %d: %w", i, err)
		}
		m.nodes = append(m.nodes, tr)
	}
	return m, nil
}

// close tears the mesh down; on a run that is still going it aborts it.
func (m *mesh) close() {
	for _, tr := range m.nodes {
		tr.Close()
	}
}

// parallelRun is one parallel simulation as a user sees it. On the tcp
// workload the counters are summed over both nodes.
type parallelRun struct {
	start time.Time
	wall  time.Duration // logicsim.Run call → return (tcp: both nodes launched → both returned)

	committed   uint64
	history     uint64
	laneHistory []uint64 // vectored runs: one signature per lane
	stats       timewarp.RunStats
	hosted      []int           // clusters that did work, per node
	nodeWall    []time.Duration // RunStats.WallTime, per node

	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
}

// runDeadline turns a hung run ("GVT stuck", a wedged mesh) into a counted
// failure instead of a benchmark that never returns.
const runDeadline = 60 * time.Second

var errDeadline = errors.New("run exceeded its deadline")

// runParallel runs the partitioned simulation over the workload's transport.
// Transports are built before the timed region; a run that does not return
// within the deadline is abandoned and reported as errDeadline.
func runParallel(in *inputs, a partition.Assignment, cfg logicsim.Config, transport string) (parallelRun, error) {
	nodes := 1
	var m *mesh
	if transport == "tcp" {
		var err error
		if m, err = newMesh(a.K); err != nil {
			return parallelRun{}, err
		}
		defer m.close()
		nodes = len(m.nodes)
	}
	results := make([]logicsim.Result, nodes)
	errs := make([]error, nodes)
	done := make(chan struct{})

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := parallelRun{start: time.Now()}
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for i := 0; i < nodes; i++ {
			nodeCfg := cfg
			if m != nil {
				nodeCfg.Transport = m.nodes[i]
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = logicsim.Run(in.c, a, nodeCfg)
			}(i)
		}
		wg.Wait()
	}()
	deadline := time.NewTimer(runDeadline)
	defer deadline.Stop()
	select {
	case <-done:
	case <-deadline.C:
		// Closing the mesh (deferred) aborts a tcp run; an in-memory kernel
		// has no stop, so its goroutines are left behind and the caller
		// gives the workload up.
		return r, errDeadline
	}
	r.wall = time.Since(r.start)
	runtime.ReadMemStats(&after)
	r.mallocs = after.Mallocs - before.Mallocs
	r.bytes = after.TotalAlloc - before.TotalAlloc
	r.gcCycles = after.NumGC - before.NumGC
	r.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)

	if err := errors.Join(errs...); err != nil {
		return r, err
	}
	if cfg.Vectors {
		r.laneHistory = make([]uint64, circuit.W)
	}
	r.stats.PerCluster = make([]timewarp.ClusterStats, a.K)
	for _, res := range results {
		r.committed += res.CommittedEvents
		r.history += res.OutputHistory
		for s, h := range res.VecOutputHistory {
			r.laneHistory[s] += h
		}
		s := res.Stats
		hosted := 0
		for c, cs := range s.PerCluster {
			if cs.EventsProcessed > 0 {
				hosted++
				r.stats.PerCluster[c] = cs
			}
		}
		r.hosted = append(r.hosted, hosted)
		r.nodeWall = append(r.nodeWall, s.WallTime)
		addClusterStats(&r.stats.ClusterStats, s.ClusterStats)
		r.stats.GVTRounds = max(r.stats.GVTRounds, s.GVTRounds)
		r.stats.RebalanceRounds = max(r.stats.RebalanceRounds, s.RebalanceRounds)
		r.stats.RouteEpoch = max(r.stats.RouteEpoch, s.RouteEpoch)
		r.stats.WallTime = max(r.stats.WallTime, s.WallTime)
	}
	return r, nil
}

func addClusterStats(dst *timewarp.ClusterStats, s timewarp.ClusterStats) {
	dst.EventsProcessed += s.EventsProcessed
	dst.EventsCommitted += s.EventsCommitted
	dst.EventsRolledBack += s.EventsRolledBack
	dst.Rollbacks += s.Rollbacks
	dst.RemoteMessages += s.RemoteMessages
	dst.LocalMessages += s.LocalMessages
	dst.AntiMessages += s.AntiMessages
	dst.Migrations += s.Migrations
	dst.ForwardedMessages += s.ForwardedMessages
}

// oracle is one run of the sequential simulator: the correctness reference
// and the denominator of the paper's speedup.
type oracle struct {
	start time.Time
	wall  time.Duration // Simulator.Run (RunVec on the vectored workload)

	events      uint64
	evaluations uint64
	history     uint64
	laneHistory []uint64
}

// runSeq runs the sequential simulator at the workload's grain.
func runSeq(in *inputs, w workload, seed int64) (oracle, error) {
	cfg := w.seqConfig(seed)
	runtime.GC()
	if w.Vectors {
		o := oracle{start: time.Now()}
		res, err := seqsim.RunVec(in.c, cfg)
		o.wall = time.Since(o.start)
		if err != nil {
			return o, fmt.Errorf("seqsim.RunVec: %w", err)
		}
		o.events, o.evaluations, o.laneHistory = res.Events, res.Evaluations, res.OutputHistory
		o.history = res.OutputHistory[0]
		return o, nil
	}
	sim, err := seqsim.New(in.c, cfg)
	if err != nil {
		return oracle{}, fmt.Errorf("seqsim.New: %w", err)
	}
	sim.SetGrain(w.Grain)
	o := oracle{start: time.Now()}
	res, err := sim.Run()
	o.wall = time.Since(o.start)
	if err != nil {
		return o, fmt.Errorf("seqsim.Run: %w", err)
	}
	o.events, o.evaluations, o.history = res.Events, res.Evaluations, res.OutputHistory
	return o, nil
}

// verify compares a parallel run with the oracle: the committed-event count
// and the output history (every lane when vectored) must match exactly.
func verify(r parallelRun, want oracle) error {
	if r.committed != want.events {
		return fmt.Errorf("committed %d events, oracle %d", r.committed, want.events)
	}
	if r.history != want.history {
		return fmt.Errorf("output history %#x, oracle %#x", r.history, want.history)
	}
	if len(r.laneHistory) != len(want.laneHistory) {
		return fmt.Errorf("%d lane histories, oracle %d", len(r.laneHistory), len(want.laneHistory))
	}
	for s, h := range r.laneHistory {
		if h != want.laneHistory[s] {
			return fmt.Errorf("lane %d history %#x, oracle %#x", s, h, want.laneHistory[s])
		}
	}
	return nil
}

// selfCheck holds a verified run to the workload's own invariants, so a run
// that is fast because it skipped the work it is there to measure fails.
func selfCheck(w workload, r parallelRun) error {
	s := r.stats
	switch {
	case w.K == 1 && (s.Rollbacks != 0 || s.RemoteMessages != 0):
		return fmt.Errorf("k=1 run had %d rollbacks and %d remote messages, want none", s.Rollbacks, s.RemoteMessages)
	case w.Dynamic && s.Migrations == 0:
		return errors.New("dynamic run migrated no LP")
	}
	if w.Transport == "tcp" {
		for node, hosted := range r.hosted {
			if hosted != 1 {
				return fmt.Errorf("tcp node %d hosted %d clusters, want exactly 1", node, hosted)
			}
		}
	}
	return nil
}

func remoteFraction(s timewarp.RunStats) float64 {
	return ratio(float64(s.RemoteMessages), float64(s.RemoteMessages+s.LocalMessages))
}

// ratio is a/b, or 0 when b is 0 (a count that did not occur).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

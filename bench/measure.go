package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/partition"
)

const (
	// minRepeats is the floor on timed repeats of one pass; the time budget
	// adds more. The traced pass runs up to five simulations per repeat, so
	// its floor is lower.
	minRepeats       = 5
	minTracedRepeats = 3
	// setupsPerRepeat set-ups run at the head of every repeat: the stage takes
	// 15–45 ms, so one sample per repeat would leave setup_s a median of five.
	setupsPerRepeat = 3
	// seqSlice is the wall time of sequential simulation sampled per repeat.
	seqSlice = 400 * time.Millisecond
)

// options are one invocation's knobs. The zero value of everything but Seed
// is the smallest pass there is, which is what the tests run; main sets the
// rest.
type options struct {
	Seed       int64
	Seconds    float64       // time budget of the timed repeats
	MinRepeats int           // 0 = the pass's default floor
	SeqSlice   time.Duration // oracle wall time sampled per repeat; 0 = one run
	Cycles     int           // overrides the workload's cycle count (tests only); 0 keeps it
	OutDir     string        // where the traced pass writes trace-<workload>.jsonl; "" = nowhere
}

// result is one pass over one workload.
type result struct {
	Workload       workload `json:"workload"`
	Traced         bool     `json:"traced"`
	Oversubscribed bool     `json:"oversubscribed"`
	Repeats        int      `json:"repeats"`
	Attempted      int      `json:"attempted"`
	Failed         int      `json:"failed"`
	Failures       []string `json:"failures,omitempty"`
	// Metrics are the end-to-end metrics of an untraced pass, the per-layer
	// metrics of a traced one.
	Metrics map[string]stat `json:"metrics"`
	// Exact are simulated statistics of the warm-up (the -seed inputs
	// themselves) that must repeat bit for bit between invocations and
	// commits.
	Exact map[string]uint64 `json:"exact"`
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// failedRunRatio is the fifth end-to-end figure: failed ÷ attempted runs.
func (r *result) failedRunRatio() float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }

// pass is the state of one measuring pass.
type pass struct {
	w    workload
	opt  options
	tr   *tracer
	root int
	res  *result

	repeat         // the repeat in progress
	base   *inputs // the warm-up's inputs: those of the benchmark seed itself

	setupTotal, setupGenerate, setupPartition, setupMeasure []float64

	events, evaluations      []float64 // per repeat, from the oracle
	runRate, seqRate, allocs []float64 // end-to-end samples
	untracedWall             []float64 // traced pass: the base of the tracing overhead
	seqWall, k1Wall, memWall []float64 // traced pass: oracle and rung timings
	runs                     []parallelRun
	done                     []repeat // traced pass: what the rungs rerun
}

// repeat is one run of the pipeline: its derived seed, the inputs set-up made
// from it, and the oracle's answer for them (nil until the oracle ran).
type repeat struct {
	seed int64
	in   *inputs
	want *oracle
}

// repeatSeed derives the inputs' seed of repeat i from the benchmark seed
// (splitmix64), so every repeat is the pipeline on fresh inputs and a run's
// medians average over stimulus and partition, not over one draw of them.
// (The warm-up runs on the benchmark seed itself.)
func repeatSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// runWorkload measures one workload for opt.Seconds. Every repeat is the
// whole pipeline on inputs derived from the seed: set-up, the sequential
// oracle, the parallel run, verification. With traced set it records spans
// around every call into a layer, adds the ladder rungs and the gate-eval
// probes, and yields the per-layer metrics; without, the end-to-end metrics.
func runWorkload(w workload, traced bool, opt options) (*result, error) {
	if opt.Cycles > 0 {
		w.Cycles = opt.Cycles
	}
	p := &pass{w: w, opt: opt, res: &result{Workload: w, Traced: traced,
		Oversubscribed: w.K > runtime.NumCPU(), Exact: map[string]uint64{}}}
	if p.res.Oversubscribed {
		fmt.Fprintf(os.Stderr, "bench: warning: %s runs %d clusters on %d CPUs: oversubscribed, timings are not comparable with a %d-CPU host\n",
			w.Name, w.K, runtime.NumCPU(), w.K)
	}
	if traced {
		p.tr = newTracer(w.Name)
		p.root = p.tr.begin(0, "workload")
	}
	if err := p.warmUp(); err != nil {
		return p.res, err
	}

	floor := minRepeats
	step := p.untracedRepeat
	if traced {
		floor, step = minTracedRepeats, p.tracedRepeat
	}
	if opt.MinRepeats > 0 {
		floor = opt.MinRepeats
	}
	budget := time.Duration(opt.Seconds * float64(time.Second))
	if traced {
		budget = budget * 7 / 10 // the rungs take the rest
	}
	for start := time.Now(); p.res.Repeats < floor || time.Since(start) < budget; {
		p.res.Repeats++
		if err := p.prepare(repeatSeed(opt.Seed, p.res.Repeats)); err != nil {
			return p.res, err
		}
		if p.want == nil {
			continue // the oracle failed and was counted; nothing to verify against
		}
		if err := step(); err != nil {
			return p.res, err
		}
	}

	if !traced {
		p.res.Metrics = map[string]stat{
			"setup_s":          summarize("s", p.setupTotal),
			"events_per_s":     summarize("events/s", p.runRate),
			"seq_events_per_s": summarize("events/s", p.seqRate),
			"allocs_per_event": summarize("allocs/event", p.allocs),
		}
		return p.res, nil
	}
	if err := p.rungs(); err != nil {
		return p.res, err
	}
	evalNS, evalVecNS := p.probe()
	p.tr.end(p.root, nil)
	p.layerMetrics(evalNS, evalVecNS)
	if opt.OutDir != "" {
		if err := p.tr.write(opt.OutDir); err != nil {
			return p.res, fmt.Errorf("write trace: %w", err)
		}
	}
	return p.res, nil
}

// warmUp runs the pipeline once on the benchmark seed's own inputs, timings
// discarded: it fills caches, records the simulated statistics that must
// repeat exactly, and runs the workload's contrast check.
func (p *pass) warmUp() error {
	if err := p.prepare(p.opt.Seed); err != nil {
		return err
	}
	if p.want == nil {
		return fmt.Errorf("%s: the oracle failed on the warm-up: %v", p.w.Name, p.res.Failures)
	}
	p.base = p.in
	p.res.Exact["edge_cut"] = uint64(p.in.q.EdgeCut)
	p.res.Exact["seq_events"] = p.want.events
	p.res.Exact["seq_evaluations"] = p.want.evaluations
	p.res.Exact["output_history"] = p.want.history
	warm, err := p.parallel("bench.warmup", p.in.a, p.w.Transport)
	if err != nil {
		return err
	}
	if p.w.Contrast != "" && warm != nil {
		if err := p.checkContrast(warm); err != nil {
			return err
		}
	}
	// Only timed repeats are sampled.
	p.setupTotal, p.setupGenerate, p.setupPartition, p.setupMeasure = nil, nil, nil, nil
	p.events, p.evaluations, p.seqRate, p.seqWall = nil, nil, nil, nil
	return nil
}

// prepare starts a repeat: set-up from the repeat's seed (setupsPerRepeat
// times, each sampled; they must agree on the partition), then the oracle on
// those inputs, timed. A short oracle run is repeated until SeqSlice of wall
// time is sampled, so the sequential rate rests on as much measured work as
// the parallel one; every rerun must repeat the first exactly. If the oracle
// fails, the failure is counted and p.want is nil.
func (p *pass) prepare(seed int64) error {
	runtime.GC() // the last run's garbage is not set-up's to collect
	var in *inputs
	for i := 0; i < setupsPerRepeat; i++ {
		again, err := setup(p.w, seed, p.tr, p.root)
		if err != nil {
			return err
		}
		if in != nil && again.q.EdgeCut != in.q.EdgeCut {
			return fmt.Errorf("%s: edge cut %d, then %d from the same seed: partitioning is not deterministic", p.w.Name, in.q.EdgeCut, again.q.EdgeCut)
		}
		in = again
		p.setupTotal = append(p.setupTotal, in.total.Seconds())
		p.setupGenerate = append(p.setupGenerate, in.generate.Seconds())
		p.setupPartition = append(p.setupPartition, in.partition.Seconds())
		p.setupMeasure = append(p.setupMeasure, in.measure.Seconds())
	}
	p.repeat = repeat{seed: seed, in: in}

	var first *oracle
	for spent := time.Duration(0); first == nil || spent < p.opt.SeqSlice; {
		p.res.Attempted++
		o, err := runSeq(in, p.w, seed)
		p.tr.record(p.root, "seqsim.run", o.start, o.start.Add(o.wall),
			map[string]float64{"events": float64(o.events), "evaluations": float64(o.evaluations)})
		if err == nil && first != nil && (o.events != first.events || o.evaluations != first.evaluations || o.history != first.history) {
			err = fmt.Errorf("oracle did not repeat: events %d/%d evaluations %d/%d history %#x/%#x",
				o.events, first.events, o.evaluations, first.evaluations, o.history, first.history)
		}
		if err != nil {
			p.fail("seqsim.run", err)
			return nil
		}
		if first == nil {
			first = &o
		}
		p.seqWall = append(p.seqWall, o.wall.Seconds())
		p.seqRate = append(p.seqRate, float64(o.events)/o.wall.Seconds())
		spent += o.wall
	}
	p.want = first
	p.events = append(p.events, float64(first.events))
	p.evaluations = append(p.evaluations, float64(first.evaluations))
	return nil
}

// parallel attempts one parallel run: simulate, verify against the oracle,
// hold it to the workload's self-checks. A run that fails any of these is
// counted and its timing dropped (nil run); only a missed deadline, which
// leaves the kernel's goroutines behind, ends the pass with an error.
func (p *pass) parallel(name string, a partition.Assignment, transport string) (*parallelRun, error) {
	w := p.w
	if a.K == 1 {
		w.K, w.Dynamic = 1, false
	}
	w.Transport = transport
	p.res.Attempted++
	r, err := runParallel(p.in, a, w.simConfig(p.seed), transport)
	if err == nil {
		tr, end := p.tr, r.start.Add(r.wall)
		id := tr.record(p.root, name, r.start, end, map[string]float64{
			"events_committed": float64(r.stats.EventsCommitted),
			"events_processed": float64(r.stats.EventsProcessed),
			"rollbacks":        float64(r.stats.Rollbacks),
			"remote_messages":  float64(r.stats.RemoteMessages),
			"gvt_rounds":       float64(r.stats.GVTRounds),
			"migrations":       float64(r.stats.Migrations),
		})
		// RunStats.WallTime ends when the last cluster stops, just before
		// Run gathers its result, so the kernel's span is laid against the
		// end of the call; what precedes it is handler and kernel
		// construction (and the mesh handshake under tcp).
		for _, wall := range r.nodeWall {
			tr.record(id, "timewarp.run", end.Add(-wall), end, nil)
		}
		vid := tr.begin(p.root, "verify")
		if err = verify(r, *p.want); err == nil {
			err = selfCheck(w, r)
		}
		tr.end(vid, nil)
	}
	if err != nil {
		p.fail(name, err)
		if errors.Is(err, errDeadline) {
			return nil, fmt.Errorf("%s %s: %w", p.w.Name, name, err)
		}
		return nil, nil
	}
	return &r, nil
}

func (p *pass) fail(name string, err error) {
	p.res.Failed++
	p.res.Failures = append(p.res.Failures, fmt.Sprintf("%s %s: %v", p.w.Name, name, err))
}

// untracedRepeat finishes a repeat of the end-to-end pass: the parallel run
// on the inputs prepare made, right after the oracle ran on them, so drift
// of the host hits both alike.
func (p *pass) untracedRepeat() error {
	r, err := p.parallel("logicsim.run", p.in.a, p.w.Transport)
	if err != nil || r == nil {
		return err
	}
	p.runRate = append(p.runRate, float64(r.committed)/r.wall.Seconds())
	p.allocs = append(p.allocs, float64(r.mallocs)/float64(r.committed))
	return nil
}

// tracedRepeat finishes a repeat of the per-layer pass: an untraced twin of
// the run (the base of the tracing overhead), then the traced run.
func (p *pass) tracedRepeat() error {
	r, err := p.parallel("bench.untraced_run", p.in.a, p.w.Transport)
	if err != nil {
		return err
	}
	if r != nil {
		p.untracedWall = append(p.untracedWall, r.wall.Seconds())
	}
	if r, err = p.parallel("logicsim.run", p.in.a, p.w.Transport); err != nil {
		return err
	}
	if r != nil {
		p.runs = append(p.runs, *r)
	}
	p.done = append(p.done, p.repeat)
	return nil
}

// rungs reruns every finished repeat's inputs on the ladder rungs below the
// workload: the kernel at k=1 and, under tcp, the same partition over the
// in-memory transport. They run after the last timed repeat, not between
// repeats: what a run leaves in the Go runtime (the GC pacer's history above
// all) moves the k=2 runs that follow it in the same process, so a rung
// between two repeats would be measured into the workload.
func (p *pass) rungs() error {
	for _, rep := range p.done {
		p.repeat = rep
		if p.w.K > 1 {
			one := partition.NewAssignment(p.in.c.NumGates(), 1)
			r, err := p.parallel("rung.k1", one, "mem")
			if err != nil {
				return err
			}
			if r != nil {
				p.k1Wall = append(p.k1Wall, r.stats.WallTime.Seconds())
			}
		}
		if p.w.Transport == "tcp" {
			r, err := p.parallel("rung.mem", p.in.a, "mem")
			if err != nil {
				return err
			}
			if r != nil {
				p.memWall = append(p.memWall, r.stats.WallTime.Seconds())
			}
		}
	}
	return nil
}

// checkContrast runs the contrast workload once, verified like any other
// run, and requires this workload's partition to send a larger share of its
// messages to the other cluster: the tracked partition-quality contrast.
func (p *pass) checkContrast(ours *parallelRun) error {
	cw, err := findWorkload(p.w.Contrast)
	if err != nil {
		return err
	}
	cw.Cycles = p.w.Cycles
	in, err := setup(cw, p.seed, nil, 0)
	if err != nil {
		return err
	}
	ref, err := p.parallel("bench.contrast", in.a, cw.Transport)
	if err != nil || ref == nil {
		return err
	}
	if got, base := remoteFraction(ours.stats), remoteFraction(ref.stats); got <= base {
		p.fail("contrast", fmt.Errorf("remote fraction %.4f not above %s's %.4f", got, cw.Name, base))
	}
	return nil
}

// probe runs the gate-eval micro-probes under their own spans.
func (p *pass) probe() (evalNS, evalVecNS float64) {
	id := p.tr.begin(p.root, "circuit.eval_probe")
	evalNS, evalVecNS = probeEval(p.in.c)
	p.tr.end(id, map[string]float64{"calls": probeCalls})
	return evalNS, evalVecNS
}

// layerMetrics reduces the traced pass's samples to the per-layer metrics:
// medians over the repeats, for timings and for counters alike (every repeat
// has its own inputs, and rollbacks, messages and GVT rounds depend on the
// thread schedule besides). Structural figures (gates, cut, levels) are those
// of the benchmark seed's own inputs, so they repeat exactly.
func (p *pass) layerMetrics(evalNS, evalVecNS float64) {
	in := p.base
	m := map[string]stat{}
	set := func(name string, v float64) {
		for _, d := range perLayer {
			if d.Name == name {
				m[name] = exact(d.Unit, v)
				return
			}
		}
		panic("bench: metric " + name + " is not declared in perLayer")
	}
	samples := func(f func(r *parallelRun) float64) []float64 {
		v := make([]float64, len(p.runs))
		for i := range p.runs {
			v[i] = f(&p.runs[i])
		}
		return v
	}
	count := func(f func(r *parallelRun) float64) float64 { return medianOf(samples(f)) }
	events := medianOf(p.events)
	runWall := samples(func(r *parallelRun) float64 { return r.wall.Seconds() })
	runS, seqS := medianOf(runWall), medianOf(p.seqWall)
	twS := count(func(r *parallelRun) float64 { return r.stats.WallTime.Seconds() })

	set("circuit.generate_s", medianOf(p.setupGenerate))
	set("circuit.gates", float64(in.c.NumGates()))
	set("circuit.edges", float64(in.c.NumEdges()))
	set("circuit.eval_ns", evalNS)
	set("circuit.evalvec_ns", evalVecNS)

	set("partition.measure_s", medianOf(p.setupMeasure))
	set("partition.edge_cut", float64(in.q.EdgeCut))
	set("partition.cut_fraction", in.q.CutFraction)
	set("partition.imbalance", in.q.Imbalance)
	set("partition.concurrency", in.q.Concurrency)

	set("core.partition_s", medianOf(p.setupPartition))
	set("core.levels", float64(in.ml.Levels))
	set("core.coarsest_size", float64(in.ml.CoarsestSize))
	set("core.refine_passes", float64(in.ml.RefinePasses))
	set("core.final_cut", float64(in.ml.FinalCut))

	set("seqsim.run_s", seqS)
	set("seqsim.events", events)
	set("seqsim.evaluations", medianOf(p.evaluations))
	set("seqsim.ns_per_event", ratio(seqS*1e9, events))

	set("logicsim.run_s", runS)
	set("logicsim.build_s", count(func(r *parallelRun) float64 { return (r.wall - r.stats.WallTime).Seconds() }))
	set("logicsim.bytes_per_event", count(func(r *parallelRun) float64 { return float64(r.bytes) / float64(r.committed) }))
	set("logicsim.gc_cycles", count(func(r *parallelRun) float64 { return float64(r.gcCycles) }))
	set("logicsim.gc_pause_s", count(func(r *parallelRun) float64 { return r.gcPause.Seconds() }))
	set("logicsim.speedup_vs_seq", ratio(seqS, runS))

	// The ladder. On k1-g0 the workload is its own k=1 rung; the tcp ratio
	// is 0 wherever the tcp rung does not apply.
	k1S := medianOf(p.k1Wall)
	if p.w.K == 1 {
		k1S = twS
	}
	set("timewarp.run_s", twS)
	set("timewarp.ns_per_committed_event", ratio(twS*1e9, events))
	set("timewarp.k1_run_s", k1S)
	set("timewarp.k1_overhead_ratio", ratio(k1S, seqS))
	set("timewarp.parallel_efficiency", ratio(k1S, float64(min(p.w.K, runtime.GOMAXPROCS(0)))*twS))
	set("timewarp.tcp_overhead_ratio", ratio(twS, medianOf(p.memWall)))

	processed := count(func(r *parallelRun) float64 { return float64(r.stats.EventsProcessed) })
	rolledBack := count(func(r *parallelRun) float64 { return float64(r.stats.EventsRolledBack) })
	rollbacks := count(func(r *parallelRun) float64 { return float64(r.stats.Rollbacks) })
	gvtRounds := count(func(r *parallelRun) float64 { return float64(r.stats.GVTRounds) })
	set("timewarp.events_processed", processed)
	set("timewarp.events_committed", count(func(r *parallelRun) float64 { return float64(r.stats.EventsCommitted) }))
	set("timewarp.events_rolled_back", rolledBack)
	set("timewarp.rollbacks", rollbacks)
	set("timewarp.efficiency", count(func(r *parallelRun) float64 {
		return ratio(float64(r.stats.EventsCommitted), float64(r.stats.EventsProcessed))
	}))
	set("timewarp.rollback_depth_mean", ratio(rolledBack, rollbacks))
	set("timewarp.remote_messages", count(func(r *parallelRun) float64 { return float64(r.stats.RemoteMessages) }))
	set("timewarp.local_messages", count(func(r *parallelRun) float64 { return float64(r.stats.LocalMessages) }))
	set("timewarp.anti_messages", count(func(r *parallelRun) float64 { return float64(r.stats.AntiMessages) }))
	set("timewarp.remote_fraction", count(func(r *parallelRun) float64 { return remoteFraction(r.stats) }))
	set("timewarp.gvt_rounds", gvtRounds)
	set("timewarp.events_per_gvt_round", ratio(processed, gvtRounds))
	set("timewarp.cluster_imbalance", count(clusterImbalance))
	set("timewarp.migrations", count(func(r *parallelRun) float64 { return float64(r.stats.Migrations) }))
	set("timewarp.forwarded_messages", count(func(r *parallelRun) float64 { return float64(r.stats.ForwardedMessages) }))
	set("timewarp.rebalance_rounds", count(func(r *parallelRun) float64 { return float64(r.stats.RebalanceRounds) }))

	set("bench.trace_overhead_ratio", ratio(runS, medianOf(p.untracedWall)))
	set("bench.span_coverage", coverage(p.tr.spans, p.root))
	set("bench.run_wall_iqr_ratio", summarize("s", runWall).iqrRatio())
	set("bench.seq_wall_iqr_ratio", summarize("s", p.seqWall).iqrRatio())
	set("bench.num_cpu", float64(runtime.NumCPU()))
	set("bench.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
	p.res.Metrics = m
}

// clusterImbalance is max ÷ mean of the per-cluster processed-event counts.
func clusterImbalance(r *parallelRun) float64 {
	var most, sum float64
	for _, c := range r.stats.PerCluster {
		most = max(most, float64(c.EventsProcessed))
		sum += float64(c.EventsProcessed)
	}
	return ratio(most*float64(len(r.stats.PerCluster)), sum)
}

// Package logicsim simulates gate-level circuits on the Time Warp kernel:
// every gate is a logical process, signal changes are timestamped events,
// and a partition assignment maps gates to simulation nodes. Semantics are
// identical to internal/seqsim (timestep evaluation, sender delay, hash
// stimulus), so a parallel run commits exactly the events a sequential run
// processes and produces the same output history — the cross-check used by
// the integration tests. One gate handler serves both evaluation modes: it is
// generic over the value type (circuit.Value, or circuit.VecValue under
// Config.Vectors), and a scalar run is the one-lane case.
package logicsim

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/seqsim"
	"repro/internal/timewarp"
)

// Event kinds on the wire.
const (
	kindSignal int32 = iota
	kindStimulus
	kindClock
)

// Config parameterizes a parallel simulation run. Cycles, ClockPeriod,
// StimulusSeed and StimulusEvery have the same meaning as in seqsim.Config;
// identical values make runs comparable.
type Config struct {
	Cycles        int
	ClockPeriod   int64
	StimulusSeed  int64
	StimulusEvery int

	// Vectors enables bit-parallel evaluation: every gate carries circuit.W
	// independent scenarios (lane s driven by StimulusSeed+s) in packed
	// val/unknown planes, signal events ship the planes in the kernel's wide
	// payload block, and one committed event advances all W scenarios. Lane
	// s of a vectored run is bit-identical to the scalar run with seed
	// StimulusSeed+s (see Result's Vec* fields and internal/seqsim.RunVec).
	Vectors bool

	// Hotspot and HotspotFraction concentrate stimulus in a rotating window
	// of the primary inputs, exactly as in seqsim.Config: both simulators
	// share seqsim.HotspotActive, so hotspot runs stay oracle-comparable.
	Hotspot         bool
	HotspotFraction float64

	// DynamicRebalance enables GVT-synchronized LP migration: the kernel
	// periodically snapshots the observed per-gate activity and send
	// matrix, refines the current assignment with core.Rebalance, and
	// migrates gates whose best home moved. Committed results are
	// placement-independent, so a dynamic run still matches the oracle.
	// Gates migrate within one process only: with a Transport that spans
	// several, Run returns an error wrapping timewarp.ErrBadTransport.
	DynamicRebalance bool
	// RebalancePeriodRounds is the number of GVT-advancing rounds between
	// rebalance decisions (default 4).
	RebalancePeriodRounds int
	// RebalanceImbalance skips migration while max/mean per-cluster
	// committed load is below this ratio (default 1.1; 1.0 rebalances on
	// any imbalance, useful in tests).
	RebalanceImbalance float64
	// RebalanceSeed drives the refinement visit order of each rebalance.
	RebalanceSeed int64

	// Grain burns this many iterations of CPU per gate evaluation, modeling
	// the heavyweight VHDL processes of the paper's TYVIS kernel. Zero
	// disables it.
	Grain int

	// OptimismCycles bounds optimistic execution to the kernel's progress
	// floor (the minimum next work time the clusters publish, not GVT) plus
	// this many clock periods of virtual time: timewarp.Config's
	// OptimismWindow. 0 is unbounded; a single cluster never stalls on it.
	OptimismCycles float64

	// GVTPeriodEvents, NetSendBusy, NetRecvBusy, NetLatency and InboxSize
	// pass through to the Time Warp kernel (the Net* fields and InboxSize
	// land in timewarp.NetConfig).
	GVTPeriodEvents int
	NetSendBusy     int
	NetRecvBusy     int
	NetLatency      time.Duration
	InboxSize       int

	// Transport selects the kernel's communication fabric: nil runs every
	// cluster in this process (the in-memory transport); a
	// timewarp.NewTCPTransport spreads the clusters over N OS processes, of
	// which this one hosts a share (see Result.Local).
	Transport timewarp.Transport
}

func (cfg *Config) setDefaults(c *circuit.Circuit) error {
	if cfg.Cycles <= 0 {
		cfg.Cycles = 1
	}
	if cfg.StimulusEvery <= 0 {
		cfg.StimulusEvery = 1
	}
	if cfg.ClockPeriod == 0 {
		p, err := seqsim.MinClockPeriod(c)
		if err != nil {
			return err
		}
		cfg.ClockPeriod = p
	}
	if cfg.ClockPeriod < 2 {
		return fmt.Errorf("logicsim: clock period %d too small", cfg.ClockPeriod)
	}
	if cfg.Hotspot && cfg.HotspotFraction == 0 {
		cfg.HotspotFraction = 0.25
	}
	if cfg.HotspotFraction < 0 || cfg.HotspotFraction > 1 {
		return fmt.Errorf("logicsim: hotspot fraction %v outside [0,1]", cfg.HotspotFraction)
	}
	if cfg.DynamicRebalance && cfg.RebalanceImbalance == 0 {
		cfg.RebalanceImbalance = 1.1
	}
	return nil
}

// Result reports a parallel run in seqsim-comparable terms plus the Time
// Warp statistics.
type Result struct {
	// CommittedEvents is the number of application events committed; it
	// must equal the Events count of a sequential run with the same Config.
	// Under a multi-process transport it covers only the clusters this
	// process hosted — sum it across nodes.
	CommittedEvents uint64
	// OutputValues and OutputHistory mirror seqsim.Result. Multi-process
	// runs report only locally-hosted gates (see Local); OutputHistory is an
	// order-independent sum, so adding the nodes' values reconstructs the
	// single-process figure exactly.
	OutputValues  []circuit.Value
	OutputHistory uint64
	// FinalValues is the final output value of every gate this process
	// hosted; entries for remote gates are circuit.X.
	FinalValues []circuit.Value
	// Local reports, per gate, whether this process hosted the gate when the
	// run finished (always true on a single node). Callers merging
	// multi-process results use it to pick exactly one owner per gate.
	Local []bool
	// VecOutputValues, VecOutputHistory and VecFinalValues are the per-lane
	// views of a vectored run (nil in scalar mode): VecOutputValues[i].Lane(s)
	// and VecFinalValues[id].Lane(s) are lane s's final values, and
	// VecOutputHistory[s] is lane s's order-insensitive output signature —
	// each bit-identical to the scalar (and seqsim) run with StimulusSeed+s.
	// Multi-process runs report only locally-hosted gates, exactly like the
	// scalar fields; the per-lane histories are order-insensitive sums, so
	// adding the nodes' values reconstructs each lane exactly. The scalar
	// OutputValues/OutputHistory/FinalValues fields hold lane 0's view.
	VecOutputValues  []circuit.VecValue
	VecOutputHistory []uint64
	VecFinalValues   []circuit.VecValue
	// Stats carries the kernel counters (rollbacks, messages, GVT rounds)
	// for the clusters this process hosted.
	Stats timewarp.RunStats
}

// wireLanes extends seqsim's per-value-type table with how a value travels:
// in a signal event (the event's Value field for circuit.Value, the wide
// Payload for circuit.VecValue) and in saved gate state.
type wireLanes[V any] struct {
	seqsim.Lanes[V]
	toEvent   func(v V) (int32, timewarp.Payload)
	fromEvent func(ev *timewarp.Event) V
	size      int // encoded bytes per value
	put       func(buf []byte, v V) []byte
	get       func(data []byte) V
}

func scalarLanes() wireLanes[circuit.Value] {
	return wireLanes[circuit.Value]{
		Lanes: seqsim.Scalar(),
		// A zero payload keeps scalar wire frames in the narrow format.
		toEvent:   func(v circuit.Value) (int32, timewarp.Payload) { return int32(v), timewarp.Payload{} },
		fromEvent: func(ev *timewarp.Event) circuit.Value { return circuit.Value(ev.Value) },
		size:      1,
		put:       func(buf []byte, v circuit.Value) []byte { return append(buf, byte(v)) },
		get:       func(data []byte) circuit.Value { return circuit.Value(data[0]) },
	}
}

func vectorLanes() wireLanes[circuit.VecValue] {
	return wireLanes[circuit.VecValue]{
		Lanes: seqsim.Vector(),
		toEvent: func(v circuit.VecValue) (int32, timewarp.Payload) {
			return 0, timewarp.Payload{P0: v.Val, P1: v.Unknown}
		},
		fromEvent: func(ev *timewarp.Event) circuit.VecValue {
			return circuit.VecValue{Val: ev.Pay.P0, Unknown: ev.Pay.P1}
		},
		size: 16,
		put: func(buf []byte, v circuit.VecValue) []byte {
			return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(buf, v.Val), v.Unknown)
		},
		get: func(data []byte) circuit.VecValue {
			return circuit.VecValue{Val: binary.LittleEndian.Uint64(data), Unknown: binary.LittleEndian.Uint64(data[8:])}
		},
	}
}

// shared holds the immutable tables every gate LP reads.
type shared[V any] struct {
	c     *circuit.Circuit
	cfg   Config
	lanes wireLanes[V]
}

// maxPins is the most input pins a gate may have: its state encoding counts
// them in one byte.
const maxPins = 255

// gateState is the mutable state of one gate LP: what EncodeState saves. A
// DFF's latched value is its output, so it needs no field of its own.
type gateState[V any] struct {
	inputs []V
	out    V
	hist   []uint64 // per-lane output-history signature; primary outputs only
}

// gateLP is the timewarp.Handler for one gate.
type gateLP[V any] struct {
	sim      *shared[V]
	typ      circuit.GateType
	inputIdx int   // index in c.Inputs for Input gates, else -1
	outIdx   int   // index in c.Outputs for primary outputs, else -1
	fanin    []int // driver gate ID per input pin: the circuit's g.Fanin
	fanout   []int // deduplicated fanout gate IDs
	delay    int64
	st       gateState[V]
}

// newGateLP builds the LP of gate g, whose deduplicated fanout list comes
// from seqsim.GateFanout.
func newGateLP[V any](sim *shared[V], g *circuit.Gate, fanout []int) *gateLP[V] {
	lp := &gateLP[V]{
		sim:      sim,
		typ:      g.Type,
		inputIdx: -1,
		outIdx:   -1,
		fanin:    g.Fanin,
		fanout:   fanout,
		delay:    seqsim.GateDelay(g),
	}
	lp.st.inputs = make([]V, len(g.Fanin))
	for i := range lp.st.inputs {
		lp.st.inputs[i] = sim.lanes.X
	}
	lp.st.out = sim.lanes.X
	return lp
}

// markOutput makes the LP primary output idx, which keeps an output history.
func (lp *gateLP[V]) markOutput(idx int) {
	lp.outIdx = idx
	lp.st.hist = make([]uint64, lp.sim.lanes.N)
}

// Init schedules the LP's first self-event: the first stimulus cycle for
// primary inputs (cycle 0, unless a hotspot window excludes this input until
// later), the cycle-0 clock edge for flip-flops. Subsequent cycles chain
// from Execute so the pending queues stay small.
func (lp *gateLP[V]) Init(ctx *timewarp.Context) {
	switch lp.typ {
	case circuit.Input:
		if first := lp.nextStimulusCycle(0); first >= 0 {
			ctx.Send(ctx.Self(), int64(first)*lp.sim.cfg.ClockPeriod, kindStimulus, 0)
		}
	case circuit.DFF:
		ctx.Send(ctx.Self(), lp.sim.cfg.ClockPeriod/2, kindClock, 0)
	}
}

// nextStimulusCycle returns this input LP's first stimulus cycle at or after
// `from`, or -1; the shared schedule keeps parallel runs oracle-identical.
func (lp *gateLP[V]) nextStimulusCycle(from int) int {
	cfg := &lp.sim.cfg
	return seqsim.NextStimulusCycle(from, cfg.Cycles, cfg.StimulusEvery,
		len(lp.sim.c.Inputs), lp.inputIdx, cfg.Hotspot, cfg.HotspotFraction)
}

// Execute implements the shared timestep semantics: apply every arrival,
// then evaluate once with final inputs. An event fires downstream when ANY
// lane changed; a lane whose component is unchanged sees a no-op, which is
// what keeps each lane bit-identical to its scalar run.
//
//kernelvet:noalloc
func (lp *gateLP[V]) Execute(ctx *timewarp.Context, now timewarp.Time, events []timewarp.Event) {
	cfg := &lp.sim.cfg
	ops := &lp.sim.lanes
	stimulus := false
	clocked := false
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case kindSignal:
			seqsim.SetPins(lp.st.inputs, lp.fanin, int(ev.Sender), ops.fromEvent(ev))
		case kindStimulus:
			stimulus = true
		case kindClock:
			clocked = true
		}
	}

	switch {
	case stimulus:
		cycle := int(now / cfg.ClockPeriod)
		seqsim.Burn(cfg.Grain)
		lp.update(ctx, now, ops.Stimulus(cfg.StimulusSeed, lp.inputIdx, cycle))
		if next := lp.nextStimulusCycle(cycle + 1); next >= 0 {
			ctx.Send(ctx.Self(), int64(next)*cfg.ClockPeriod, kindStimulus, 0)
		}
	case lp.typ == circuit.DFF:
		if clocked {
			seqsim.Burn(cfg.Grain)
			lp.update(ctx, now, lp.st.inputs[0])
			cycle := int((now - cfg.ClockPeriod/2) / cfg.ClockPeriod)
			if next := cycle + 1; next < cfg.Cycles {
				ctx.Send(ctx.Self(), int64(next)*cfg.ClockPeriod+cfg.ClockPeriod/2, kindClock, 0)
			}
		}
		// Plain D-pin arrivals latch nothing until the next clock edge.
	default:
		seqsim.Burn(cfg.Grain)
		lp.update(ctx, now, ops.Eval(lp.typ, lp.st.inputs))
	}
}

// update sets the LP's output to v. The lanes that changed enter the
// rollback-safe output history (primary outputs only), and a change in any
// lane is sent to the fanout with sender delay.
func (lp *gateLP[V]) update(ctx *timewarp.Context, now timewarp.Time, v V) {
	ops := &lp.sim.lanes
	changed := ops.Diff(v, lp.st.out)
	if changed == 0 {
		return
	}
	lp.st.out = v
	if lp.outIdx >= 0 {
		for m := changed; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			lp.st.hist[lane] += seqsim.OutputHash(now, lp.outIdx, ops.Lane(v, lane))
		}
	}
	if lp.typ == circuit.Output {
		return
	}
	value, pay := ops.toEvent(v)
	for _, d := range lp.fanout {
		ctx.SendP(timewarp.LPID(d), now+lp.delay, kindSignal, value, pay)
	}
}

// histFlag is 1 for a primary output, whose state carries history.
func (lp *gateLP[V]) histFlag() byte {
	if lp.outIdx >= 0 {
		return 1
	}
	return 0
}

// EncodeState implements timewarp.Handler. The kernel saves every bundle's
// pre-state with it and migrates gates across a multi-process transport with
// it. The mutable simulation state is exactly gateState — the rest of gateLP
// is immutable tables every replica builds identically from the circuit.
// Layout: [npins u8][hist flag u8][npins values][out value][one
// little-endian u64 per lane if the flag is set], a value taking
// wireLanes.size bytes; run rejects gates with more than maxPins pins.
func (lp *gateLP[V]) EncodeState(buf []byte) []byte {
	ops := &lp.sim.lanes
	buf = append(buf, byte(len(lp.st.inputs)), lp.histFlag())
	for _, v := range lp.st.inputs {
		buf = ops.put(buf, v)
	}
	buf = ops.put(buf, lp.st.out)
	for _, h := range lp.st.hist {
		buf = binary.LittleEndian.AppendUint64(buf, h)
	}
	return buf
}

// DecodeState implements timewarp.Handler. The bytes may come from a peer
// process, so every length and flag is checked against this gate before any
// state changes.
func (lp *gateLP[V]) DecodeState(data []byte) error {
	ops := &lp.sim.lanes
	if len(data) < 2 {
		return fmt.Errorf("logicsim: gate state truncated (len %d)", len(data))
	}
	n, flag := len(lp.st.inputs), lp.histFlag()
	want := 2 + (n+1)*ops.size + int(flag)*8*ops.N
	if int(data[0]) != n || data[1] != flag || len(data) != want {
		return fmt.Errorf("logicsim: gate state of %d bytes for %d pins (hist flag %d), want %d bytes for %d pins (hist flag %d)",
			len(data), data[0], data[1], want, n, flag)
	}
	data = data[2:]
	for i := range lp.st.inputs {
		lp.st.inputs[i] = ops.get(data)
		data = data[ops.size:]
	}
	lp.st.out = ops.get(data)
	data = data[ops.size:]
	for i := range lp.st.hist {
		lp.st.hist[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return nil
}

// rebalancer adapts the kernel's load snapshots to core.Rebalance: it turns
// the observed send matrix into a partition.RuntimeGraph, refines the
// current assignment, and hands the result back as the new routing. Buffers
// are reused across rounds; the kernel calls rebalance from a single
// goroutine.
type rebalancer struct {
	imbalance float64
	seed      int64

	g   partition.RuntimeGraph
	cur []int
	cnt int
}

func (r *rebalancer) rebalance(s *timewarp.LoadSnapshot) []int {
	r.cnt++
	// Gate and weigh on the kernel's EWMA-smoothed load, not the raw
	// window: one quiet or one frantic window should neither trigger nor
	// mask a migration, and the refined weights should reflect the
	// persistent hotspot, not the latest transient.
	if s.SmoothedImbalance() < r.imbalance {
		return nil
	}
	n := len(s.ClusterOf)
	r.g.N = n
	r.g.VertexWeight = r.g.VertexWeight[:0]
	r.g.EdgeOff = r.g.EdgeOff[:0]
	r.g.EdgeDst = r.g.EdgeDst[:0]
	r.g.EdgeWeight = r.g.EdgeWeight[:0]
	for lp := 0; lp < n; lp++ {
		// ×16 keeps sub-event EWMA resolution in the integer weights.
		r.g.VertexWeight = append(r.g.VertexWeight, int64(s.SmoothedCommitted[lp]*16+0.5))
	}
	r.g.EdgeOff = append(r.g.EdgeOff, s.EdgeOff...)
	for _, d := range s.EdgeDst {
		r.g.EdgeDst = append(r.g.EdgeDst, int32(d))
	}
	for _, c := range s.EdgeCnt {
		r.g.EdgeWeight = append(r.g.EdgeWeight, int64(c))
	}
	r.cur = append(r.cur[:0], s.ClusterOf...)
	next, st, err := core.Rebalance(
		partition.Assignment{Parts: r.cur, K: s.NumClusters},
		&r.g,
		// Vary the seed per round so a rejected local optimum is not
		// re-proposed identically forever.
		core.RebalanceOptions{Seed: r.seed + int64(r.cnt)},
	)
	if err != nil {
		// The inputs are kernel-built (snapshot CSR, current routing), so an
		// error is a programming bug, not a workload condition; declining
		// silently would disguise a fully static run as a dynamic one.
		panic(fmt.Sprintf("logicsim: rebalance failed on a kernel-built snapshot: %v", err))
	}
	if st.Moved == 0 {
		return nil
	}
	return next.Parts
}

// Run simulates circuit c with partition assignment a on a.K simulation
// nodes and returns the committed results plus kernel statistics.
func Run(c *circuit.Circuit, a partition.Assignment, cfg Config) (Result, error) {
	if err := a.Validate(c); err != nil {
		return Result{}, err
	}
	if err := cfg.setDefaults(c); err != nil {
		return Result{}, err
	}
	if !cfg.Vectors {
		res, _, _, err := run(c, a, cfg, scalarLanes())
		return res, err
	}
	res, final, history, err := run(c, a, cfg, vectorLanes())
	if err != nil {
		return Result{}, err
	}
	res.VecFinalValues = final
	res.VecOutputHistory = history
	res.VecOutputValues = make([]circuit.VecValue, len(c.Outputs))
	for i, id := range c.Outputs {
		res.VecOutputValues[i] = final[id]
	}
	return res, nil
}

// run builds one gate LP per gate over value type V, runs the kernel, and
// returns the lane-0 Result together with every gate's final value and each
// lane's output history. Only the gates this process hosts at the end of
// the run report: a remote gate's handler here is either an untouched
// replica or a stale pre-migration copy, and exactly one node reports each
// gate; the others stay X.
func run[V any](c *circuit.Circuit, a partition.Assignment, cfg Config, ops wireLanes[V]) (Result, []V, []uint64, error) {
	sim := &shared[V]{c: c, cfg: cfg, lanes: ops}
	fanout := seqsim.GateFanout(c)
	handlers := make([]timewarp.Handler, c.NumGates())
	lps := make([]*gateLP[V], c.NumGates())
	for id, g := range c.Gates {
		if len(g.Fanin) > maxPins {
			return Result{}, nil, nil, fmt.Errorf("logicsim: gate %d has %d pins, state encoding limit %d", id, len(g.Fanin), maxPins)
		}
		lps[id] = newGateLP(sim, g, fanout[id])
		handlers[id] = lps[id]
	}
	for i, id := range c.Inputs {
		lps[id].inputIdx = i
	}
	for i, id := range c.Outputs {
		lps[id].markOutput(i)
	}
	var window timewarp.Time
	if cfg.OptimismCycles > 0 {
		window = timewarp.Time(cfg.OptimismCycles * float64(cfg.ClockPeriod))
		if window < 1 {
			window = 1
		}
	}
	twCfg := timewarp.Config{
		NumClusters:     a.K,
		ClusterOf:       a.Parts,
		OptimismWindow:  window,
		GVTPeriodEvents: cfg.GVTPeriodEvents,
		Net: timewarp.NetConfig{
			Transport: cfg.Transport,
			SendBusy:  cfg.NetSendBusy,
			RecvBusy:  cfg.NetRecvBusy,
			Latency:   cfg.NetLatency,
			InboxSize: cfg.InboxSize,
		},
	}
	if cfg.DynamicRebalance && a.K > 1 {
		rb := &rebalancer{
			imbalance: cfg.RebalanceImbalance,
			seed:      cfg.RebalanceSeed,
		}
		twCfg.Dynamic.Rebalance = rb.rebalance
		twCfg.Dynamic.PeriodRounds = cfg.RebalancePeriodRounds
	}
	kernel, err := timewarp.New(twCfg, handlers)
	if err != nil {
		return Result{}, nil, nil, err
	}
	stats, err := kernel.Run()
	if err != nil {
		return Result{}, nil, nil, err
	}

	res := Result{
		CommittedEvents: stats.EventsCommitted,
		OutputValues:    make([]circuit.Value, len(c.Outputs)),
		FinalValues:     make([]circuit.Value, c.NumGates()),
		Local:           make([]bool, c.NumGates()),
		Stats:           stats,
	}
	final := make([]V, c.NumGates())
	history := make([]uint64, ops.N)
	for id, lp := range lps {
		final[id] = ops.X
		if kernel.LocalLP(timewarp.LPID(id)) {
			res.Local[id] = true
			final[id] = lp.st.out
			if lp.outIdx >= 0 {
				for s, h := range lp.st.hist {
					history[s] += h
				}
			}
		}
		res.FinalValues[id] = ops.Lane(final[id], 0)
	}
	for i, id := range c.Outputs {
		res.OutputValues[i] = res.FinalValues[id]
	}
	res.OutputHistory = history[0]
	return res, final, history, nil
}

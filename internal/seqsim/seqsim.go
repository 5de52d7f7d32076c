// Package seqsim is the sequential event-driven gate-level logic simulator.
// It is the paper's sequential baseline (the "Seq Time" column of Table 2)
// and doubles as the correctness oracle for the Time Warp simulator: both
// implement identical circuit semantics, so a parallel run must commit the
// same signal values, the same output-change history, and the same number of
// application events.
//
// Semantics (shared with internal/logicsim):
//   - four-valued logic, every signal initialized to X;
//   - timestep evaluation: a gate evaluates once per virtual time at which
//     any of its input pins changes, using the final input values of that
//     time, so zero-width glitches cannot introduce ordering nondeterminism;
//   - sender delay: a changed output reaches every fanout reader one driver
//     delay later;
//   - DFFs latch D on each rising clock edge and publish Q one delay later;
//   - primary inputs receive deterministic pseudo-random vectors generated
//     by a per-(input,cycle) hash, so any simulator can regenerate the
//     stimulus locally without coordination.
package seqsim

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"

	"repro/internal/circuit"
	"repro/internal/minheap"
)

// StimulusBit returns the deterministic stimulus value of primary input
// index `input` at clock cycle `cycle` for a given seed. Both simulators
// share this function.
func StimulusBit(seed int64, input, cycle int) circuit.Value {
	x := uint64(seed) ^ uint64(input)*0x9E3779B97F4A7C15 ^ uint64(cycle)*0xBF58476D1CE4E5B9
	// splitmix64 finalizer
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x&1 == 1 {
		return circuit.One
	}
	return circuit.Zero
}

// HotspotActive reports whether primary input `input` receives fresh
// stimulus at `cycle` under the rotating hotspot window: a contiguous
// window of round(frac·numInputs) inputs (minimum 1) is active each cycle,
// and the window start advances by one input per cycle. Activity therefore
// concentrates in the fanout cones of a sliding group of inputs — a
// phase-shifting workload whose hot region no static partition can track.
// Both simulators share this function, so the stimulus (and with it every
// committed event) is identical between the sequential oracle and Time Warp.
func HotspotActive(numInputs int, frac float64, input, cycle int) bool {
	if numInputs <= 0 {
		return false
	}
	width := int(frac*float64(numInputs) + 0.5)
	if width < 1 {
		width = 1
	}
	if width >= numInputs {
		return true
	}
	d := input - cycle%numInputs
	if d < 0 {
		d += numInputs
	}
	return d < width
}

// NextStimulusCycle returns the first cycle in [from, cycles) at which
// primary input `input` receives fresh stimulus — honoring the StimulusEvery
// period and, when hotspot is set, the rotating hotspot window — or -1 when
// no such cycle remains. Both simulators derive their stimulus schedules
// from this function.
func NextStimulusCycle(from, cycles, every, numInputs, input int, hotspot bool, frac float64) int {
	if every < 1 {
		every = 1
	}
	for cy := from; cy < cycles; cy++ {
		if cy%every != 0 {
			continue
		}
		if hotspot && !HotspotActive(numInputs, frac, input, cy) {
			continue
		}
		return cy
	}
	return -1
}

// OutputHash mixes one primary-output change record (time, output index,
// value) into an order-insensitive signature term. Both simulators share it.
func OutputHash(t int64, outIdx int, v circuit.Value) uint64 {
	h := uint64(t)*0x9E3779B97F4A7C15 ^ uint64(outIdx)*0xBF58476D1CE4E5B9 ^ uint64(v)*0x94D049BB133111EB
	h ^= h >> 31
	return h * 0x2545F4914F6CDD1D
}

// GateDelay returns the normalized propagation delay of g (at least 1).
func GateDelay(g *circuit.Gate) int64 {
	if g.Delay < 1 {
		return 1
	}
	return g.Delay
}

// GateWiring returns, per gate ID, the tables both simulators deliver
// signals through: pins[id] maps each driver of gate id to the input pins it
// feeds, and fanout[id] lists the readers of gate id once each (a reader
// with several pins on one driver updates them all from one event). All
// pin and fanout lists share two backing arrays.
func GateWiring(c *circuit.Circuit) (pins []map[int][]int, fanout [][]int) {
	pins = make([]map[int][]int, len(c.Gates))
	fanout = make([][]int, len(c.Gates))
	// Each backing array holds at most one entry per edge, so neither
	// reallocates and every sub-slice stays valid.
	pinBuf := make([]int, 0, c.NumEdges())
	fanBuf := make([]int, 0, c.NumEdges())
	for id, g := range c.Gates {
		pins[id] = make(map[int][]int, len(g.Fanin))
		for pin, src := range g.Fanin {
			if _, done := pins[id][src]; done {
				continue
			}
			start := len(pinBuf)
			for p := pin; p < len(g.Fanin); p++ {
				if g.Fanin[p] == src {
					pinBuf = append(pinBuf, p)
				}
			}
			pins[id][src] = pinBuf[start:len(pinBuf):len(pinBuf)]
		}
		start := len(fanBuf)
		for _, d := range g.Fanout {
			if !slices.Contains(fanBuf[start:], d) {
				fanBuf = append(fanBuf, d)
			}
		}
		fanout[id] = fanBuf[start:len(fanBuf):len(fanBuf)]
	}
	return pins, fanout
}

// MinClockPeriod returns the smallest clock period that guarantees all
// combinational activity of a cycle settles strictly between clock edges,
// which removes every same-timestamp tie between the clock and signal
// events.
func MinClockPeriod(c *circuit.Circuit) (int64, error) {
	depth, err := c.Depth()
	if err != nil {
		return 0, err
	}
	maxDelay := int64(1)
	for _, g := range c.Gates {
		if d := GateDelay(g); d > maxDelay {
			maxDelay = d
		}
	}
	p := (int64(depth) + 2) * maxDelay * 2
	if p < 4 {
		p = 4
	}
	return p, nil
}

// Config parameterizes a simulation run. The same Config drives the parallel
// simulator so runs are comparable.
type Config struct {
	// Cycles is the number of clock cycles to simulate.
	Cycles int
	// ClockPeriod is the virtual time between rising clock edges. Zero
	// selects MinClockPeriod(circuit).
	ClockPeriod int64
	// StimulusSeed drives the deterministic random input vectors.
	StimulusSeed int64
	// StimulusEvery applies a fresh vector to the primary inputs every N
	// cycles (default 1).
	StimulusEvery int
	// Hotspot concentrates stimulus in a rotating window of the primary
	// inputs (see HotspotActive): only inputs inside the window receive a
	// fresh vector each stimulus cycle, so simulation activity clusters in
	// a sliding region of the circuit instead of spreading uniformly.
	Hotspot bool
	// HotspotFraction is the fraction of inputs inside the hotspot window.
	// Default 0.25 when Hotspot is set.
	HotspotFraction float64
}

func (cfg *Config) setDefaults(c *circuit.Circuit) error {
	if cfg.Cycles <= 0 {
		cfg.Cycles = 1
	}
	if cfg.StimulusEvery <= 0 {
		cfg.StimulusEvery = 1
	}
	if cfg.ClockPeriod == 0 {
		p, err := MinClockPeriod(c)
		if err != nil {
			return err
		}
		cfg.ClockPeriod = p
	}
	if cfg.ClockPeriod < 2 {
		return fmt.Errorf("seqsim: clock period %d too small", cfg.ClockPeriod)
	}
	if cfg.Hotspot && cfg.HotspotFraction == 0 {
		cfg.HotspotFraction = 0.25
	}
	if cfg.HotspotFraction < 0 || cfg.HotspotFraction > 1 {
		return fmt.Errorf("seqsim: hotspot fraction %v outside [0,1]", cfg.HotspotFraction)
	}
	return nil
}

// Result summarizes a simulation run.
type Result struct {
	// Events is the number of application events processed: every signal
	// arrival at a gate, every stimulus application, and every DFF clock
	// edge, counted identically by both simulators.
	Events uint64
	// Evaluations counts gate evaluations (one per gate per active
	// timestep).
	Evaluations uint64
	// EndTime is the virtual time of the last processed event.
	EndTime int64
	// OutputValues holds the final value of each primary output, in
	// circuit.Outputs order.
	OutputValues []circuit.Value
	// OutputHistory is an order-insensitive signature over every
	// primary-output change (time, output index, value).
	OutputHistory uint64
	// FinalValues is the final output value of every gate, indexed by ID.
	FinalValues []circuit.Value
	// Activity counts evaluations per gate (indexed by ID): the
	// communication-activity profile the paper's future-work coarsening
	// scheme consumes.
	Activity []uint64
}

// VecResult summarizes a vectored simulation run. Per-lane views use the
// packed encoding: OutputValues[i].Lane(s) is lane s's final value of primary
// output i, and OutputHistory[s] is lane s's order-insensitive signature —
// each must equal the corresponding field of the scalar run with seed
// StimulusSeed+s.
type VecResult struct {
	// Events counts application events processed; an event that changes any
	// lane counts once (this is the committed-event denominator of the
	// parallel vectored run). ScenarioEvents = Events × circuit.W is the
	// scenario-event count the throughput studies report.
	Events uint64
	// Evaluations counts vectored gate evaluations (each advances all W
	// lanes).
	Evaluations uint64
	// EndTime is the virtual time of the last processed event.
	EndTime int64
	// OutputValues holds the packed final value of each primary output.
	OutputValues []circuit.VecValue
	// OutputHistory holds each lane's order-insensitive signature over its
	// primary-output changes.
	OutputHistory []uint64
	// FinalValues holds the packed final output value of every gate.
	FinalValues []circuit.VecValue
}

// event is one scheduled signal arrival.
type event[V any] struct {
	t      int64
	gate   int
	driver int // -1 stimulus, -2 DFF clock edge
	val    V
}

// eventLess orders sim.queue, a min-heap, by (t, gate, driver). That is a
// total order, so the pop order is fully determined.
func eventLess[V any](a, b *event[V]) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.gate != b.gate {
		return a.gate < b.gate
	}
	return a.driver < b.driver
}

// sim is the event-driven simulator over values of type V; Simulator runs it
// on scalar values and RunVec on packed ones.
type sim[V any] struct {
	c           *circuit.Circuit
	cfg         Config
	lanes       Lanes[V]
	values      []V // current output value per gate
	inputs      [][]V
	pins        []map[int][]int // gate ID -> driver -> pins
	fanout      [][]int         // gate ID -> deduplicated readers
	outIdx      map[int]int     // gate ID -> index in c.Outputs
	queue       []event[V]
	scratch     map[int]struct{} // gates affected in the current timestep
	grain       int
	events      uint64
	evaluations uint64
	endTime     int64
	history     []uint64 // per-lane output-history signature
	activity    []uint64
}

func newSim[V any](c *circuit.Circuit, cfg Config, lanes Lanes[V]) (sim[V], error) {
	if err := cfg.setDefaults(c); err != nil {
		return sim[V]{}, err
	}
	n := c.NumGates()
	s := sim[V]{
		c:        c,
		cfg:      cfg,
		lanes:    lanes,
		values:   make([]V, n),
		inputs:   make([][]V, n),
		outIdx:   make(map[int]int, len(c.Outputs)),
		scratch:  make(map[int]struct{}),
		history:  make([]uint64, lanes.N),
		activity: make([]uint64, n),
	}
	for id, g := range c.Gates {
		s.values[id] = lanes.X
		s.inputs[id] = make([]V, len(g.Fanin))
		for i := range s.inputs[id] {
			s.inputs[id][i] = lanes.X
		}
	}
	s.pins, s.fanout = GateWiring(c)
	for i, id := range c.Outputs {
		s.outIdx[id] = i
	}
	return s, nil
}

// Simulator is a sequential event-driven simulator instance.
type Simulator struct{ sim[circuit.Value] }

// New prepares a simulator for circuit c.
func New(c *circuit.Circuit, cfg Config) (*Simulator, error) {
	s, err := newSim(c, cfg, Scalar())
	if err != nil {
		return nil, err
	}
	return &Simulator{s}, nil
}

// SetGrain sets a per-evaluation busy-work loop count that models
// heavyweight VHDL-process execution. Zero (the default) disables it.
func (s *Simulator) SetGrain(iters int) { s.grain = iters }

// Run executes the configured number of clock cycles and returns the result.
func (s *Simulator) Run() (Result, error) {
	s.run()
	return Result{
		Events:        s.events,
		Evaluations:   s.evaluations,
		EndTime:       s.endTime,
		OutputValues:  s.outputValues(),
		OutputHistory: s.history[0],
		FinalValues:   append([]circuit.Value(nil), s.values...),
		Activity:      append([]uint64(nil), s.activity...),
	}, nil
}

// Run is a convenience wrapper: build a simulator and run it.
func Run(c *circuit.Circuit, cfg Config) (Result, error) {
	s, err := New(c, cfg)
	if err != nil {
		return Result{}, err
	}
	return s.Run()
}

// RunVec executes the vectored oracle: the scalar Config drives all lanes,
// lane s substituting StimulusSeed+s.
func RunVec(c *circuit.Circuit, cfg Config) (VecResult, error) {
	s, err := newSim(c, cfg, Vector())
	if err != nil {
		return VecResult{}, err
	}
	s.run()
	return VecResult{
		Events:        s.events,
		Evaluations:   s.evaluations,
		EndTime:       s.endTime,
		OutputValues:  s.outputValues(),
		OutputHistory: s.history,
		FinalValues:   s.values,
	}, nil
}

func (s *sim[V]) schedule(t int64, gate, driver int, v V) {
	minheap.Push(&s.queue, event[V]{t: t, gate: gate, driver: driver, val: v}, eventLess[V])
}

func (s *sim[V]) run() {
	for cycle := 0; cycle < s.cfg.Cycles; cycle++ {
		base := int64(cycle) * s.cfg.ClockPeriod
		if cycle%s.cfg.StimulusEvery == 0 {
			for idx, in := range s.c.Inputs {
				// The hotspot window depends only on (input, cycle), so all
				// lanes share one stimulus schedule — the property that keeps
				// the vectored event stream the union of the lanes'.
				if s.cfg.Hotspot && !HotspotActive(len(s.c.Inputs), s.cfg.HotspotFraction, idx, cycle) {
					continue
				}
				s.schedule(base, in, -1, s.lanes.Stimulus(s.cfg.StimulusSeed, idx, cycle))
			}
		}
		// The rising edge arrives mid-cycle, after the stimulus wave has
		// settled; DFFs latch via self-events.
		edge := base + s.cfg.ClockPeriod/2
		for _, ff := range s.c.FlipFlops {
			s.schedule(edge, ff, -2, s.lanes.X)
		}
	}

	for len(s.queue) > 0 {
		s.step(s.queue[0].t)
	}
}

// step processes every event with timestamp t: apply all pin updates, then
// evaluate each affected gate once with its final inputs.
func (s *sim[V]) step(t int64) {
	s.endTime = t
	clear(s.scratch)
	clocked := make(map[int]struct{})
	for len(s.queue) > 0 && s.queue[0].t == t {
		ev := minheap.Pop(&s.queue, eventLess[V])
		s.events++
		switch ev.driver {
		case -1: // stimulus at a primary input
			s.evaluated(ev.gate)
			s.update(t, ev.gate, ev.val)
		case -2: // clock edge at a DFF
			clocked[ev.gate] = struct{}{}
		default: // signal arrival: update every pin fed by this driver
			for _, pin := range s.pins[ev.gate][ev.driver] {
				s.inputs[ev.gate][pin] = ev.val
			}
			s.scratch[ev.gate] = struct{}{}
		}
	}

	// Evaluate affected gates in ID order (determinism; the order is
	// immaterial to the results because inputs are already final).
	for _, id := range sortedIDs(s.scratch) {
		g := s.c.Gates[id]
		if g.Type == circuit.DFF {
			continue // DFFs change only on clock edges
		}
		s.evaluated(id)
		s.update(t, id, s.lanes.Eval(g.Type, s.inputs[id]))
	}
	// Clock edges latch after signal updates of the same instant (no ties
	// occur under MinClockPeriod; the rule exists for user-chosen periods).
	// Q publishes the latched D through the normal output path, delivered
	// with sender delay.
	for _, ff := range sortedIDs(clocked) {
		s.evaluated(ff)
		s.update(t, ff, s.inputs[ff][0])
	}
}

// sortedIDs returns the gate IDs in set in increasing order.
func sortedIDs(set map[int]struct{}) []int {
	ids := slices.AppendSeq(make([]int, 0, len(set)), maps.Keys(set))
	slices.Sort(ids)
	return ids
}

// evaluated counts one evaluation of gate id and burns its grain.
func (s *sim[V]) evaluated(id int) {
	if s.grain > 0 {
		Burn(s.grain)
	}
	s.evaluations++
	s.activity[id]++
}

// update sets gate id's output to v at time t. The lanes that changed enter
// the output history (primary outputs only), and a change in any lane is
// sent to the fanout one sender delay later.
func (s *sim[V]) update(t int64, id int, v V) {
	changed := s.lanes.Diff(v, s.values[id])
	if changed == 0 {
		return
	}
	s.values[id] = v
	if idx, ok := s.outIdx[id]; ok {
		for m := changed; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			s.history[lane] += OutputHash(t, idx, s.lanes.Lane(v, lane))
		}
	}
	g := s.c.Gates[id]
	if g.Type == circuit.Output {
		return
	}
	delay := GateDelay(g)
	for _, d := range s.fanout[id] {
		s.schedule(t+delay, d, id, v)
	}
}

func (s *sim[V]) outputValues() []V {
	out := make([]V, len(s.c.Outputs))
	for i, id := range s.c.Outputs {
		out[i] = s.values[id]
	}
	return out
}

// Burn spins the CPU for iters iterations of an integer recurrence; it
// models the per-evaluation cost of a heavyweight logical process. The
// final comparison keeps the loop observable without any shared state
// (goroutine-safe, race-free).
func Burn(iters int) {
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	if x == 1 {
		panic("seqsim: unreachable burn sentinel")
	}
}

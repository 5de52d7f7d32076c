package seqsim

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
)

func TestStimulusBitDeterministic(t *testing.T) {
	if StimulusBit(1, 2, 3) != StimulusBit(1, 2, 3) {
		t.Fatal("StimulusBit not deterministic")
	}
	// Bits must be reasonably balanced over many draws.
	ones := 0
	for i := 0; i < 4096; i++ {
		if StimulusBit(42, i%7, i) == circuit.One {
			ones++
		}
	}
	if ones < 1600 || ones > 2500 {
		t.Errorf("stimulus bias: %d/4096 ones", ones)
	}
}

func TestStimulusBitVariesByArgs(t *testing.T) {
	same := 0
	for i := 0; i < 256; i++ {
		if StimulusBit(1, 0, i) == StimulusBit(2, 0, i) {
			same++
		}
	}
	if same > 200 {
		t.Errorf("seed barely matters: %d/256 equal", same)
	}
}

func TestOutputHashOrderInsensitiveSum(t *testing.T) {
	a := OutputHash(10, 1, circuit.One)
	b := OutputHash(20, 2, circuit.Zero)
	if a+b != b+a {
		t.Fatal("addition not commutative?!")
	}
	if OutputHash(10, 1, circuit.One) == OutputHash(10, 2, circuit.One) {
		t.Error("hash collision across output indices")
	}
	if OutputHash(10, 1, circuit.One) == OutputHash(11, 1, circuit.One) {
		t.Error("hash collision across times")
	}
}

func TestRunCombinationalAdder(t *testing.T) {
	c, err := circuit.RippleCarryAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, Config{Cycles: 8, StimulusSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 || res.Evaluations == 0 {
		t.Fatalf("no activity: %+v", res)
	}
	// After random stimulus every output must be a concrete value.
	for i, v := range res.OutputValues {
		if v != circuit.Zero && v != circuit.One {
			t.Errorf("output %d = %v, want concrete", i, v)
		}
	}
}

// TestAdderComputesSums drives the adder with chosen vectors by exploiting
// the deterministic stimulus: rather than forcing vectors, we recompute the
// expected sum from the stimulus function and compare the final outputs.
func TestAdderComputesSums(t *testing.T) {
	const bits = 5
	c, err := circuit.RippleCarryAdder(bits)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cycles: 6, StimulusSeed: 77}
	res, err := Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the last-cycle input vector. Input order in the circuit is
	// a0,b0,a1,b1,...,cin.
	lastCycle := cfg.Cycles - 1
	bit := func(idx int) uint64 {
		if StimulusBit(cfg.StimulusSeed, idx, lastCycle) == circuit.One {
			return 1
		}
		return 0
	}
	var a, b, cin uint64
	for i := 0; i < bits; i++ {
		a |= bit(2*i) << i
		b |= bit(2*i+1) << i
	}
	cin = bit(2 * bits)
	sum := a + b + cin
	for i := 0; i < bits; i++ {
		want := circuit.Zero
		if (sum>>i)&1 == 1 {
			want = circuit.One
		}
		if res.OutputValues[i] != want {
			t.Errorf("s%d = %v, want %v (a=%d b=%d cin=%d)", i, res.OutputValues[i], want, a, b, cin)
		}
	}
	wantCout := circuit.Zero
	if (sum>>bits)&1 == 1 {
		wantCout = circuit.One
	}
	if res.OutputValues[bits] != wantCout {
		t.Errorf("cout = %v, want %v", res.OutputValues[bits], wantCout)
	}
}

// TestLFSRAdvances: an enabled LFSR must change state across cycles and
// settle on concrete values once the X state flushes.
func TestLFSRAdvances(t *testing.T) {
	c, err := circuit.LFSR(8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, Config{Cycles: 20, StimulusSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	concrete := 0
	for _, v := range res.OutputValues {
		if v == circuit.Zero || v == circuit.One {
			concrete++
		}
	}
	if concrete < 4 {
		t.Errorf("only %d/8 LFSR outputs concrete after 20 cycles", concrete)
	}
	if res.Events < 100 {
		t.Errorf("suspiciously few events: %d", res.Events)
	}
}

func TestRunDeterministic(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "d200", Inputs: 6, Gates: 200, Outputs: 5, FlipFlops: 10, Seed: 2,
	})
	r1, err := Run(c, Config{Cycles: 10, StimulusSeed: 4})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(c, Config{Cycles: 10, StimulusSeed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Events != r2.Events || r1.OutputHistory != r2.OutputHistory {
		t.Error("same config produced different runs")
	}
	r3, err := Run(c, Config{Cycles: 10, StimulusSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r1.OutputHistory == r3.OutputHistory {
		t.Error("different stimulus produced identical history")
	}
}

func TestMoreCyclesMoreEvents(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "d300", Inputs: 8, Gates: 300, Outputs: 5, FlipFlops: 20, Seed: 3,
	})
	short, err := Run(c, Config{Cycles: 4, StimulusSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	long, err := Run(c, Config{Cycles: 16, StimulusSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if long.Events <= short.Events {
		t.Errorf("16 cycles (%d events) not more than 4 cycles (%d)", long.Events, short.Events)
	}
}

func TestStimulusEvery(t *testing.T) {
	c, err := circuit.RippleCarryAdder(4)
	if err != nil {
		t.Fatal(err)
	}
	every1, err := Run(c, Config{Cycles: 8, StimulusSeed: 6, StimulusEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	every4, err := Run(c, Config{Cycles: 8, StimulusSeed: 6, StimulusEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if every4.Events >= every1.Events {
		t.Errorf("sparser stimulus should mean fewer events: %d vs %d", every4.Events, every1.Events)
	}
}

func TestMinClockPeriod(t *testing.T) {
	c, err := circuit.RippleCarryAdder(8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := MinClockPeriod(c)
	if err != nil {
		t.Fatal(err)
	}
	depth, _ := c.Depth()
	if p < int64(depth) {
		t.Errorf("period %d below depth %d", p, depth)
	}
}

func TestConfigValidation(t *testing.T) {
	c, _ := circuit.RippleCarryAdder(2)
	if _, err := Run(c, Config{Cycles: 2, ClockPeriod: 1}); err == nil {
		t.Error("period 1 accepted")
	}
}

func TestGateDelayNormalized(t *testing.T) {
	g := &circuit.Gate{Delay: 0}
	if GateDelay(g) != 1 {
		t.Error("zero delay not normalized")
	}
	g.Delay = 5
	if GateDelay(g) != 5 {
		t.Error("explicit delay altered")
	}
}

// TestGateWiring: a driver feeding pins 0 and 2 of a reader sets both and
// leaves pin 1 alone, the reader appears once in the driver's fanout (readers
// in first-seen order), and in a timestep where the clock edge ties with
// signal arrivals a gate hit by two drivers and a clocked DFF are each
// evaluated once, the DFF latching the value that arrived at its own edge.
func TestGateWiring(t *testing.T) {
	c := circuit.New("wiring")
	a := c.MustAddGate("a", circuit.Input)
	b := c.MustAddGate("b", circuit.Input)
	and := c.MustAddGate("and", circuit.And)
	ff := c.MustAddGate("ff", circuit.DFF)
	out := c.MustAddGate("out", circuit.Output)
	c.MustConnect(a.ID, and.ID)
	c.MustConnect(b.ID, and.ID)
	c.MustConnect(a.ID, ff.ID)
	c.MustConnect(a.ID, and.ID)
	c.MustConnect(and.ID, out.ID)

	inputs := []circuit.Value{circuit.Zero, circuit.Zero, circuit.Zero}
	SetPins(inputs, and.Fanin, a.ID, circuit.One)
	if want := []circuit.Value{circuit.One, circuit.Zero, circuit.One}; !reflect.DeepEqual(inputs, want) {
		t.Errorf("pins of and after a = %v, want %v", inputs, want)
	}
	fanout := GateFanout(c)
	if got := fanout[a.ID]; !reflect.DeepEqual(got, []int{and.ID, ff.ID}) {
		t.Errorf("fanout of a = %v, want [%d %d]", got, and.ID, ff.ID)
	}
	if got := fanout[out.ID]; len(got) != 0 {
		t.Errorf("fanout of out = %v, want none", got)
	}

	// Period 2 puts the clock edge at t=1, where and gets a's and b's
	// stimulus and ff gets a's. t=0: stimulus a, b; t=1: a→and, b→and,
	// a→ff, edge ff; t=2: and→out.
	res, err := Run(c, Config{Cycles: 1, ClockPeriod: 2, StimulusSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 7 || res.Evaluations != 5 {
		t.Errorf("events, evaluations = %d, %d, want 7, 5", res.Events, res.Evaluations)
	}
	if want := []uint64{1, 1, 1, 1, 1}; !reflect.DeepEqual(res.Activity, want) {
		t.Errorf("activity = %v, want %v", res.Activity, want)
	}
	if got, want := res.FinalValues[ff.ID], res.FinalValues[a.ID]; got != want {
		t.Errorf("ff latched %v, want a's %v", got, want)
	}
}

// TestQuickDeterminism: property test — any (seed, cycles) pair gives
// identical results on repeated runs.
func TestQuickDeterminism(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "q100", Inputs: 4, Gates: 100, Outputs: 3, FlipFlops: 8, Seed: 13,
	})
	f := func(seed int64, cyc uint8) bool {
		cfg := Config{Cycles: 1 + int(cyc%12), StimulusSeed: seed}
		r1, err1 := Run(c, cfg)
		r2, err2 := Run(c, cfg)
		if err1 != nil || err2 != nil {
			return false
		}
		return r1.Events == r2.Events && r1.OutputHistory == r2.OutputHistory
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGrainBurn(t *testing.T) {
	c, _ := circuit.RippleCarryAdder(2)
	s, err := New(c, Config{Cycles: 2, StimulusSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.SetGrain(10)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(c, Config{Cycles: 2, StimulusSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != plain.Events || res.OutputHistory != plain.OutputHistory {
		t.Error("grain changed simulation semantics")
	}
}

// TestAllocsIndependentOfLength: once the event queue and the per-timestep
// lists reach their peak size, the oracle allocates nothing per event or per
// timestep, so running 16 times as many cycles costs only a few more
// allocations (the queue's last doublings), not thousands.
func TestAllocsIndependentOfLength(t *testing.T) {
	c, err := circuit.NewBenchmark("s9234", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	const slack = 32
	for _, tc := range []struct {
		name string
		run  func(cycles int) error
	}{
		{"scalar", func(cycles int) error { _, err := Run(c, Config{Cycles: cycles, StimulusSeed: 1}); return err }},
		{"vectored", func(cycles int) error { _, err := RunVec(c, Config{Cycles: cycles, StimulusSeed: 1}); return err }},
	} {
		allocs := func(cycles int) float64 {
			return testing.AllocsPerRun(2, func() {
				if err := tc.run(cycles); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := allocs(10), allocs(160)
		if long-short > slack {
			t.Errorf("%s: %v allocations at 10 cycles, %v at 160: more than %d apart", tc.name, short, long, slack)
		}
	}
}

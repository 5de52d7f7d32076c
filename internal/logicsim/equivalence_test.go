package logicsim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/seqsim"
)

// testCircuits returns small, varied circuits for equivalence checks.
func testCircuits(t *testing.T) []*circuit.Circuit {
	t.Helper()
	adder, err := circuit.RippleCarryAdder(8)
	if err != nil {
		t.Fatalf("adder: %v", err)
	}
	lfsr, err := circuit.LFSR(16)
	if err != nil {
		t.Fatalf("lfsr: %v", err)
	}
	gen, err := circuit.Generate(circuit.GenSpec{
		Name: "gen300", Inputs: 8, Gates: 300, Outputs: 6, FlipFlops: 24, Seed: 7,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return []*circuit.Circuit{adder, lfsr, gen}
}

func partitioners() []partition.Partitioner {
	return []partition.Partitioner{
		partition.Random{Seed: 11},
		partition.Topological{},
		partition.DepthFirst{},
		partition.Cluster{},
		partition.Cone{},
		core.New(13),
	}
}

// TestParallelMatchesSequential is the core integration test: for every test
// circuit, every partitioner, and several node counts, the Time Warp run
// must commit exactly the events of the sequential oracle and reproduce its
// output history and final state.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, c := range testCircuits(t) {
		cfg := seqsim.Config{Cycles: 12, StimulusSeed: 99}
		want, err := seqsim.Run(c, cfg)
		if err != nil {
			t.Fatalf("%s: seqsim: %v", c.Name, err)
		}
		if want.Events == 0 {
			t.Fatalf("%s: sequential run processed no events", c.Name)
		}
		for _, p := range partitioners() {
			for _, k := range []int{1, 2, 3, 5} {
				t.Run(fmt.Sprintf("%s/%s/k=%d", c.Name, p.Name(), k), func(t *testing.T) {
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
					checkResult(t, got, want)
				})
			}
		}
	}
}

// checkResult holds a scalar parallel run to the oracle: the same committed
// events, output history, output values and final gate values.
func checkResult(t *testing.T, got Result, want seqsim.Result) {
	t.Helper()
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
}

// TestShortClockPeriodsMatchSequential runs the oracle comparison at
// user-chosen clock periods below MinClockPeriod. There clock edges tie with
// signal arrivals, so one timestep can bring a gate several drivers and a
// DFF its D input and its clock edge together; both simulators must apply
// every arrival, then evaluate each gate once and latch each DFF once.
func TestShortClockPeriodsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, c := range testCircuits(t) {
		minPeriod, err := seqsim.MinClockPeriod(c)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for _, period := range []int64{2, 3, 4, 7, minPeriod / 2} {
			cfg := seqsim.Config{Cycles: 12, ClockPeriod: period, StimulusSeed: 41}
			want, err := seqsim.Run(c, cfg)
			if err != nil {
				t.Fatalf("%s: seqsim: %v", c.Name, err)
			}
			wantVec, err := seqsim.RunVec(c, cfg)
			if err != nil {
				t.Fatalf("%s: seqsim vec: %v", c.Name, err)
			}
			for _, k := range []int{1, 2, 3} {
				a, err := partition.Random{Seed: 11}.Partition(c, k)
				if err != nil {
					t.Fatalf("partition: %v", err)
				}
				for _, vectors := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s/period=%d/k=%d/vectors=%v", c.Name, period, k, vectors), func(t *testing.T) {
						got, err := Run(c, a, Config{
							Cycles:       cfg.Cycles,
							ClockPeriod:  period,
							StimulusSeed: cfg.StimulusSeed,
							Vectors:      vectors,
						})
						if err != nil {
							t.Fatalf("logicsim: %v", err)
						}
						if !vectors {
							checkResult(t, got, want)
							return
						}
						if got.CommittedEvents != wantVec.Events {
							t.Errorf("committed events = %d, vectored sequential = %d", got.CommittedEvents, wantVec.Events)
						}
						if !slices.Equal(got.VecOutputHistory, wantVec.OutputHistory) {
							t.Errorf("output history = %#x, vectored sequential = %#x", got.VecOutputHistory, wantVec.OutputHistory)
						}
						if !slices.Equal(got.VecOutputValues, wantVec.OutputValues) {
							t.Errorf("output values differ from the vectored sequential run")
						}
						if !slices.Equal(got.VecFinalValues, wantVec.FinalValues) {
							t.Errorf("final values differ from the vectored sequential run")
						}
					})
				}
			}
		}
	}
}

// TestLazyCancellationMatches runs the same equivalence under lazy
// cancellation.
func TestLazyCancellationMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "lazy200", Inputs: 6, Gates: 200, Outputs: 5, FlipFlops: 16, Seed: 21,
	})
	cfg := seqsim.Config{Cycles: 10, StimulusSeed: 5}
	want, err := seqsim.Run(c, cfg)
	if err != nil {
		t.Fatalf("seqsim: %v", err)
	}
	a, err := core.New(3).Partition(c, 4)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	got, err := Run(c, a, Config{Cycles: cfg.Cycles, StimulusSeed: cfg.StimulusSeed, LazyCancellation: true})
	if err != nil {
		t.Fatalf("logicsim: %v", err)
	}
	if got.CommittedEvents != want.Events {
		t.Errorf("committed events = %d, sequential = %d", got.CommittedEvents, want.Events)
	}
	if got.OutputHistory != want.OutputHistory {
		t.Errorf("output history = %#x, sequential = %#x", got.OutputHistory, want.OutputHistory)
	}
}

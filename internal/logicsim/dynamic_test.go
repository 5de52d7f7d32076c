package logicsim

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/seqsim"
)

// TestDynamicHotspotMatrix is the determinism suite for GVT-synchronized LP
// migration: the hotspot workload (activity in a rotating cone of the
// circuit) runs with dynamic rebalancing forced on aggressively — rebalance
// every advancing GVT round, no imbalance threshold — for every partitioner
// and 2/8 clusters. Whatever the migrations do
// to placement, the run must commit exactly the sequential oracle's events
// and reproduce its output history and final state: migration must never
// change committed results. The suite also requires that migrations actually
// happened somewhere, so the matrix cannot silently degenerate into a
// static-placement test.
func TestDynamicHotspotMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "hot240", Inputs: 12, Gates: 240, Outputs: 6, FlipFlops: 14, Seed: 52,
	})
	cfg := seqsim.Config{Cycles: 12, StimulusSeed: 99, Hotspot: true, HotspotFraction: 0.25}
	want, err := seqsim.Run(c, cfg)
	if err != nil {
		t.Fatalf("seqsim: %v", err)
	}
	if want.Events == 0 {
		t.Fatal("sequential hotspot run processed no events")
	}
	var migrations uint64
	for _, p := range partitioners() {
		for _, k := range []int{2, 8} {
			name := fmt.Sprintf("%s/%s/k=%d", p.Name(), aggressiveRow, k)
			t.Run(name, func(t *testing.T) {
				a, err := p.Partition(c, k)
				if err != nil {
					t.Fatalf("partition: %v", err)
				}
				got, err := Run(c, a, Config{
					Cycles:           cfg.Cycles,
					StimulusSeed:     cfg.StimulusSeed,
					Hotspot:          true,
					HotspotFraction:  cfg.HotspotFraction,
					DynamicRebalance: true,
					// Migration-heavy settings: frequent GVT rounds, a
					// rebalance decision at every advance, migrate on any
					// imbalance.
					GVTPeriodEvents:       128,
					RebalancePeriodRounds: 1,
					RebalanceImbalance:    1.0,
				})
				if err != nil {
					t.Fatalf("logicsim: %v", err)
				}
				migrations += got.Stats.Migrations
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
	if migrations == 0 {
		t.Error("no configuration migrated a single LP; the matrix did not exercise migration")
	}
}

// TestHotspotOracleEquivalence checks the hotspot stimulus itself (without
// dynamic rebalancing): a static parallel run of the rotating-cone workload
// must match the oracle exactly, including the reduced event count (inactive
// inputs receive no stimulus).
func TestHotspotOracleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "hot150", Inputs: 10, Gates: 150, Outputs: 4, FlipFlops: 8, Seed: 17,
	})
	uniform, err := seqsim.Run(c, seqsim.Config{Cycles: 8, StimulusSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := seqsim.Run(c, seqsim.Config{Cycles: 8, StimulusSeed: 5, Hotspot: true, HotspotFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if hot.Events >= uniform.Events {
		t.Errorf("hotspot run has %d events, uniform %d: the window did not thin the stimulus",
			hot.Events, uniform.Events)
	}
	for _, k := range []int{1, 4} {
		a, err := partitioners()[0].Partition(c, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(c, a, Config{
			Cycles: 8, StimulusSeed: 5, Hotspot: true, HotspotFraction: 0.2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.CommittedEvents != hot.Events || got.OutputHistory != hot.OutputHistory {
			t.Errorf("k=%d: parallel hotspot run committed=%d history=%#x, oracle committed=%d history=%#x",
				k, got.CommittedEvents, got.OutputHistory, hot.Events, hot.OutputHistory)
		}
	}
}

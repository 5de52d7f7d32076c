package logicsim

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/partition"
	"repro/internal/seqsim"
)

// TestBackpressureTinyInbox pins the transport's backpressure behavior at
// the application level: with mailbox capacities of 1 and 2 — every batch
// flush refused until the destination drains — a gate-level run must
// neither deadlock nor diverge from the sequential oracle's committed
// events and output history. A max-cut random
// partition keeps anti-messages and stragglers flowing through the
// backpressured mailboxes.
func TestBackpressureTinyInbox(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "bp240", Inputs: 8, Gates: 240, Outputs: 6, FlipFlops: 20, Seed: 33,
	})
	cfg := seqsim.Config{Cycles: 8, StimulusSeed: 17}
	want, err := seqsim.Run(c, cfg)
	if err != nil {
		t.Fatalf("seqsim: %v", err)
	}
	a, err := partition.Random{Seed: 5}.Partition(c, 4)
	if err != nil {
		t.Fatalf("partition: %v", err)
	}
	for _, inbox := range []int{1, 2} {
		t.Run(fmt.Sprintf("%s/inbox=%d", aggressiveRow, inbox), func(t *testing.T) {
			got, err := Run(c, a, Config{
				Cycles:       cfg.Cycles,
				StimulusSeed: cfg.StimulusSeed,
				InboxSize:    inbox,
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
		})
	}
}

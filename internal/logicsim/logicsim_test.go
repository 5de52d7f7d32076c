package logicsim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/seqsim"
)

func onePartition(t testing.TB, c *circuit.Circuit) partition.Assignment {
	t.Helper()
	return partition.Assignment{Parts: make([]int, c.NumGates()), K: 1}
}

// TestSingleNodeNoRollbacksNoRemote: on one node the optimistic simulator
// degenerates to sequential execution.
func TestSingleNodeNoRollbacksNoRemote(t *testing.T) {
	c, err := circuit.RippleCarryAdder(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, onePartition(t, c), Config{Cycles: 6, StimulusSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rollbacks != 0 {
		t.Errorf("rollbacks on one node: %d", res.Stats.Rollbacks)
	}
	if res.Stats.RemoteMessages != 0 {
		t.Errorf("remote messages on one node: %d", res.Stats.RemoteMessages)
	}
	if res.CommittedEvents == 0 {
		t.Error("no events committed")
	}
}

// TestRunValidatesInputs: bad assignments and configs are rejected.
func TestRunValidatesInputs(t *testing.T) {
	c, err := circuit.RippleCarryAdder(2)
	if err != nil {
		t.Fatal(err)
	}
	bad := partition.Assignment{Parts: make([]int, 3), K: 1} // wrong length
	if _, err := Run(c, bad, Config{Cycles: 1}); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := Run(c, onePartition(t, c), Config{Cycles: 1, ClockPeriod: 1}); err == nil {
		t.Error("degenerate clock period accepted")
	}
	wide := circuit.New("wide")
	and := wide.MustAddGate("and", circuit.And)
	for i := 0; i <= maxPins; i++ {
		in := wide.MustAddGate(fmt.Sprintf("in%d", i), circuit.Input)
		wide.MustConnect(in.ID, and.ID)
	}
	wide.MustConnect(and.ID, wide.MustAddGate("out", circuit.Output).ID)
	if _, err := Run(wide, onePartition(t, wide), Config{Cycles: 1}); err == nil {
		t.Errorf("gate with %d pins accepted", maxPins+1)
	}
}

// TestGrainDoesNotChangeSemantics: the execution-cost model must leave all
// committed results identical.
func TestGrainDoesNotChangeSemantics(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "g150", Inputs: 5, Gates: 150, Outputs: 4, FlipFlops: 10, Seed: 3,
	})
	a, err := core.New(1).Partition(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(c, a, Config{Cycles: 6, StimulusSeed: 8})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := Run(c, a, Config{Cycles: 6, StimulusSeed: 8, Grain: 3000, NetSendBusy: 2000, NetRecvBusy: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if base.CommittedEvents != heavy.CommittedEvents || base.OutputHistory != heavy.OutputHistory {
		t.Error("grain/net cost changed simulation results")
	}
}

// TestWindowAndLatencyPreserveResults: the full performance model stack
// (window + latency + costs) never changes committed semantics.
func TestWindowAndLatencyPreserveResults(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "g200w", Inputs: 6, Gates: 200, Outputs: 4, FlipFlops: 14, Seed: 9,
	})
	want, err := seqsim.Run(c, seqsim.Config{Cycles: 8, StimulusSeed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := partition.Random{Seed: 4}.Partition(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(c, a, Config{
		Cycles:         8,
		StimulusSeed:   2,
		OptimismCycles: 0.25,
		NetLatency:     150 * time.Microsecond,
		NetSendBusy:    1000,
		NetRecvBusy:    1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.CommittedEvents != want.Events || got.OutputHistory != want.OutputHistory {
		t.Errorf("performance models changed results: events %d/%d history %#x/%#x",
			got.CommittedEvents, want.Events, got.OutputHistory, want.OutputHistory)
	}
}

// TestStimulusEveryMatchesSequential: sparse stimulus is honored identically
// by both simulators.
func TestStimulusEveryMatchesSequential(t *testing.T) {
	c, err := circuit.LFSR(12)
	if err != nil {
		t.Fatal(err)
	}
	cfg := seqsim.Config{Cycles: 12, StimulusSeed: 5, StimulusEvery: 3}
	want, err := seqsim.Run(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := partition.DepthFirst{}.Partition(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(c, a, Config{Cycles: cfg.Cycles, StimulusSeed: cfg.StimulusSeed, StimulusEvery: cfg.StimulusEvery})
	if err != nil {
		t.Fatal(err)
	}
	if got.CommittedEvents != want.Events {
		t.Errorf("committed %d, sequential %d", got.CommittedEvents, want.Events)
	}
	if got.OutputHistory != want.OutputHistory {
		t.Errorf("output history mismatch")
	}
}

// TestFinalValuesShape: result slices cover the circuit.
func TestFinalValuesShape(t *testing.T) {
	c, err := circuit.RippleCarryAdder(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, onePartition(t, c), Config{Cycles: 3, StimulusSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalValues) != c.NumGates() {
		t.Errorf("final values cover %d of %d gates", len(res.FinalValues), c.NumGates())
	}
	if len(res.OutputValues) != len(c.Outputs) {
		t.Errorf("output values cover %d of %d outputs", len(res.OutputValues), len(c.Outputs))
	}
}

// TestEfficiencyMetricsConsistent: committed = processed - rolledback, and
// committed events equal the sequential event count even under contention.
func TestEfficiencyMetricsConsistent(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "g400e", Inputs: 10, Gates: 400, Outputs: 6, FlipFlops: 30, Seed: 11,
	})
	want, err := seqsim.Run(c, seqsim.Config{Cycles: 10, StimulusSeed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 6} {
		a, err := partition.Topological{}.Partition(c, k)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, a, Config{Cycles: 10, StimulusSeed: 13})
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stats
		if s.EventsProcessed-s.EventsRolledBack != s.EventsCommitted {
			t.Errorf("k=%d: processed-rolledback=%d != committed=%d",
				k, s.EventsProcessed-s.EventsRolledBack, s.EventsCommitted)
		}
		if s.EventsCommitted != want.Events {
			t.Errorf("k=%d: committed=%d, sequential=%d", k, s.EventsCommitted, want.Events)
		}
	}
}

// TestActivityProfileMatchesCommits: seqsim's activity profile sums to its
// evaluation count and covers exactly the active gates.
func TestActivityProfileMatchesCommits(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "g120a", Inputs: 5, Gates: 120, Outputs: 4, FlipFlops: 8, Seed: 17,
	})
	res, err := seqsim.Run(c, seqsim.Config{Cycles: 6, StimulusSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Activity) != c.NumGates() {
		t.Fatalf("activity covers %d of %d gates", len(res.Activity), c.NumGates())
	}
	var sum uint64
	for _, a := range res.Activity {
		sum += a
	}
	if sum != res.Evaluations {
		t.Errorf("activity sum %d != evaluations %d", sum, res.Evaluations)
	}
	active := 0
	for _, a := range res.Activity {
		if a > 0 {
			active++
		}
	}
	if active == 0 {
		t.Error("no gate recorded activity")
	}
}

package logicsim

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/partition"
	"repro/internal/timewarp"
)

// Stall accounting, one numbered test per signal. Each asserts only what its
// configuration makes logically necessary; none reads a clock.

// stallRun simulates a fixed generated circuit at k clusters with the given
// optimism window (in clock cycles; 0 is unbounded) and returns the kernel
// statistics after checking the bookkeeping invariant between the counters.
func stallRun(t *testing.T, k int, window float64) timewarp.RunStats {
	t.Helper()
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "g400s", Inputs: 10, Gates: 400, Outputs: 6, FlipFlops: 30, Seed: 11,
	})
	a, err := partition.Topological{}.Partition(c, k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, a, Config{Cycles: 10, StimulusSeed: 13, OptimismCycles: window})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Stats; s.StallTimerWakes > s.Stalls {
		t.Fatalf("stall timer wakes %d exceed stalls %d", s.StallTimerWakes, s.Stalls)
	}
	return res.Stats
}

// TestStallSignal1SingleCluster: at k=1 the optimism window is off, so the
// cluster never stalls on it.
func TestStallSignal1SingleCluster(t *testing.T) {
	if s := stallRun(t, 1, 0.01); s.Stalls != 0 {
		t.Errorf("k=1: %d stalls, want 0", s.Stalls)
	}
}

// TestStallSignal2UnboundedWindow: window 0 imposes no horizon, so no
// cluster stalls on it.
func TestStallSignal2UnboundedWindow(t *testing.T) {
	if s := stallRun(t, 2, 0); s.Stalls != 0 {
		t.Errorf("window 0: %d stalls, want 0", s.Stalls)
	}
}

// TestStallSignal3TightWindow: a window of 0.01 cycle (one time unit) at
// k=2 leaves the cluster that runs ahead waiting on the other one.
func TestStallSignal3TightWindow(t *testing.T) {
	if s := stallRun(t, 2, 0.01); s.Stalls == 0 {
		t.Error("window 0.01 at k=2: no stalls")
	}
}

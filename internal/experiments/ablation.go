package experiments

import (
	"fmt"
	"io"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/seqsim"
)

// AblationStudy covers the multilevel partitioner's and the kernel's main
// design choices: the refiner (greedy vs FM vs none), the coarsening
// scheme (fanout vs heavy-edge vs profiled activity), and the cancellation
// policy (aggressive vs lazy).
// Each variant is run end-to-end so both static cut and dynamic behaviour
// (messages, rollbacks, time) are visible.
type AblationStudy struct {
	Circuit string
	K       int
	Rows    []AblationRow
}

// AblationRow is one variant's static and dynamic outcome.
type AblationRow struct {
	Variant string
	EdgeCut int
	Measurement
}

// ProfileActivity runs the sequential simulator once (without grain) and
// returns per-gate evaluation counts, the input of the paper's future-work
// activity-based coarsening.
func ProfileActivity(c *circuit.Circuit, o Options) ([]float64, error) {
	res, err := seqsim.Run(c, seqsim.Config{Cycles: o.Cycles, StimulusSeed: o.Seed})
	if err != nil {
		return nil, err
	}
	act := make([]float64, len(res.Activity))
	for i, a := range res.Activity {
		act[i] = float64(a)
	}
	return act, nil
}

// RunAblation measures every variant on one benchmark circuit.
func RunAblation(o Options, circuitName string, k int) (*AblationStudy, error) {
	o.setDefaults()
	c, err := o.benchmarkCircuit(circuitName)
	if err != nil {
		return nil, err
	}
	activity, err := ProfileActivity(c, o)
	if err != nil {
		return nil, err
	}
	st := &AblationStudy{Circuit: circuitName, K: k}

	variants := []struct {
		name string
		p    partition.Partitioner
		lazy bool
	}{
		{"greedy-refine (paper)", &core.Multilevel{Opts: core.Options{Seed: o.Seed, Refiner: core.GreedyRefine}}, false},
		{"fm-refine", &core.Multilevel{Opts: core.Options{Seed: o.Seed, Refiner: core.FMRefine}}, false},
		{"no-refine", &core.Multilevel{Opts: core.Options{Seed: o.Seed, Refiner: core.NoRefine}}, false},
		{"fanout-coarsen (paper)", &core.Multilevel{Opts: core.Options{Seed: o.Seed, Scheme: core.FanoutCoarsen}}, false},
		{"heavy-edge-coarsen", &core.Multilevel{Opts: core.Options{Seed: o.Seed, Scheme: core.HeavyEdgeCoarsen}}, false},
		{"activity-coarsen (future work)", &core.Multilevel{Opts: core.Options{Seed: o.Seed, Scheme: core.ActivityCoarsen, Activity: activity}}, false},
		{"aggressive-cancel (paper)", core.New(o.Seed), false},
		{"lazy-cancel", core.New(o.Seed), true},
	}
	for _, v := range variants {
		a, err := v.p.Partition(c, k)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", v.name, err)
		}
		cfg := o.simConfig()
		cfg.LazyCancellation = v.lazy
		m := Measurement{Algorithm: v.name, Nodes: k}
		for r := 0; r < o.Repeats; r++ {
			if _, err := runTimed(c, a, cfg, &m, r); err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", v.name, err)
			}
		}
		n := float64(o.Repeats)
		m.Seconds /= n
		m.RemoteMessages /= n
		m.Rollbacks /= n
		st.Rows = append(st.Rows, AblationRow{
			Variant:     v.name,
			EdgeCut:     partition.EdgeCut(c, a),
			Measurement: m,
		})
	}
	return st, nil
}

// WriteMarkdown renders the ablation table.
func (s *AblationStudy) WriteMarkdown(w io.Writer) error {
	fmt.Fprintf(w, "Ablation, %s, k=%d\n\n", s.Circuit, s.K)
	fmt.Fprintln(w, "| Variant | EdgeCut | Time (s) | Messages | Rollbacks |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, r := range s.Rows {
		fmt.Fprintf(w, "| %s | %d | %.3f | %.0f | %.0f |\n",
			r.Variant, r.EdgeCut, r.Seconds, r.RemoteMessages, r.Rollbacks)
	}
	return nil
}

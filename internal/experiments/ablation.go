package experiments

import (
	"fmt"
	"io"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/seqsim"
)

// AblationStudy covers the multilevel partitioner's main design choices
// against the paper's default (greedy refinement, fanout coarsening): the
// refiner (FM or none) and the coarsening scheme (heavy-edge or profiled
// activity). Each variant is run end-to-end on the aggressive-cancellation
// kernel so both static cut and dynamic behaviour (messages, rollbacks,
// time) are visible.
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

// ablationVariant is one row of the ablation: a name and the multilevel
// options it runs.
type ablationVariant struct {
	name string
	opts core.Options
}

// ablationVariants lists the paper's default configuration first, then one
// row per deviation from it.
func ablationVariants(seed int64, activity []float64) []ablationVariant {
	return []ablationVariant{
		{"paper default (greedy refine, fanout coarsen)", core.Options{Seed: seed}},
		{"fm-refine", core.Options{Seed: seed, Refiner: core.FMRefine}},
		{"no-refine", core.Options{Seed: seed, Refiner: core.NoRefine}},
		{"heavy-edge-coarsen", core.Options{Seed: seed, Scheme: core.HeavyEdgeCoarsen}},
		{"activity-coarsen (future work)", core.Options{Seed: seed, Scheme: core.ActivityCoarsen, Activity: activity}},
	}
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

	cfg := o.simConfig()
	for _, v := range ablationVariants(o.Seed, activity) {
		a, err := (&core.Multilevel{Opts: v.opts}).Partition(c, k)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", v.name, err)
		}
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

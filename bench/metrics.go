package main

import (
	"sort"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; bench_test.go holds the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median a change may lose
}

// endToEnd are the metrics a user of the simulator sees. failed_run_ratio
// (bound 0) is reported beside them from the attempted/failed counts; it is
// not a bounded metric because its healthy value is 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "events/s", "higher", 0.25},
	{"seq_events_per_s", "events/s", "higher", 0.25},
	{"allocs_per_event", "allocs/event", "lower", 0.10},
}

// perLayer are the traced pass's metrics, grouped by the layer (package)
// whose public calls they are read at.
var perLayer = []metricDef{
	{Name: "circuit.generate_s", Unit: "s", Better: "lower"},
	{Name: "circuit.gates", Unit: "count", Better: "lower"},
	{Name: "circuit.edges", Unit: "count", Better: "lower"},
	{Name: "circuit.eval_ns", Unit: "ns", Better: "lower"},
	{Name: "circuit.evalvec_ns", Unit: "ns", Better: "lower"},

	{Name: "partition.measure_s", Unit: "s", Better: "lower"},
	{Name: "partition.edge_cut", Unit: "count", Better: "lower"},
	{Name: "partition.cut_fraction", Unit: "ratio", Better: "lower"},
	{Name: "partition.imbalance", Unit: "ratio", Better: "lower"},
	{Name: "partition.concurrency", Unit: "ratio", Better: "higher"},

	{Name: "core.partition_s", Unit: "s", Better: "lower"},
	{Name: "core.levels", Unit: "count", Better: "lower"},
	{Name: "core.coarsest_size", Unit: "count", Better: "lower"},
	{Name: "core.refine_passes", Unit: "count", Better: "lower"},
	{Name: "core.final_cut", Unit: "count", Better: "lower"},

	{Name: "seqsim.run_s", Unit: "s", Better: "lower"},
	{Name: "seqsim.events", Unit: "count", Better: "lower"},
	{Name: "seqsim.evaluations", Unit: "count", Better: "lower"},
	{Name: "seqsim.ns_per_event", Unit: "ns", Better: "lower"},

	{Name: "logicsim.run_s", Unit: "s", Better: "lower"},
	{Name: "logicsim.build_s", Unit: "s", Better: "lower"},
	{Name: "logicsim.bytes_per_event", Unit: "B/event", Better: "lower"},
	{Name: "logicsim.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "logicsim.gc_pause_s", Unit: "s", Better: "lower"},
	{Name: "logicsim.speedup_vs_seq", Unit: "ratio", Better: "higher"},

	{Name: "timewarp.run_s", Unit: "s", Better: "lower"},
	{Name: "timewarp.ns_per_committed_event", Unit: "ns", Better: "lower"},
	{Name: "timewarp.k1_run_s", Unit: "s", Better: "lower"},
	{Name: "timewarp.k1_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "timewarp.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "timewarp.tcp_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "timewarp.events_processed", Unit: "count", Better: "lower"},
	{Name: "timewarp.events_committed", Unit: "count", Better: "lower"},
	{Name: "timewarp.events_rolled_back", Unit: "count", Better: "lower"},
	{Name: "timewarp.rollbacks", Unit: "count", Better: "lower"},
	{Name: "timewarp.efficiency", Unit: "ratio", Better: "higher"},
	{Name: "timewarp.rollback_depth_mean", Unit: "events", Better: "lower"},
	{Name: "timewarp.remote_messages", Unit: "count", Better: "lower"},
	{Name: "timewarp.local_messages", Unit: "count", Better: "lower"},
	{Name: "timewarp.anti_messages", Unit: "count", Better: "lower"},
	{Name: "timewarp.remote_fraction", Unit: "ratio", Better: "lower"},
	{Name: "timewarp.gvt_rounds", Unit: "count", Better: "lower"},
	{Name: "timewarp.events_per_gvt_round", Unit: "events", Better: "higher"},
	{Name: "timewarp.cluster_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "timewarp.migrations", Unit: "count", Better: "lower"},
	{Name: "timewarp.forwarded_messages", Unit: "count", Better: "lower"},
	{Name: "timewarp.rebalance_rounds", Unit: "count", Better: "lower"},

	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.span_coverage", Unit: "ratio", Better: "higher"},
	{Name: "bench.run_wall_iqr_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.seq_wall_iqr_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.num_cpu", Unit: "count", Better: "higher"},
	{Name: "bench.gomaxprocs", Unit: "count", Better: "higher"},
}

// stat is one reported metric: the median of its samples, with the spread a
// reader needs to judge it. With fewer than eleven samples no percentile
// above the median has ten samples beyond it, so none is reported.
type stat struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	IQR     float64 `json:"iqr"`
	Samples int     `json:"samples"`
}

// summarize reduces samples to their median, range and interquartile range.
func summarize(unit string, samples []float64) stat {
	s := stat{Unit: unit, Samples: len(samples)}
	if len(samples) == 0 {
		return s
	}
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	s.Value, s.Min, s.Max = median(v), v[0], v[len(v)-1]
	if len(v) >= 2 {
		q1, _, q3 := quartiles(v)
		s.IQR = q3 - q1
	}
	return s
}

// exact wraps a value that is not sampled: a count or a derived ratio.
func exact(unit string, v float64) stat {
	return stat{Value: v, Unit: unit, Min: v, Max: v, Samples: 1}
}

// iqrRatio is the interquartile range as a share of the median.
func (s stat) iqrRatio() float64 { return ratio(s.IQR, s.Value) }

// median of sorted values.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf sorts a copy of v and returns its median (0 when empty).
func medianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return median(c)
}

// quartiles of at least two sorted values, as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method), so the
// spread printed here is the spread the benchmark's driver computes.
func quartiles(sorted []float64) (q1, q2, q3 float64) {
	n := len(sorted)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

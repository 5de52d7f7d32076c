package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of one (workload, end-to-end metric) pair, B against baseline A.
const (
	within     = "within"     // B's median is no worse than A's by more than the bound
	regressed  = "regressed"  // it is worse by more than the bound
	unresolved = "unresolved" // either side's own spread is wider than the bound: no verdict
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles answers one named question per row: did this metric, on this
// workload, get worse than the baseline by more than its bound? It fails on
// any regressed row and on any simulated statistic that did not repeat.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	return compareReports(w, a, b)
}

func compareReports(w io.Writer, a, b *report) error {
	if err := comparable(a, b); err != nil {
		return fmt.Errorf("refusing to compare: %w", err)
	}
	fmt.Fprintf(w, "A: %s\nB: %s\n", a.Header, b.Header)
	bad := 0
	for i, ea := range a.Workloads {
		ra, rb := ea.EndToEnd, b.Workloads[i].EndToEnd
		name := ra.Workload.Name
		for _, d := range endToEnd {
			v, change := judge(d, ra.Metrics[d.Name], rb.Metrics[d.Name])
			fmt.Fprintf(w, "%-22s %-18s %-10s A %.6g B %.6g %s (%+.1f%%, bound %.0f%%, spread A %.1f%% B %.1f%%)\n",
				name, d.Name, v, ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value, d.Unit,
				100*change, 100*d.Bound, 100*ra.Metrics[d.Name].iqrRatio(), 100*rb.Metrics[d.Name].iqrRatio())
			if v == regressed {
				bad++
			}
		}
		// failed_run_ratio has bound 0: any rise is a regression.
		v := within
		if rb.failedRunRatio() > ra.failedRunRatio() {
			v = regressed
			bad++
		}
		fmt.Fprintf(w, "%-22s %-18s %-10s A %.4f B %.4f\n", name, "failed_run_ratio", v, ra.failedRunRatio(), rb.failedRunRatio())

		keys := make([]string, 0, len(ra.Exact))
		for k := range ra.Exact {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if ra.Exact[k] != rb.Exact[k] {
				fmt.Fprintf(w, "%-22s %-18s %-10s A %d B %d\n", name, k, "differs", ra.Exact[k], rb.Exact[k])
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d rows regressed or differ", bad)
	}
	return nil
}

// judge gives the verdict for one metric and the relative change of its
// median, signed so that positive is worse.
func judge(d metricDef, a, b stat) (verdict string, worse float64) {
	worse = ratio(b.Value-a.Value, a.Value)
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case a.iqrRatio() > d.Bound || b.iqrRatio() > d.Bound:
		return unresolved, worse
	case worse > d.Bound:
		return regressed, worse
	}
	return within, worse
}

// comparable refuses two reports that were not measured alike: another host
// shape, seed or workload parameter makes every row meaningless.
func comparable(a, b *report) error {
	ha, hb := a.Header, b.Header
	switch {
	case ha.NumCPU != hb.NumCPU:
		return fmt.Errorf("num_cpu %d vs %d", ha.NumCPU, hb.NumCPU)
	case ha.GOMAXPROCS != hb.GOMAXPROCS:
		return fmt.Errorf("gomaxprocs %d vs %d", ha.GOMAXPROCS, hb.GOMAXPROCS)
	case ha.Seed != hb.Seed:
		return fmt.Errorf("seed %d vs %d", ha.Seed, hb.Seed)
	case len(a.Workloads) != len(b.Workloads):
		return fmt.Errorf("%d workloads vs %d", len(a.Workloads), len(b.Workloads))
	}
	for i := range a.Workloads {
		ra, rb := a.Workloads[i].EndToEnd, b.Workloads[i].EndToEnd
		if ra == nil || rb == nil {
			return fmt.Errorf("workload %d has no end-to-end pass", i)
		}
		if ra.Workload != rb.Workload {
			return fmt.Errorf("workload parameters differ: %+v vs %+v", ra.Workload, rb.Workload)
		}
	}
	return nil
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// manifest is BENCHMARK.json, the contract the driver reads.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesProgram holds BENCHMARK.json and the program's own
// tables in step: same workloads and reasons, same metrics with the same
// units, directions and bounds.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Paths) != 1 || m.Paths[0] != "bench" || len(m.Command) != 2 || m.Command[1] != "bench/run.sh" {
		t.Errorf("BENCHMARK.json runs %v under %v, want bench/run.sh under bench", m.Command, m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", m.RunSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s %s: name or unit %q outside the contract's alphabet", kind, d.Name, d.Unit)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is named twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if seen[w.Name] {
			t.Errorf("name %s is used twice", w.Name)
		}
		seen[w.Name] = true
	}
}

// TestWorkloadsRunAndVerify runs both passes of every workload at a cycle or
// two and one repeat: every run must verify against the oracle and pass its
// self-checks, and each pass must emit exactly its declared metrics, each
// with its declared unit. No timing is asserted.
func TestWorkloadsRunAndVerify(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			pass := "end-to-end"
			if traced {
				pass = "traced"
			}
			t.Run(w.Name+"/"+pass, func(t *testing.T) { testPass(t, w, traced) })
		}
	}
}

func testPass(t *testing.T, w workload, traced bool) {
	opt := options{Seed: 1, MinRepeats: 1, Cycles: 2}
	switch {
	case w.Dynamic:
		opt.Cycles = 12 // two cycles end before the first rebalance decision
	case w.Vectors:
		opt.Cycles = 1 // the first cycle of s15850 settles 64 lanes of X: most of a run
	}
	if traced {
		opt.OutDir = t.TempDir()
	}
	res, err := runWorkload(w, traced, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() || res.Repeats != 1 {
		t.Errorf("%d of %d runs failed over %d repeats: %v", res.Failed, res.Attempted, res.Repeats, res.Failures)
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(want))
	}
	for _, d := range want {
		s, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("metric %s not emitted", d.Name)
		} else if s.Unit != d.Unit {
			t.Errorf("metric %s has unit %q, declared %q", d.Name, s.Unit, d.Unit)
		}
		if !traced && s.Value <= 0 {
			t.Errorf("end-to-end metric %s is %v, must never be 0", d.Name, s.Value)
		}
	}
	if traced {
		if _, err := os.Stat(opt.OutDir + "/trace-" + w.Name + ".jsonl"); err != nil {
			t.Errorf("trace not written: %v", err)
		}
	}
}

// TestSelfChecksRejectWrongRuns feeds the verifier and the self-checks runs
// that are wrong in each way they guard against.
func TestSelfChecksRejectWrongRuns(t *testing.T) {
	want := oracle{events: 10, history: 7, laneHistory: []uint64{7, 8}}
	good := parallelRun{committed: 10, history: 7, laneHistory: []uint64{7, 8}}
	if err := verify(good, want); err != nil {
		t.Errorf("matching run rejected: %v", err)
	}
	for name, r := range map[string]parallelRun{
		"committed": {committed: 9, history: 7, laneHistory: []uint64{7, 8}},
		"history":   {committed: 10, history: 6, laneHistory: []uint64{7, 8}},
		"lane":      {committed: 10, history: 7, laneHistory: []uint64{7, 9}},
		"lanes":     {committed: 10, history: 7},
	} {
		if verify(r, want) == nil {
			t.Errorf("run with wrong %s verified", name)
		}
	}

	k1 := workload{K: 1}
	rolled := parallelRun{}
	rolled.stats.Rollbacks = 1
	if selfCheck(k1, rolled) == nil {
		t.Error("k=1 run with a rollback passed")
	}
	if selfCheck(workload{K: 2, Dynamic: true}, parallelRun{}) == nil {
		t.Error("dynamic run without migrations passed")
	}
	if selfCheck(workload{K: 2, Transport: "tcp"}, parallelRun{hosted: []int{2, 0}}) == nil {
		t.Error("tcp run with both clusters on one node passed")
	}
	if err := selfCheck(workload{K: 2, Transport: "tcp"}, parallelRun{hosted: []int{1, 1}}); err != nil {
		t.Errorf("healthy tcp run rejected: %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 100},  // root
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},  // nested child
		{ID: 3, Parent: 2, StartNS: 15, EndNS: 25},  // grandchild
		{ID: 4, Parent: 1, StartNS: 50, EndNS: 80},  // two overlapping children,
		{ID: 5, Parent: 1, StartNS: 60, EndNS: 90},  // like the two tcp nodes
		{ID: 6, Parent: 1, StartNS: 95, EndNS: 120}, // child running past its parent
		{ID: 7, Parent: 1, StartNS: 62, EndNS: 70},  // child inside the overlap
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 100 - 30 - 40 - 5, // [10,40) + [50,90) + [95,100) covered
		2: 30 - 10,
		3: 10,
		4: 30,
		5: 30,
		6: 25,
		7: 8,
	} {
		if self[id] != want {
			t.Errorf("span %d: self time %d, want %d", id, self[id], want)
		}
	}
	if got := coverage(spans, 1); got != 0.75 {
		t.Errorf("root coverage %v, want 0.75", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22], n=4) == [2.0, 7.0, 16.0]
	// statistics.quantiles([3, 5], n=4)                     == [2.5, 4.0, 5.5]
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 4, 7, 11, 16, 22}, [3]float64{2, 7, 16}},
		{[]float64{3, 5}, [3]float64{2.5, 4, 5.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// syntheticReport is a one-workload report whose end-to-end metrics all have
// the given median and interquartile range.
func syntheticReport(value, iqr float64) *report {
	r := &result{Workload: workloads[0], Attempted: 10, Metrics: map[string]stat{},
		Exact: map[string]uint64{"seq_events": 100}}
	for _, d := range endToEnd {
		r.Metrics[d.Name] = stat{Value: value, Unit: d.Unit, IQR: iqr, Samples: 7}
	}
	return &report{Header: header{NumCPU: 2, GOMAXPROCS: 2, Seed: 1}, Workloads: []workloadEntry{{EndToEnd: r}}}
}

func TestCompare(t *testing.T) {
	verdicts := func(a, b *report) (string, error) {
		var out bytes.Buffer
		err := compareReports(&out, a, b)
		return out.String(), err
	}
	base := syntheticReport(100, 1)

	out, err := verdicts(base, syntheticReport(101, 1))
	if err != nil || strings.Contains(out, regressed) || strings.Contains(out, unresolved) {
		t.Errorf("a 1%% change must be within every bound: err %v\n%s", err, out)
	}

	// Half the value: the higher-is-better rates regress, the
	// lower-is-better metrics improve.
	out, err = verdicts(base, syntheticReport(50, 1))
	if err == nil {
		t.Errorf("halved throughput did not fail the comparison\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || f[0] != workloads[0].Name {
			continue
		}
		want := within
		if f[1] == "events_per_s" || f[1] == "seq_events_per_s" {
			want = regressed
		}
		if f[2] != want {
			t.Errorf("halved value: %s is %s, want %s", f[1], f[2], want)
		}
	}

	// A spread wider than the bound on either side gives no verdict, and no
	// failure: the row says the run was too noisy to tell.
	out, err = verdicts(base, syntheticReport(50, 20))
	if err != nil || !strings.Contains(out, unresolved) || strings.Contains(out, regressed) {
		t.Errorf("noisy report must be unresolved, not regressed: err %v\n%s", err, out)
	}

	// Simulated statistics must repeat exactly.
	diverged := syntheticReport(100, 1)
	diverged.Workloads[0].EndToEnd.Exact["seq_events"] = 101
	if out, err = verdicts(base, diverged); err == nil || !strings.Contains(out, "differs") {
		t.Errorf("a changed event count must fail the comparison: err %v\n%s", err, out)
	}

	// More failed runs than the baseline is a regression at bound 0.
	failing := syntheticReport(100, 1)
	failing.Workloads[0].EndToEnd.Failed = 1
	if _, err = verdicts(base, failing); err == nil {
		t.Error("a failed run must fail the comparison")
	}

	for name, mutate := range map[string]func(*report){
		"num_cpu":    func(r *report) { r.Header.NumCPU = 8 },
		"gomaxprocs": func(r *report) { r.Header.GOMAXPROCS = 1 },
		"seed":       func(r *report) { r.Header.Seed = 2 },
		"workload":   func(r *report) { r.Workloads[0].EndToEnd.Workload.Cycles++ },
	} {
		other := syntheticReport(100, 1)
		mutate(other)
		if _, err := verdicts(base, other); err == nil || !strings.Contains(err.Error(), "refusing") {
			t.Errorf("mismatched %s was not refused: %v", name, err)
		}
	}
}

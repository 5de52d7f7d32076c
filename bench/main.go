// Command bench is the repository's benchmark: seven frozen workloads, each
// the whole user pipeline (generate circuit → partition → parallel simulate →
// verify against the sequential oracle), measured end to end with tracing
// off and layer by layer in a traced pass. See README.md.
//
//	bench -workload mem-k2-g0 -seed 1 -seconds 10 -trace 0   one workload, one pass (the driver's form)
//	bench -out a.json                                        every workload, both passes, one report
//	bench -compare a.json b.json                             one verdict per (workload, end-to-end metric)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

// header records the host and settings a report was measured with; two
// reports compare only if these agree.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	// Claim is always null here: the benchmark measures, a later change that
	// claims a gain cites these numbers by metric and workload name.
	Claim *string `json:"claim"`
}

// report is what -out writes: both passes of every workload.
type report struct {
	Header    header          `json:"header"`
	Workloads []workloadEntry `json:"workloads"`
}

type workloadEntry struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

// commit is the repository commit the program was built from; run.sh sets it
// at link time where git knows it.
var commit = "unknown"

func newHeader(seed int64, seconds float64) header {
	return header{Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds}
}

func (h header) String() string {
	return fmt.Sprintf("commit=%s go=%s num_cpu=%d gomaxprocs=%d seed=%d seconds=%g",
		h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.Seed, h.Seconds)
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print the driver's result line (default: all workloads, both passes)")
		seed    = flag.Int64("seed", 1, "seed for stimulus, partitioner, Random partition and rebalance order")
		seconds = flag.Float64("seconds", 6, "time budget of one pass's timed repeats, per workload")
		trace   = flag.Int("trace", 0, "with -workload: 0 = end-to-end pass, 1 = traced per-layer pass")
		out     = flag.String("out", "", "without -workload: write the report to this file")
		resFile = flag.String("result", "", "with -workload: also write the pass's full result (spread, exact statistics) to this file")
		outDir  = flag.String("trace-dir", "bench/out", "directory the traced pass writes trace-<workload>.jsonl to")
		compare = flag.Bool("compare", false, "compare two reports: bench -compare A.json B.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two report files, got %d", flag.NArg())
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *name != "":
		err = runOne(*name, *trace == 1, *resFile, options{Seed: *seed, Seconds: *seconds, SeqSlice: seqSlice, OutDir: *outDir})
	default:
		err = runAll(*out, *seed, *seconds, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// driverLine is the last line of standard output in the one-workload form.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne measures one pass of one workload and ends standard output with the
// driver's result line. A pass with a failed run prints the line and then
// fails, so a fast-but-wrong number cannot pass for a result.
func runOne(name string, traced bool, resultFile string, opt options) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	fmt.Printf("# bench %s\n", newHeader(opt.Seed, opt.Seconds))
	res, err := runWorkload(w, traced, opt)
	if res != nil {
		printResult(res)
	}
	if err != nil {
		return err
	}
	if resultFile != "" {
		if err := writeJSON(resultFile, res); err != nil {
			return err
		}
	}
	line := driverLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	for n, s := range res.Metrics {
		line.Metrics[n] = driverValue{Value: s.Value, Unit: s.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.correct() {
		return fmt.Errorf("%s: %d of %d runs failed", name, res.Failed, res.Attempted)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll measures every workload, the end-to-end pass then the traced pass,
// and writes one report. Every pass runs in a process of its own, exactly as
// the driver runs it: what one workload leaves in the Go runtime (heap
// layout, the GC pacer's history) moves the next one's throughput, vec-k2-g0
// after k1-g0 by almost 2×, so passes sharing a process would measure their
// order.
func runAll(out string, seed int64, seconds float64, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Header: newHeader(seed, seconds)}
	failed := 0
	for _, w := range workloads {
		var entry workloadEntry
		for trace, dst := range []**result{&entry.EndToEnd, &entry.PerLayer} {
			file := filepath.Join(outDir, fmt.Sprintf("result-%s-trace%d.json", w.Name, trace))
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-trace-dir", outDir, "-result", file)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			b, err := os.ReadFile(file)
			if err != nil {
				return errors.Join(runErr, err)
			}
			res := new(result)
			if err := json.Unmarshal(b, res); err != nil {
				return fmt.Errorf("%s: %w", file, err)
			}
			failed += res.Failed
			*dst = res
		}
		rep.Workloads = append(rep.Workloads, entry)
	}
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d runs failed", failed)
	}
	return nil
}

// printResult prints one pass: every metric by name with its unit. Timings
// are medians of the repeats; with fewer than eleven repeats no percentile
// above the median has ten samples beyond it, so the spread is given as
// min, max and interquartile range instead.
func printResult(r *result) {
	pass := "end-to-end"
	if r.Traced {
		pass = "per-layer (traced)"
	}
	flag := ""
	if r.Oversubscribed {
		flag = " OVERSUBSCRIBED"
	}
	fmt.Printf("\n== %s · %s pass · R=%d repeats (medians; spread = min/max/IQR) · %d/%d runs failed (failed_run_ratio %.4f)%s\n",
		r.Workload.Name, pass, r.Repeats, r.Failed, r.Attempted, r.failedRunRatio(), flag)
	for _, f := range r.Failures {
		fmt.Printf("   FAILED %s\n", f)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.Metrics[n]
		if s.Samples > 1 {
			fmt.Printf("   %-34s %14.6g %-13s min %.6g max %.6g iqr %.6g (%.1f%%) n=%d\n",
				n, s.Value, s.Unit, s.Min, s.Max, s.IQR, 100*s.iqrRatio(), s.Samples)
		} else {
			fmt.Printf("   %-34s %14.6g %s\n", n, s.Value, s.Unit)
		}
	}
	if !r.Traced {
		// The paper's headline. It is printed, not bounded: as a gate it
		// would punish a change that makes the sequential simulator faster.
		fmt.Printf("   %-34s %14.6g ratio (events_per_s / seq_events_per_s)\n", "speedup_vs_seq",
			ratio(r.Metrics["events_per_s"].Value, r.Metrics["seq_events_per_s"].Value))
	}
}

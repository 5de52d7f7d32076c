// Command experiments regenerates the paper's tables and figures and the
// static-vs-dynamic partitioning study.
//
// Usage:
//
//	experiments -table1 -table2 -fig4 -fig5 -fig6 -quality -linear -ablation
//	    -dynamic [-all] [-paper]
//	    [-scale 0.12] [-cycles 8] [-grain 1500] [-net 2000] [-window 0.12]
//	    [-repeats 1] [-nodes 8] [-seed 1] [-out results] [-q]
//
// Each selected experiment writes markdown/CSV into the -out directory and a
// summary to stdout. -paper selects the full-scale configuration (scale 1,
// 20 cycles, 5 repeats). -net sets only the modeled LAN's per-message busy
// cost, at both sender and receiver; it leaves the modeled 120 µs one-way
// latency in place. -window is the optimism window in clock cycles, -seed
// the random seed, and -q suppresses per-measurement progress.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/experiments"
)

func main() {
	var (
		doTable1  = flag.Bool("table1", false, "regenerate Table 1 (benchmark characteristics)")
		doTable2  = flag.Bool("table2", false, "regenerate Table 2 (simulation times)")
		doFig4    = flag.Bool("fig4", false, "regenerate Figure 4 (s9234 execution times)")
		doFig5    = flag.Bool("fig5", false, "regenerate Figure 5 (s9234 messaging)")
		doFig6    = flag.Bool("fig6", false, "regenerate Figure 6 (s9234 rollbacks)")
		doQuality = flag.Bool("quality", false, "partition quality study")
		doLinear  = flag.Bool("linear", false, "multilevel linear-time study")
		doAblate  = flag.Bool("ablation", false, "refiner/coarsener ablation")
		doDynamic = flag.Bool("dynamic", false, "static-vs-dynamic partitioning study (hotspot workload)")
		doAll     = flag.Bool("all", false, "run every experiment")
		paper     = flag.Bool("paper", false, "full-scale (paper-sized) configuration")

		scale   = flag.Float64("scale", 0, "circuit scale (0 = configuration default)")
		cycles  = flag.Int("cycles", 0, "simulated clock cycles")
		grain   = flag.Int("grain", -1, "busy-loop iterations per gate evaluation")
		net     = flag.Int("net", -1, "busy-loop iterations per remote message (send and recv)")
		repeats = flag.Int("repeats", 0, "measurement repetitions")
		nodes   = flag.Int("nodes", 0, "maximum node count")
		seed    = flag.Int64("seed", 0, "random seed")
		window  = flag.Float64("window", -1, "optimism window in clock cycles (-1 = default)")
		outDir  = flag.String("out", "results", "output directory")
		quiet   = flag.Bool("q", false, "suppress per-measurement progress")
	)
	flag.Parse()

	opts := experiments.DefaultOptions()
	if *paper {
		opts = experiments.PaperOptions()
	}
	if *scale != 0 {
		opts.Scale = *scale
	}
	if *cycles != 0 {
		opts.Cycles = *cycles
	}
	if *grain >= 0 {
		opts.Grain = *grain
	}
	if *net >= 0 {
		opts.NetSendBusy = *net
		opts.NetRecvBusy = *net
	}
	if *repeats != 0 {
		opts.Repeats = *repeats
	}
	if *nodes != 0 {
		opts.MaxNodes = *nodes
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *window >= 0 {
		opts.OptimismCycles = *window
	}

	if *doAll {
		*doTable1, *doTable2, *doFig4, *doFig5, *doFig6, *doQuality, *doLinear, *doAblate, *doDynamic = true, true, true, true, true, true, true, true, true
	}
	if !*doTable1 && !*doTable2 && !*doFig4 && !*doFig5 && !*doFig6 && !*doQuality && !*doLinear && !*doAblate && !*doDynamic {
		fmt.Fprintln(os.Stderr, "nothing selected; pass -all or one of -table1 -table2 -fig4 -fig5 -fig6 -quality -linear -ablation -dynamic")
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}

	if *doTable1 {
		t1, err := experiments.RunTable1(opts)
		if err != nil {
			fatal(err)
		}
		writeBoth(*outDir, "table1", t1.WriteMarkdown, t1.WriteCSV)
		fmt.Println("## Table 1")
		t1.WriteMarkdown(os.Stdout)
	}
	if *doTable2 {
		t2, err := experiments.RunTable2(opts, progress)
		if err != nil {
			fatal(err)
		}
		writeBoth(*outDir, "table2", t2.WriteMarkdown, t2.WriteCSV)
		fmt.Println("## Table 2 (seconds)")
		t2.WriteMarkdown(os.Stdout)
	}
	if *doFig4 || *doFig5 || *doFig6 {
		sw, err := experiments.RunSweep(opts, "s9234", progress)
		if err != nil {
			fatal(err)
		}
		if *doFig4 {
			writeFile(filepath.Join(*outDir, "fig4_execution_times.csv"), sw.WriteFig4CSV)
			fmt.Println("## Figure 4 data")
			sw.WriteFig4CSV(os.Stdout)
		}
		if *doFig5 {
			writeFile(filepath.Join(*outDir, "fig5_messages.csv"), sw.WriteFig5CSV)
			fmt.Println("## Figure 5 data")
			sw.WriteFig5CSV(os.Stdout)
		}
		if *doFig6 {
			writeFile(filepath.Join(*outDir, "fig6_rollbacks.csv"), sw.WriteFig6CSV)
			fmt.Println("## Figure 6 data")
			sw.WriteFig6CSV(os.Stdout)
		}
	}
	if *doQuality {
		for _, k := range []int{4, 8, 16} {
			q, err := experiments.RunQuality(opts, "s9234", k)
			if err != nil {
				fatal(err)
			}
			writeFile(filepath.Join(*outDir, fmt.Sprintf("quality_k%d.md", k)), q.WriteMarkdown)
			q.WriteMarkdown(os.Stdout)
			fmt.Println()
		}
	}
	if *doAblate {
		ab, err := experiments.RunAblation(opts, "s9234", 4)
		if err != nil {
			fatal(err)
		}
		writeFile(filepath.Join(*outDir, "ablation.md"), ab.WriteMarkdown)
		fmt.Println("## Ablation")
		ab.WriteMarkdown(os.Stdout)
	}
	if *doDynamic {
		dyn, err := experiments.RunDynamic(opts, "s9234", 4, progress)
		if err != nil {
			fatal(err)
		}
		writeBoth(*outDir, "dynamic", dyn.WriteMarkdown, dyn.WriteCSV)
		fmt.Println("## Static vs dynamic partitioning (hotspot workload)")
		dyn.WriteMarkdown(os.Stdout)
	}
	if *doLinear {
		sizes := []int{500, 1000, 2000, 4000, 8000, 16000, 32000}
		lin, err := experiments.RunLinearity(opts, 8, sizes)
		if err != nil {
			fatal(err)
		}
		writeFile(filepath.Join(*outDir, "linearity.csv"), lin.WriteCSV)
		fmt.Println("## Multilevel partitioning time vs circuit size")
		lin.WriteCSV(os.Stdout)
		fmt.Printf("time-per-edge spread (max/min): %.2f (near 1 = linear)\n", lin.TimePerEdgeSpread())
	}
}

func writeBoth(dir, base string, md, csv func(w io.Writer) error) {
	writeFile(filepath.Join(dir, base+".md"), md)
	writeFile(filepath.Join(dir, base+".csv"), csv)
}

func writeFile(path string, f func(w io.Writer) error) {
	fh, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer fh.Close()
	if err := f(fh); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

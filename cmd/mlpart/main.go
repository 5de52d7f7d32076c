// Command mlpart partitions a circuit and reports quality metrics.
//
// Usage:
//
//	mlpart -k 8 [-algo multilevel] [-refiner greedy] [-scheme fanout] circuit.bench
//	mlpart -k 8 -bench s9234 -scale 0.5
//
// Reads an ISCAS'89 .bench netlist (or a built-in benchmark via -bench) and
// prints the partition quality; -assign dumps the gate-to-partition map.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/partition"
)

func main() {
	var (
		k       = flag.Int("k", 8, "number of partitions")
		algo    = flag.String("algo", "multilevel", "algorithm: multilevel, random, dfs, cluster, topological, cone")
		refiner = flag.String("refiner", "greedy", "multilevel refiner: greedy, fm, none")
		scheme  = flag.String("scheme", "fanout", "multilevel coarsening: fanout, heavy-edge, activity")
		seed    = flag.Int64("seed", 1, "random seed")
		bench   = flag.String("bench", "", "built-in benchmark instead of a file (s5378, s9234, s15850)")
		scale   = flag.Float64("scale", 1.0, "scale for -bench")
		assign  = flag.Bool("assign", false, "print the gate-to-partition assignment")
	)
	flag.Parse()

	c, err := loadCircuit(*bench, *scale, flag.Arg(0))
	if err != nil {
		fail(err)
	}
	p, err := buildPartitioner(*algo, *refiner, *scheme, *seed)
	if err != nil {
		fail(err)
	}

	start := time.Now()
	a, err := p.Partition(c, *k)
	took := time.Since(start)
	if err != nil {
		fail(err)
	}
	q, err := partition.Measure(p.Name(), c, a)
	if err != nil {
		fail(err)
	}
	fmt.Printf("circuit %s: %d gates, %d edges\n", c.Name, c.NumGates(), c.NumEdges())
	fmt.Printf("%s (%s)\n", q, took.Round(time.Microsecond))
	if *assign {
		for id, part := range a.Parts {
			fmt.Printf("%s %d\n", c.Gates[id].Name, part)
		}
	}
}

func loadCircuit(bench string, scale float64, path string) (*circuit.Circuit, error) {
	if bench != "" {
		return circuit.NewBenchmark(bench, scale)
	}
	if path == "" {
		return nil, fmt.Errorf("pass a .bench file or -bench <name>")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return circuit.ParseBench(path, f)
}

func buildPartitioner(algo, refiner, scheme string, seed int64) (partition.Partitioner, error) {
	switch algo {
	case "random":
		return partition.Random{Seed: seed}, nil
	case "dfs":
		return partition.DepthFirst{}, nil
	case "cluster", "bfs":
		return partition.Cluster{}, nil
	case "topological", "level":
		return partition.Topological{}, nil
	case "cone":
		return partition.Cone{}, nil
	case "multilevel", "ml":
		opts := core.Options{Seed: seed}
		switch refiner {
		case "greedy":
			opts.Refiner = core.GreedyRefine
		case "fm":
			opts.Refiner = core.FMRefine
		case "none":
			opts.Refiner = core.NoRefine
		default:
			return nil, fmt.Errorf("unknown refiner %q", refiner)
		}
		switch scheme {
		case "fanout":
			opts.Scheme = core.FanoutCoarsen
		case "heavy-edge", "heavyedge":
			opts.Scheme = core.HeavyEdgeCoarsen
		case "activity":
			opts.Scheme = core.ActivityCoarsen
		default:
			return nil, fmt.Errorf("unknown coarsening scheme %q", scheme)
		}
		return &core.Multilevel{Opts: opts}, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", algo)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "mlpart:", err)
	os.Exit(1)
}

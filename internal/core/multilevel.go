package core

import (
	"fmt"
	"math/rand"

	"repro/internal/circuit"
	"repro/internal/partition"
)

// Options parameterize the multilevel algorithm. The zero value reproduces
// the paper's configuration: fanout coarsening, greedy refinement, 10%
// balance tolerance.
type Options struct {
	// Seed drives the random choices (initial placement order, refinement
	// visit order). Runs are deterministic for a fixed seed.
	Seed int64
	// Scheme selects the coarsening scheme (default FanoutCoarsen).
	Scheme CoarsenScheme
	// Refiner selects the per-level refinement algorithm (default
	// GreedyRefine, the paper's choice).
	Refiner Refiner
	// Activity optionally supplies per-gate communication activity (events
	// per gate from a profiling run) for the ActivityCoarsen scheme.
	Activity []float64
}

// The paper's fixed parameters. Coarsening stops once the graph has at most
// coarsenTo globules (before the per-k floor) or after maxLevels levels.
// Refinement, in Multilevel and Rebalance alike, lets a partition exceed its
// share of the total weight by balanceTolerance (10%) and runs at most
// refinePasses passes per level; the greedy refiner converges in a few, as
// the paper observes.
const (
	coarsenTo        = 64
	maxLevels        = 24
	balanceTolerance = 0.10
	refinePasses     = 4
)

// Multilevel is the paper's three-phase multilevel partitioner. It
// implements partition.Partitioner.
type Multilevel struct {
	Opts Options
}

// Name implements partition.Partitioner.
func (m *Multilevel) Name() string { return "Multilevel" }

// Stats reports what the last Partition call did, for studies of the
// hierarchy itself.
type Stats struct {
	Levels        int   // number of coarsening levels built (G1..Gm)
	CoarsestSize  int   // vertices in Gm
	InitialCut    int   // weighted cut after initial partitioning, at Gm
	FinalCut      int   // edge cut on G0 after refinement
	RefinePasses  int   // total refinement passes across levels
	VerticesTotal []int // size of each level's graph, G0 first
}

// Partition implements partition.Partitioner.
func (m *Multilevel) Partition(c *circuit.Circuit, k int) (partition.Assignment, error) {
	a, _, err := m.PartitionStats(c, k)
	return a, err
}

// PartitionStats is Partition plus the hierarchy statistics.
func (m *Multilevel) PartitionStats(c *circuit.Circuit, k int) (partition.Assignment, Stats, error) {
	var st Stats
	if c == nil || c.NumGates() == 0 {
		return partition.Assignment{}, st, fmt.Errorf("core: empty circuit")
	}
	if k < 1 {
		return partition.Assignment{}, st, fmt.Errorf("core: need at least one partition, got %d", k)
	}
	opts := m.Opts
	rng := rand.New(rand.NewSource(opts.Seed))

	// Phase 1: coarsening. Build the hierarchy G0, G1, ..., Gm.
	levels := []*graph{fromCircuit(c, opts.Activity)}
	st.VerticesTotal = append(st.VerticesTotal, levels[0].n)
	target := coarsenTo
	if floor := 4 * k; target < floor {
		target = floor
	}
	for len(levels) <= maxLevels {
		cur := levels[len(levels)-1]
		if cur.n <= target {
			break
		}
		// Globules never exceed twice the average target-partition share,
		// so the initial partitioning can always balance.
		maxW := levels[0].n / (2 * k)
		if floor := levels[0].n / target; maxW < floor {
			maxW = floor
		}
		if maxW < 1 {
			maxW = 1
		}
		next := coarsenOnce(cur, opts.Scheme, maxW, rng)
		if next == nil || next.n >= cur.n {
			break // no further combination possible (e.g. all input globules)
		}
		levels = append(levels, next)
		st.VerticesTotal = append(st.VerticesTotal, next.n)
	}
	st.Levels = len(levels) - 1
	coarsest := levels[len(levels)-1]
	st.CoarsestSize = coarsest.n

	// Phase 2: initial partitioning at the coarsest level.
	part := initialPartition(coarsest, k, rng)
	st.InitialCut = coarsest.edgeCut(part)

	// Phase 3: refinement while projecting back to G0. One scratch, sized
	// for the finest level, serves every level and pass, so the refinement
	// inner loops allocate nothing.
	scratch := newRefineScratch(levels[0].n, k)
	refine := func(g *graph, part []int) int {
		switch opts.Refiner {
		case FMRefine:
			return fmRefine(g, part, k, balanceTolerance, refinePasses, rng, scratch)
		case NoRefine:
			return 0
		default:
			return greedyRefine(g, part, k, balanceTolerance, refinePasses, rng, scratch)
		}
	}
	// Two buffers sized for the finest level ping-pong through every
	// projection, so no level allocates (the coarsest part is copied into
	// the first buffer to join the rotation).
	buf := make([]int, levels[0].n)
	spare := make([]int, levels[0].n)
	part = append(buf[:0], part...)
	for li := len(levels) - 1; ; li-- {
		rebalance(levels[li], part, k, balanceTolerance, rng, scratch)
		st.RefinePasses += refine(levels[li], part)
		if li == 0 {
			break
		}
		part, spare = project(levels[li], part, spare), part
	}
	st.FinalCut = levels[0].edgeCut(part)

	a := partition.Assignment{Parts: part, K: k}
	if err := a.Validate(c); err != nil {
		return partition.Assignment{}, st, fmt.Errorf("core: internal error: %w", err)
	}
	return a, st, nil
}

// New returns a Multilevel partitioner with the paper's default options and
// the given seed.
func New(seed int64) *Multilevel {
	return &Multilevel{Opts: Options{Seed: seed}}
}

var _ partition.Partitioner = (*Multilevel)(nil)

package core

import (
	"testing"
	"testing/quick"

	"repro/internal/circuit"
)

// pathGraph builds a simple path 0-1-2-...-n-1 with unit weights, directly
// in the CSR representation.
func pathGraph(n int) *graph {
	g := &graph{
		n:     n,
		vwgt:  make([]int32, n),
		hasIn: make([]bool, n),
		seed:  make([]bool, n),
	}
	for i := range g.vwgt {
		g.vwgt[i] = 1
	}
	ab := newCSRBuilder(n, 2*(n-1), true)
	fb := newCSRBuilder(n, n-1, false)
	for v := 0; v < n; v++ {
		if v > 0 {
			ab.add(int32(v-1), 1)
		}
		if v < n-1 {
			ab.add(int32(v+1), 1)
			fb.add(int32(v+1), 0)
		}
		ab.endRow()
		fb.endRow()
	}
	g.xadj, g.adjncy, g.adjwgt = ab.xadj, ab.adjncy, ab.adjwgt
	g.fxadj, g.fadjncy = fb.xadj, fb.adjncy
	g.seed[0] = true
	g.hasIn[0] = true
	return g
}

func TestEdgeCutOnPath(t *testing.T) {
	g := pathGraph(10)
	part := make([]int, 10)
	for i := 5; i < 10; i++ {
		part[i] = 1
	}
	if cut := g.edgeCut(part); cut != 1 {
		t.Errorf("half/half path cut = %d, want 1", cut)
	}
	alt := make([]int, 10)
	for i := range alt {
		alt[i] = i % 2
	}
	if cut := g.edgeCut(alt); cut != 9 {
		t.Errorf("alternating path cut = %d, want 9", cut)
	}
}

// TestGreedyRefineFixesAlternating: greedy refinement on an alternating
// 2-way path partition should reach a near-optimal contiguous split.
func TestGreedyRefineFixesAlternating(t *testing.T) {
	g := pathGraph(40)
	part := make([]int, 40)
	for i := range part {
		part[i] = i % 2
	}
	before := g.edgeCut(part)
	greedyRefine(g, part, 2, 0.1, 16, newRand(3), newRefineScratch(g.n, 2))
	after := g.edgeCut(part)
	if after >= before {
		t.Fatalf("refinement did not improve alternating cut: %d -> %d", before, after)
	}
	if after > 8 {
		t.Errorf("refined cut %d still far from optimal 1", after)
	}
	// Balance must hold.
	counts := [2]int{}
	for _, p := range part {
		counts[p]++
	}
	if counts[0] < 16 || counts[1] < 16 {
		t.Errorf("refinement unbalanced the partition: %v", counts)
	}
}

// TestRebalanceRestoresTolerance: a grossly imbalanced assignment must be
// brought within the balance envelope.
func TestRebalanceRestoresTolerance(t *testing.T) {
	g := pathGraph(60)
	part := make([]int, 60) // everything on partition 0 of 4
	rebalance(g, part, 4, 0.1, newRand(1), newRefineScratch(g.n, 4))
	b := newBalance(g, part, 4, 0.1)
	for p, load := range b.load {
		if load > b.max {
			t.Errorf("partition %d load %d exceeds max %d", p, load, b.max)
		}
	}
}

// TestBalanceMoveAccounting: balance bookkeeping tracks moves exactly.
func TestBalanceMoveAccounting(t *testing.T) {
	g := pathGraph(12)
	part := make([]int, 12)
	for i := 6; i < 12; i++ {
		part[i] = 1
	}
	b := newBalance(g, part, 2, 0.5)
	if b.load[0] != 6 || b.load[1] != 6 {
		t.Fatalf("initial loads %v", b.load)
	}
	if !b.canMove(1, 0, 1) {
		t.Fatal("legal move rejected")
	}
	b.move(1, 0, 1)
	if b.load[0] != 5 || b.load[1] != 7 {
		t.Errorf("loads after move: %v", b.load)
	}
}

// TestConnScratch: the stamped connectivity scratch computes exact per-
// partition edge weights and resets between vertices.
func TestConnScratch(t *testing.T) {
	g := pathGraph(6)
	part := []int{0, 0, 1, 1, 2, 2}
	s := newRefineScratch(g.n, 3)
	touched := s.gather(g, part, 2) // vertex 2: neighbors 1 (part 0), 3 (part 1)
	if len(touched) != 2 {
		t.Fatalf("touched %v", touched)
	}
	if s.connOf(0) != 1 || s.connOf(1) != 1 || s.connOf(2) != 0 {
		t.Errorf("conn = %d,%d,%d", s.connOf(0), s.connOf(1), s.connOf(2))
	}
	s.gather(g, part, 5) // vertex 5: neighbor 4 (part 2)
	if s.connOf(2) != 1 || s.connOf(0) != 0 {
		t.Errorf("scratch not reset: %d,%d", s.connOf(2), s.connOf(0))
	}
}

// TestFMRefineImprovesOrKeeps: FM's best-prefix rollback guarantees the cut
// never increases.
func TestFMRefineImprovesOrKeeps(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "fm300", Inputs: 8, Gates: 300, Outputs: 5, FlipFlops: 20, Seed: 6,
	})
	g := fromCircuit(c, nil)
	rng := newRand(4)
	part := initialPartition(g, 4, rng)
	before := g.edgeCut(part)
	fmRefine(g, part, 4, 0.1, 4, rng, newRefineScratch(g.n, 4))
	if after := g.edgeCut(part); after > before {
		t.Errorf("FM worsened cut %d -> %d", before, after)
	}
}

// TestRefinersPreserveTotalAssignment (property): any refiner leaves every
// vertex assigned to a valid partition and the total vertex count intact.
func TestRefinersPreserveTotalAssignment(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "prop200", Inputs: 6, Gates: 200, Outputs: 4, FlipFlops: 10, Seed: 8,
	})
	g := fromCircuit(c, nil)
	f := func(seed int64, kRaw, which uint8) bool {
		k := 2 + int(kRaw%6)
		rng := newRand(seed)
		part := initialPartition(g, k, rng)
		s := newRefineScratch(g.n, k)
		if which%2 == 0 {
			greedyRefine(g, part, k, 0.1, 4, rng, s)
		} else {
			fmRefine(g, part, k, 0.1, 2, rng, s)
		}
		for _, p := range part {
			if p < 0 || p >= k {
				return false
			}
		}
		return len(part) == g.n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 24}); err != nil {
		t.Error(err)
	}
}

// TestInitialPartitionSpreadsInputGlobules: the concurrency rule of the
// initial phase — input globules split across partitions.
func TestInitialPartitionSpreadsInputGlobules(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "init400", Inputs: 16, Gates: 400, Outputs: 6, FlipFlops: 24, Seed: 9,
	})
	g := fromCircuit(c, nil)
	for lvl := 0; lvl < 3; lvl++ {
		next := coarsenOnce(g, FanoutCoarsen, 0, newRand(1))
		if next == nil {
			break
		}
		g = next
	}
	k := 4
	part := initialPartition(g, k, newRand(7))
	perPart := make([]int, k)
	for v := 0; v < g.n; v++ {
		if g.hasIn[v] {
			perPart[part[v]]++
		}
	}
	// With 16 input globules and 4 partitions, every partition gets some.
	for p, n := range perPart {
		if n == 0 {
			t.Errorf("partition %d received no input globules: %v", p, perPart)
		}
	}
}

// TestProjectPreservesPartition: every fine vertex inherits its globule's
// partition (the paper's P[v] = P[V_i_j] identity).
func TestProjectPreservesPartition(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "proj300", Inputs: 8, Gates: 300, Outputs: 5, FlipFlops: 16, Seed: 10,
	})
	fine := fromCircuit(c, nil)
	coarse := coarsenOnce(fine, FanoutCoarsen, 0, newRand(2))
	if coarse == nil {
		t.Fatal("coarsening failed")
	}
	part := initialPartition(coarse, 3, newRand(3))
	finePart := project(coarse, part, nil)
	if len(finePart) != fine.n {
		t.Fatalf("projection covers %d of %d", len(finePart), fine.n)
	}
	for v := 0; v < fine.n; v++ {
		if finePart[v] != part[coarse.fineMap[v]] {
			t.Fatalf("vertex %d: partition %d != globule partition %d",
				v, finePart[v], part[coarse.fineMap[v]])
		}
	}
}

// TestGlobuleWeightCap: coarsening with a weight cap never produces a
// globule heavier than the cap (given unit fine weights).
func TestGlobuleWeightCap(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "cap500", Inputs: 10, Gates: 500, Outputs: 5, FlipFlops: 30, Seed: 11,
	})
	g := fromCircuit(c, nil)
	const maxW = 7
	next := coarsenOnce(g, FanoutCoarsen, maxW, newRand(5))
	if next == nil {
		t.Fatal("coarsening failed")
	}
	for v := 0; v < next.n; v++ {
		if next.vwgt[v] > maxW {
			t.Errorf("globule %d weight %d exceeds cap %d", v, next.vwgt[v], maxW)
		}
	}
}

// TestActivityAggregatesAcrossLevels: activity annotations survive
// contraction as sums.
func TestActivityAggregatesAcrossLevels(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "act200", Inputs: 6, Gates: 200, Outputs: 4, FlipFlops: 10, Seed: 12,
	})
	act := make([]float64, c.NumGates())
	var total float64
	for i := range act {
		act[i] = float64(i % 5)
		total += act[i]
	}
	g := fromCircuit(c, act)
	next := coarsenOnce(g, ActivityCoarsen, 0, newRand(6))
	if next == nil {
		t.Fatal("coarsening failed")
	}
	var coarseTotal float64
	for _, a := range next.act {
		coarseTotal += a
	}
	if diff := coarseTotal - total; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("activity not conserved: %v vs %v", coarseTotal, total)
	}
}

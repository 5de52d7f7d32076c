package core

import (
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/partition"
)

func testCircuit(t testing.TB) *circuit.Circuit {
	t.Helper()
	return circuit.MustGenerate(circuit.GenSpec{
		Name: "m600", Inputs: 12, Gates: 600, Outputs: 8, FlipFlops: 48, Seed: 23,
	})
}

func TestMultilevelValidAssignment(t *testing.T) {
	c := testCircuit(t)
	m := New(1)
	for _, k := range []int{1, 2, 3, 8, 16} {
		a, err := m.Partition(c, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := a.Validate(c); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

func TestMultilevelErrors(t *testing.T) {
	m := New(1)
	if _, err := m.Partition(nil, 2); err == nil {
		t.Error("nil circuit accepted")
	}
	if _, err := m.Partition(circuit.New("e"), 2); err == nil {
		t.Error("empty circuit accepted")
	}
	if _, err := m.Partition(testCircuit(t), 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestMultilevelDeterministic(t *testing.T) {
	c := testCircuit(t)
	a1, _ := New(9).Partition(c, 4)
	a2, _ := New(9).Partition(c, 4)
	for i := range a1.Parts {
		if a1.Parts[i] != a2.Parts[i] {
			t.Fatal("same seed produced different partitions")
		}
	}
}

// TestCoarseningShrinks: the hierarchy must actually shrink level by level
// and stop above the floor.
func TestCoarseningShrinks(t *testing.T) {
	c := testCircuit(t)
	m := New(3)
	_, st, err := m.PartitionStats(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Levels < 2 {
		t.Errorf("only %d coarsening levels built", st.Levels)
	}
	for i := 1; i < len(st.VerticesTotal); i++ {
		if st.VerticesTotal[i] >= st.VerticesTotal[i-1] {
			t.Errorf("level %d did not shrink: %v", i, st.VerticesTotal)
		}
	}
	if st.CoarsestSize >= c.NumGates()/4 {
		t.Errorf("coarsest level %d barely smaller than %d gates", st.CoarsestSize, c.NumGates())
	}
}

// TestInputGlobuleConstraint: after one fanout-coarsening pass, no globule
// contains two primary inputs.
func TestInputGlobuleConstraint(t *testing.T) {
	c := testCircuit(t)
	g := fromCircuit(c, nil)
	match := make([]int32, g.n)
	for i := range match {
		match[i] = -1
	}
	n, merges := fanoutMatch(g, match, 0)
	if merges == 0 {
		t.Fatal("fanout coarsening merged nothing")
	}
	inputsPer := make(map[int32]int, n)
	for v := 0; v < g.n; v++ {
		if g.hasIn[v] {
			inputsPer[match[v]]++
		}
	}
	for cv, cnt := range inputsPer {
		if cnt > 1 {
			t.Errorf("globule %d holds %d primary inputs", cv, cnt)
		}
	}
}

// TestCoarseningOncePerLevel: every vertex belongs to exactly one globule.
func TestCoarseningOncePerLevel(t *testing.T) {
	c := testCircuit(t)
	g := fromCircuit(c, nil)
	match := make([]int32, g.n)
	for i := range match {
		match[i] = -1
	}
	n, _ := fanoutMatch(g, match, 0)
	seenMax := int32(-1)
	for v, cv := range match {
		if cv < 0 || cv >= int32(n) {
			t.Fatalf("vertex %d unmatched or out of range: %d", v, cv)
		}
		if cv > seenMax {
			seenMax = cv
		}
	}
	if seenMax != int32(n)-1 {
		t.Errorf("globule ids not dense: max %d, n %d", seenMax, n)
	}
}

// TestContractPreservesWeight: total vertex weight is invariant across
// contraction levels.
func TestContractPreservesWeight(t *testing.T) {
	c := testCircuit(t)
	g := fromCircuit(c, nil)
	total := g.totalWeight()
	for lvl := 0; lvl < 5; lvl++ {
		next := coarsenOnce(g, FanoutCoarsen, 0, newRand(42))
		if next == nil {
			break
		}
		if next.totalWeight() != total {
			t.Fatalf("level %d: weight %d != %d", lvl+1, next.totalWeight(), total)
		}
		g = next
	}
}

// TestRefinementNeverWorsensCut: greedy refinement must not increase the
// weighted cut at any level (it only applies positive-gain moves).
func TestRefinementNeverWorsensCut(t *testing.T) {
	c := testCircuit(t)
	g := fromCircuit(c, nil)
	rng := newRand(7)
	part := initialPartition(g, 4, rng)
	before := g.edgeCut(part)
	greedyRefine(g, part, 4, 0.1, 8, rng, newRefineScratch(g.n, 4))
	after := g.edgeCut(part)
	if after > before {
		t.Errorf("greedy refinement worsened cut: %d -> %d", before, after)
	}
}

// TestMultilevelBeatsRandomOnCut: the headline property from the paper's
// §3 — multilevel partitions have far lower cut than random ones.
func TestMultilevelBeatsRandomOnCut(t *testing.T) {
	c := testCircuit(t)
	for _, k := range []int{4, 8} {
		am, err := New(2).Partition(c, k)
		if err != nil {
			t.Fatal(err)
		}
		ar, err := partition.Random{Seed: 2}.Partition(c, k)
		if err != nil {
			t.Fatal(err)
		}
		mc := partition.EdgeCut(c, am)
		rc := partition.EdgeCut(c, ar)
		if mc >= rc {
			t.Errorf("k=%d: multilevel cut %d not better than random %d", k, mc, rc)
		}
		if float64(mc) > 0.7*float64(rc) {
			t.Errorf("k=%d: multilevel cut %d not clearly better than random %d", k, mc, rc)
		}
	}
}

// TestMultilevelBalanced: final partitions respect the balance tolerance.
func TestMultilevelBalanced(t *testing.T) {
	c := testCircuit(t)
	for _, k := range []int{2, 4, 8} {
		a, err := New(4).Partition(c, k)
		if err != nil {
			t.Fatal(err)
		}
		q, err := partition.Measure("ml", c, a)
		if err != nil {
			t.Fatal(err)
		}
		if q.Imbalance > 0.35 {
			t.Errorf("k=%d imbalance %.3f too high", k, q.Imbalance)
		}
		if q.MinLoad == 0 {
			t.Errorf("k=%d produced an empty partition", k)
		}
	}
}

// TestMultilevelSpreadsInputs: concurrency constraint — input globules are
// distributed, so nearly every partition holds at least one event source.
func TestMultilevelSpreadsInputs(t *testing.T) {
	c := testCircuit(t)
	a, err := New(5).Partition(c, 6)
	if err != nil {
		t.Fatal(err)
	}
	q, err := partition.Measure("ml", c, a)
	if err != nil {
		t.Fatal(err)
	}
	if q.SourceSpread < 0.99 {
		t.Errorf("source spread %.2f, want every partition seeded with sources", q.SourceSpread)
	}
}

// TestRefinerAblation: all refiners produce valid partitions, and every
// refiner does at least as well as no refinement.
func TestRefinerAblation(t *testing.T) {
	c := testCircuit(t)
	base := &Multilevel{Opts: Options{Seed: 6, Refiner: NoRefine}}
	an, err := base.Partition(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	noneCut := partition.EdgeCut(c, an)
	for _, r := range []Refiner{GreedyRefine, FMRefine} {
		m := &Multilevel{Opts: Options{Seed: 6, Refiner: r}}
		a, err := m.Partition(c, 4)
		if err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		if err := a.Validate(c); err != nil {
			t.Fatalf("%v: %v", r, err)
		}
		cut := partition.EdgeCut(c, a)
		if cut > noneCut {
			t.Errorf("refiner %v cut %d worse than no refinement %d", r, cut, noneCut)
		}
	}
}

// TestCoarsenerAblation: heavy-edge and activity schemes also yield valid,
// balanced partitions.
func TestCoarsenerAblation(t *testing.T) {
	c := testCircuit(t)
	act := make([]float64, c.NumGates())
	for i := range act {
		act[i] = float64(len(c.Gates[i].Fanout))
	}
	for _, s := range []CoarsenScheme{FanoutCoarsen, HeavyEdgeCoarsen, ActivityCoarsen} {
		m := &Multilevel{Opts: Options{Seed: 8, Scheme: s, Activity: act}}
		a, err := m.Partition(c, 4)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if err := a.Validate(c); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
}

// TestMultilevelQuick: property test across seeds and k.
func TestMultilevelQuick(t *testing.T) {
	c := circuit.MustGenerate(circuit.GenSpec{
		Name: "q200", Inputs: 6, Gates: 200, Outputs: 4, FlipFlops: 12, Seed: 31,
	})
	f := func(seed int64, kRaw uint8) bool {
		k := 1 + int(kRaw%10)
		a, err := New(seed).Partition(c, k)
		if err != nil {
			return false
		}
		return a.Validate(c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestSchemeAndRefinerStrings(t *testing.T) {
	if FanoutCoarsen.String() != "fanout" || HeavyEdgeCoarsen.String() != "heavy-edge" || ActivityCoarsen.String() != "activity" {
		t.Error("scheme names")
	}
	if GreedyRefine.String() != "greedy" || FMRefine.String() != "fm" || NoRefine.String() != "none" {
		t.Error("refiner names")
	}
	if CoarsenScheme(99).String() == "" || Refiner(99).String() == "" {
		t.Error("unknown enum names empty")
	}
}

package core

import (
	"testing"

	"repro/internal/partition"
)

// chainRuntimeGraph builds a runtime graph for a 1-D chain of n LPs with
// unit traffic between neighbors and the given per-LP activity.
func chainRuntimeGraph(activity []int64) *partition.RuntimeGraph {
	n := len(activity)
	g := &partition.RuntimeGraph{
		N:            n,
		VertexWeight: activity,
		EdgeOff:      make([]int32, n+1),
	}
	for v := 0; v < n-1; v++ {
		g.EdgeDst = append(g.EdgeDst, int32(v+1))
		g.EdgeWeight = append(g.EdgeWeight, 8)
	}
	for v := 1; v <= n; v++ {
		cnt := int32(0)
		if v <= n-1 {
			cnt = 1
		}
		g.EdgeOff[v] = g.EdgeOff[v-1] + cnt
	}
	return g
}

// TestRebalanceFixesHotspot: all activity sits in the first quarter of a
// chain that is evenly split by LP count. Rebalance must spread the hot
// region's activity across partitions (activity imbalance drops) without
// reassigning the entire circuit.
func TestRebalanceFixesHotspot(t *testing.T) {
	const n, k = 64, 4
	activity := make([]int64, n)
	for v := 0; v < n; v++ {
		if v < n/4 {
			activity[v] = 1000 // the hot cone
		} else {
			activity[v] = 1
		}
	}
	g := chainRuntimeGraph(activity)
	cur := partition.NewAssignment(n, k)
	for v := 0; v < n; v++ {
		cur.Parts[v] = v / (n / k) // contiguous quarters: partition 0 holds all heat
	}
	imbal := func(a partition.Assignment) float64 {
		load := make([]int64, k)
		var total int64
		for v, p := range a.Parts {
			load[p] += activity[v]
			total += activity[v]
		}
		max := int64(0)
		for _, l := range load {
			if l > max {
				max = l
			}
		}
		return float64(max) * float64(k) / float64(total)
	}
	before := imbal(cur)
	next, st, err := Rebalance(cur, g, RebalanceOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	after := imbal(next)
	if after >= before/2 {
		t.Errorf("activity imbalance %0.2f -> %0.2f, want at least halved", before, after)
	}
	if st.Moved == 0 {
		t.Error("no LPs moved despite a maximal hotspot")
	}
	if st.Moved == n {
		t.Error("every LP moved: churn is unbounded")
	}
	// The input must be untouched.
	for v := 0; v < n; v++ {
		if cur.Parts[v] != v/(n/k) {
			t.Fatalf("Rebalance mutated its input at LP %d", v)
		}
	}
	if len(next.Parts) != n || next.K != k {
		t.Fatalf("result shape: %d LPs in %d parts", len(next.Parts), next.K)
	}
	for v, p := range next.Parts {
		if p < 0 || p >= k {
			t.Fatalf("LP %d assigned out of range: %d", v, p)
		}
	}
}

// TestRebalanceBalancedInputIsStable: a balanced, well-cut assignment must
// come back (nearly) unchanged — the churn bound in action.
func TestRebalanceBalancedInputIsStable(t *testing.T) {
	const n, k = 64, 4
	activity := make([]int64, n)
	for v := range activity {
		activity[v] = 10
	}
	g := chainRuntimeGraph(activity)
	cur := partition.NewAssignment(n, k)
	for v := 0; v < n; v++ {
		cur.Parts[v] = v / (n / k) // contiguous blocks: optimal for a chain
	}
	next, st, err := Rebalance(cur, g, RebalanceOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.Moved != 0 {
		t.Errorf("stable input still moved %d LPs", st.Moved)
	}
	if st.CutAfter > st.CutBefore {
		t.Errorf("cut worsened: %d -> %d", st.CutBefore, st.CutAfter)
	}
	for v := range next.Parts {
		if next.Parts[v] != cur.Parts[v] {
			t.Fatalf("assignment changed at %d", v)
		}
	}
}

// TestRebalanceReducesRuntimeCut: start from a deliberately scrambled
// assignment of a chain; refinement from the current assignment must cut
// observed traffic substantially.
func TestRebalanceReducesRuntimeCut(t *testing.T) {
	const n, k = 128, 4
	activity := make([]int64, n)
	for v := range activity {
		activity[v] = 5
	}
	g := chainRuntimeGraph(activity)
	cur := partition.NewAssignment(n, k)
	for v := 0; v < n; v++ {
		cur.Parts[v] = v % k // round-robin: near-maximal cut on a chain
	}
	_, st, err := Rebalance(cur, g, RebalanceOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if st.CutAfter >= st.CutBefore {
		t.Errorf("cut not reduced: %d -> %d", st.CutBefore, st.CutAfter)
	}
}

// TestRebalanceErrors: malformed inputs must be rejected.
func TestRebalanceErrors(t *testing.T) {
	g := chainRuntimeGraph([]int64{1, 1, 1, 1})
	short := partition.Assignment{Parts: []int{0, 1}, K: 2}
	if _, _, err := Rebalance(short, g, RebalanceOptions{}); err == nil {
		t.Error("short assignment accepted")
	}
	bad := partition.Assignment{Parts: []int{0, 1, 2, 9}, K: 4}
	if _, _, err := Rebalance(bad, g, RebalanceOptions{}); err == nil {
		t.Error("out-of-range partition accepted")
	}
	malformed := &partition.RuntimeGraph{N: 2, VertexWeight: []int64{1}}
	ok := partition.Assignment{Parts: []int{0, 0}, K: 1}
	if _, _, err := Rebalance(ok, malformed, RebalanceOptions{}); err == nil {
		t.Error("malformed runtime graph accepted")
	}
}

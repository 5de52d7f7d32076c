package core

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/partition"
)

// RebalanceOptions parameterize Rebalance, which refines with the
// multilevel partitioner's default tolerance and pass bound.
type RebalanceOptions struct {
	// Seed drives the refinement visit order; fixed seed, deterministic
	// result.
	Seed int64
}

// RebalanceStats reports what one Rebalance call did.
type RebalanceStats struct {
	// CutBefore/CutAfter are the weighted runtime-graph cuts of the input
	// and output assignments.
	CutBefore, CutAfter int
	// Moved counts LPs whose partition changed — the migration churn a
	// caller pays to apply the result.
	Moved int
	// Passes is the number of refinement passes run.
	Passes int
}

// Rebalance improves an existing assignment against an observed runtime
// communication graph: it rebalances the per-partition activity weight (the
// committed-event share, not the gate count) and then runs the same greedy
// boundary refinement the multilevel partitioner uses — starting from the
// current assignment rather than partitioning from scratch, so only
// boundary LPs with a genuine gain move and migration churn stays bounded.
// The input assignment is not modified.
func Rebalance(current partition.Assignment, rg *partition.RuntimeGraph, o RebalanceOptions) (partition.Assignment, RebalanceStats, error) {
	var st RebalanceStats
	if err := rg.Validate(); err != nil {
		return partition.Assignment{}, st, err
	}
	if len(current.Parts) != rg.N {
		return partition.Assignment{}, st, fmt.Errorf("core: assignment covers %d LPs, runtime graph has %d", len(current.Parts), rg.N)
	}
	k := current.K
	if k < 1 {
		return partition.Assignment{}, st, fmt.Errorf("core: non-positive partition count %d", k)
	}
	part := append([]int(nil), current.Parts...)
	for lp, p := range part {
		if p < 0 || p >= k {
			return partition.Assignment{}, st, fmt.Errorf("core: LP %d assigned to partition %d, want [0,%d)", lp, p, k)
		}
	}
	out := partition.Assignment{Parts: part, K: k}
	if k == 1 || rg.N == 0 {
		return out, st, nil
	}

	g := runtimeCoreGraph(rg)
	st.CutBefore = g.edgeCut(part)
	rng := rand.New(rand.NewSource(o.Seed))
	scratch := newRefineScratch(g.n, k)
	rebalance(g, part, k, balanceTolerance, rng, scratch)
	st.Passes = greedyRefine(g, part, k, balanceTolerance, refinePasses, rng, scratch)
	st.CutAfter = g.edgeCut(part)
	for lp := range part {
		if part[lp] != current.Parts[lp] {
			st.Moved++
		}
	}
	return out, st, nil
}

// runtimeCoreGraph converts the directed observed send matrix into the
// undirected weighted CSR form the refiners consume. Weights are scaled so
// totals stay comfortably inside int32 arithmetic: vertex weight is the
// LP's committed-event share (floor 1 so idle LPs still occupy balance
// capacity and remain placeable), edge weight the summed traffic of both
// directions (floor 1 so an observed edge is never rounded away).
func runtimeCoreGraph(rg *partition.RuntimeGraph) *graph {
	n := rg.N
	g := &graph{n: n, vwgt: make([]int32, n)}

	const weightCeiling = 1 << 22
	vscale := int64(1) + rg.TotalWeight()/weightCeiling
	for v, w := range rg.VertexWeight {
		sw := w / vscale
		if sw < 1 {
			sw = 1
		}
		g.vwgt[v] = int32(sw)
	}

	var edgeTotal int64
	for _, w := range rg.EdgeWeight {
		edgeTotal += w
	}
	escale := int64(1) + edgeTotal/weightCeiling

	// Symmetrize: every directed edge contributes to both endpoints' rows.
	deg := make([]int32, n+1)
	for v := 0; v < n; v++ {
		for j := rg.EdgeOff[v]; j < rg.EdgeOff[v+1]; j++ {
			d := rg.EdgeDst[j]
			if int(d) == v {
				continue // self-traffic has no cut contribution
			}
			deg[v+1]++
			deg[d+1]++
		}
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	dst := make([]int32, deg[n])
	wgt := make([]int32, deg[n])
	fill := append([]int32(nil), deg[:n]...)
	put := func(v int, d, w int32) {
		dst[fill[v]] = d
		wgt[fill[v]] = w
		fill[v]++
	}
	for v := 0; v < n; v++ {
		for j := rg.EdgeOff[v]; j < rg.EdgeOff[v+1]; j++ {
			d := rg.EdgeDst[j]
			if int(d) == v {
				continue
			}
			sw := rg.EdgeWeight[j] / escale
			if sw < 1 {
				sw = 1
			}
			put(v, d, int32(sw))
			put(int(d), int32(v), int32(sw))
		}
	}
	// Sort each row and merge parallel edges (u→v traffic recorded on both
	// rows, plus any duplicate destinations in the source matrix).
	xadj := make([]int32, 1, n+1)
	outDst := dst[:0]
	outWgt := wgt[:0]
	for v := 0; v < n; v++ {
		lo, hi := deg[v], deg[v+1]
		row := rowSorter{dst: dst[lo:hi], wgt: wgt[lo:hi]}
		sort.Sort(row)
		for i := lo; i < hi; {
			d := dst[i]
			var w int32
			for i < hi && dst[i] == d {
				w += wgt[i]
				i++
			}
			outDst = append(outDst, d)
			outWgt = append(outWgt, w)
		}
		xadj = append(xadj, int32(len(outDst)))
	}
	g.xadj, g.adjncy, g.adjwgt = xadj, outDst, outWgt
	return g
}

// rowSorter sorts one CSR row's parallel destination/weight slices by
// destination.
type rowSorter struct {
	dst []int32
	wgt []int32
}

func (r rowSorter) Len() int           { return len(r.dst) }
func (r rowSorter) Less(i, j int) bool { return r.dst[i] < r.dst[j] }
func (r rowSorter) Swap(i, j int) {
	r.dst[i], r.dst[j] = r.dst[j], r.dst[i]
	r.wgt[i], r.wgt[j] = r.wgt[j], r.wgt[i]
}

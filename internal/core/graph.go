// Package core implements the paper's primary contribution: the multilevel
// circuit partitioning algorithm for parallel logic simulation.
//
// The algorithm runs in three phases. Coarsening collapses the circuit graph
// into a hierarchy of progressively smaller graphs using fanout coarsening
// from the primary inputs (a globule never absorbs a second primary input,
// preserving concurrency). Initial partitioning spreads the coarsest level's
// input globules equally over the k partitions and places the remaining
// globules randomly under a load-balance constraint. Refinement projects the
// partition back level by level, running greedy k-way refinement (the
// paper's choice; Fiduccia-Mattheyses is available for ablation) to reduce
// the cut-set at every level.
package core

import (
	"slices"
	"sort"

	"repro/internal/circuit"
)

// graph is one level of the multilevel hierarchy: an undirected weighted
// graph for cut accounting plus the directed fanout view used by the fanout
// coarsening traversal. Both views are stored in CSR (compressed sparse row)
// form — three flat arrays instead of per-vertex slices — so building a
// level costs a constant number of allocations and traversal walks
// contiguous memory.
type graph struct {
	n    int
	vwgt []int32 // vertex weight = number of original gates in the globule

	// Undirected weighted adjacency in CSR form: the neighbors of v are
	// adjncy[xadj[v]:xadj[v+1]] with parallel edge weights in adjwgt.
	// Neighbor lists are deduplicated and sorted.
	xadj   []int32
	adjncy []int32
	adjwgt []int32

	// Directed coarse fanout in CSR form (deduplicated).
	fxadj   []int32
	fadjncy []int32

	hasIn []bool // globule contains a primary input gate
	seed  []bool // coarsening traversal starts from these vertices
	// act is the per-vertex activity estimate used by the activity-weighted
	// coarsening scheme; nil when no activity data was supplied.
	act []float64
	// fineMap maps each vertex of the next finer level to its globule in
	// this graph. nil for level 0.
	fineMap []int32
}

// adjOf returns the neighbor and weight slices of v.
func (g *graph) adjOf(v int) ([]int32, []int32) {
	lo, hi := g.xadj[v], g.xadj[v+1]
	return g.adjncy[lo:hi], g.adjwgt[lo:hi]
}

// fanoutOf returns the directed fanout of v.
func (g *graph) fanoutOf(v int) []int32 {
	return g.fadjncy[g.fxadj[v]:g.fxadj[v+1]]
}

// degree returns the number of distinct undirected neighbors of v.
func (g *graph) degree(v int) int {
	return int(g.xadj[v+1] - g.xadj[v])
}

// adjWeightTotal returns the total undirected edge weight incident to v (the
// gain bound of any single move of v).
func (g *graph) adjWeightTotal(v int) int {
	t := 0
	for _, w := range g.adjwgt[g.xadj[v]:g.xadj[v+1]] {
		t += int(w)
	}
	return t
}

func (g *graph) totalWeight() int {
	t := 0
	for _, w := range g.vwgt {
		t += int(w)
	}
	return t
}

// edgeCut returns the weighted cut of part on g.
func (g *graph) edgeCut(part []int) int {
	cut := 0
	for v := 0; v < g.n; v++ {
		adj, wgt := g.adjOf(v)
		for i, u := range adj {
			if v < int(u) && part[v] != part[u] {
				cut += int(wgt[i])
			}
		}
	}
	return cut
}

// csrBuilder accumulates one CSR view row by row. finish must be called
// after the last row; rows must be appended in vertex order.
type csrBuilder struct {
	xadj   []int32
	adjncy []int32
	adjwgt []int32 // nil for unweighted views
}

func newCSRBuilder(n, edgeHint int, weighted bool) *csrBuilder {
	b := &csrBuilder{
		xadj:   make([]int32, 1, n+1),
		adjncy: make([]int32, 0, edgeHint),
	}
	if weighted {
		b.adjwgt = make([]int32, 0, edgeHint)
	}
	return b
}

func (b *csrBuilder) add(u, w int32) {
	b.adjncy = append(b.adjncy, u)
	if b.adjwgt != nil {
		b.adjwgt = append(b.adjwgt, w)
	}
}

func (b *csrBuilder) endRow() {
	b.xadj = append(b.xadj, int32(len(b.adjncy)))
}

// fromCircuit builds the level-0 graph: one vertex per gate, unit weights,
// undirected edges deduplicated from the signal graph, and the directed
// fanout lists that drive the coarsening traversal. Primary inputs seed the
// first coarsening pass.
func fromCircuit(c *circuit.Circuit, activity []float64) *graph {
	n := c.NumGates()
	g := &graph{
		n:     n,
		vwgt:  make([]int32, n),
		hasIn: make([]bool, n),
		seed:  make([]bool, n),
	}
	if len(activity) == n {
		g.act = append([]float64(nil), activity...)
	}
	for i := range g.vwgt {
		g.vwgt[i] = 1
	}
	for _, id := range c.Inputs {
		g.hasIn[id] = true
		g.seed[id] = true
	}
	// Flip-flops are event sources too: seeding them as traversal roots lets
	// coarsening reach logic that is only driven by state, while the
	// input-exclusion constraint still applies only to primary inputs as in
	// the paper.
	for _, id := range c.FlipFlops {
		g.seed[id] = true
	}

	edges := c.NumEdges()
	fb := newCSRBuilder(n, edges, false)
	ab := newCSRBuilder(n, 2*edges, true)
	// Directed fanout, deduplicated per vertex with sort + run-length scan,
	// then the undirected weighted adjacency: fanin and fanout neighbors
	// merged with multiplicity = number of directed edges between the pair,
	// summed over both directions.
	scratch := make([]int, 0, 32)
	for _, gate := range c.Gates {
		v := gate.ID
		scratch = scratch[:0]
		for _, d := range gate.Fanout {
			if d != v {
				scratch = append(scratch, d)
			}
		}
		sort.Ints(scratch)
		for i, d := range scratch {
			if i == 0 || scratch[i-1] != d {
				fb.add(int32(d), 0)
			}
		}
		fb.endRow()

		for _, src := range gate.Fanin {
			if src != v {
				scratch = append(scratch, src)
			}
		}
		sort.Ints(scratch)
		for i := 0; i < len(scratch); {
			j := i
			for j < len(scratch) && scratch[j] == scratch[i] {
				j++
			}
			ab.add(int32(scratch[i]), int32(j-i))
			i = j
		}
		ab.endRow()
	}
	g.fxadj, g.fadjncy = fb.xadj, fb.adjncy
	g.xadj, g.adjncy, g.adjwgt = ab.xadj, ab.adjncy, ab.adjwgt
	return g
}

// contract builds the next coarser graph given the globule assignment
// match[v] = coarse vertex of v, with nCoarse globules. Coarse vertices
// whose globule absorbed more than one fine vertex seed the next coarsening
// pass per the paper.
func contract(g *graph, match []int32, nCoarse int) *graph {
	cg := &graph{
		n:       nCoarse,
		vwgt:    make([]int32, nCoarse),
		hasIn:   make([]bool, nCoarse),
		seed:    make([]bool, nCoarse),
		fineMap: match,
	}
	if g.act != nil {
		cg.act = make([]float64, nCoarse)
	}
	sizes := make([]int32, nCoarse)
	for v := 0; v < g.n; v++ {
		cv := match[v]
		cg.vwgt[cv] += g.vwgt[v]
		sizes[cv]++
		if g.hasIn[v] {
			cg.hasIn[cv] = true
		}
		if cg.act != nil {
			cg.act[cv] += g.act[v]
		}
	}
	for cv, s := range sizes {
		if s > 1 {
			cg.seed[cv] = true
		}
	}
	// If no globule merged (degenerate level) fall back to input globules as
	// seeds so the traversal still has roots.
	anySeed := false
	for _, s := range cg.seed {
		if s {
			anySeed = true
			break
		}
	}
	if !anySeed {
		copy(cg.seed, cg.hasIn)
	}

	// Invert the match (counting sort) so each globule's members are
	// contiguous; then aggregate edges per globule with stamped scratch
	// arrays — O(V+E), no maps.
	offs := make([]int32, nCoarse+1)
	for v := 0; v < g.n; v++ {
		offs[match[v]+1]++
	}
	for i := 1; i <= nCoarse; i++ {
		offs[i] += offs[i-1]
	}
	members := make([]int32, g.n)
	fill := append([]int32(nil), offs[:nCoarse]...)
	for v := 0; v < g.n; v++ {
		members[fill[match[v]]] = int32(v)
		fill[match[v]]++
	}

	ab := newCSRBuilder(nCoarse, len(g.adjncy)/2, true)
	fb := newCSRBuilder(nCoarse, len(g.fadjncy)/2, false)
	conn := make([]int32, nCoarse)
	stamp := make([]int32, nCoarse)
	fstamp := make([]int32, nCoarse)
	var touched []int32
	for cv := 0; cv < nCoarse; cv++ {
		cur := int32(cv + 1)
		touched = touched[:0]
		for _, v := range members[offs[cv]:offs[cv+1]] {
			adj, wgt := g.adjOf(int(v))
			for i, u := range adj {
				cu := match[u]
				if int(cu) == cv {
					continue
				}
				if stamp[cu] != cur {
					stamp[cu] = cur
					conn[cu] = 0
					touched = append(touched, cu)
				}
				conn[cu] += wgt[i]
			}
			for _, u := range g.fanoutOf(int(v)) {
				cu := match[u]
				if int(cu) != cv && fstamp[cu] != cur {
					fstamp[cu] = cur
					fb.add(cu, 0)
				}
			}
		}
		fb.endRow()
		slices.Sort(touched) // deterministic neighbor order
		for _, cu := range touched {
			ab.add(cu, conn[cu])
		}
		ab.endRow()
	}
	cg.xadj, cg.adjncy, cg.adjwgt = ab.xadj, ab.adjncy, ab.adjwgt
	cg.fxadj, cg.fadjncy = fb.xadj, fb.adjncy
	return cg
}

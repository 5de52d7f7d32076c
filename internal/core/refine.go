package core

import (
	"fmt"
	"math/rand"
)

// Refiner selects the local refinement algorithm run at each level.
type Refiner int

const (
	// GreedyRefine is the paper's refiner: visit vertices in random order,
	// move each to its maximum-gain partition when that reduces the cut and
	// keeps the load balanced, lock it for the rest of the pass. Converges
	// in a few passes.
	GreedyRefine Refiner = iota
	// FMRefine runs a k-way Fiduccia-Mattheyses pass with gain buckets and
	// best-prefix rollback (ablation comparator).
	FMRefine
	// NoRefine skips refinement entirely (ablation: coarsening + initial
	// partitioning only).
	NoRefine
)

// String names the refiner for reports.
func (r Refiner) String() string {
	switch r {
	case GreedyRefine:
		return "greedy"
	case FMRefine:
		return "fm"
	case NoRefine:
		return "none"
	default:
		return fmt.Sprintf("Refiner(%d)", int(r))
	}
}

// balance captures the load-balance constraint of a refinement level. Its
// load slice is reused across resets.
type balance struct {
	load []int
	max  int // a partition may not exceed this weight
}

// reset recomputes the per-partition loads and the balance ceiling for a new
// level, reusing the load slice.
func (b *balance) reset(g *graph, part []int, k int, tol float64) {
	if cap(b.load) < k {
		b.load = make([]int, k)
	}
	b.load = b.load[:k]
	for i := range b.load {
		b.load[i] = 0
	}
	total := 0
	for v := 0; v < g.n; v++ {
		b.load[part[v]] += int(g.vwgt[v])
		total += int(g.vwgt[v])
	}
	ideal := float64(total) / float64(k)
	b.max = int(ideal*(1+tol)) + 1
	// Never allow the constraint to be tighter than the heaviest vertex, or
	// no move could ever be feasible on very coarse graphs.
	for v := 0; v < g.n; v++ {
		if int(g.vwgt[v]) > b.max {
			b.max = int(g.vwgt[v])
		}
	}
}

func newBalance(g *graph, part []int, k int, tol float64) *balance {
	b := &balance{}
	b.reset(g, part, k, tol)
	return b
}

func (b *balance) canMove(w, from, to int) bool {
	return b.load[to]+w <= b.max
}

func (b *balance) move(w, from, to int) {
	b.load[from] -= w
	b.load[to] += w
}

// fmApplied is one executed FM move, recorded for best-prefix rollback.
type fmApplied struct {
	v, from int32
}

// refineScratch holds every working array of rebalancing and the refiners.
// One instance is allocated per Partition call, sized for the finest graph,
// and reused across all levels and passes of the hierarchy, so the inner
// loops run allocation-free.
type refineScratch struct {
	bal balance

	// Stamped per-partition connectivity: conn[p] is the total edge weight
	// from the vertex last gathered to partition p, valid while
	// connVersion[p] == connCur. Each gather is O(degree); the 64-bit stamp
	// cannot wrap and alias a stale entry.
	conn        []int32
	connVersion []int64
	connCur     int64
	connTouched []int32

	// order is the visit-order buffer of greedy refinement and rebalancing.
	order []int32

	// FM state.
	moved   []bool
	history []fmApplied
	gb      gainBuckets
}

// newRefineScratch sizes the scratch for graphs up to n vertices and k
// partitions. Coarser levels reuse prefixes of the same arrays.
func newRefineScratch(n, k int) *refineScratch {
	return &refineScratch{
		conn:        make([]int32, k),
		connVersion: make([]int64, k),
		order:       make([]int32, n),
		moved:       make([]bool, n),
	}
}

// gather fills the connectivity of v and returns the list of partitions v
// touches. The returned slice is valid until the next call.
func (s *refineScratch) gather(g *graph, part []int, v int) []int32 {
	s.connCur++
	s.connTouched = s.connTouched[:0]
	adj, wgt := g.adjOf(v)
	for i, u := range adj {
		p := part[u]
		if s.connVersion[p] != s.connCur {
			s.connVersion[p] = s.connCur
			s.conn[p] = 0
			s.connTouched = append(s.connTouched, int32(p))
		}
		s.conn[p] += wgt[i]
	}
	return s.connTouched
}

// connOf returns the gathered connectivity to partition p.
func (s *refineScratch) connOf(p int) int {
	if s.connVersion[p] != s.connCur {
		return 0
	}
	return int(s.conn[p])
}

// identityOrder returns the reusable visit-order buffer filled with 0..n-1.
func (s *refineScratch) identityOrder(n int) []int32 {
	order := s.order[:n]
	for i := range order {
		order[i] = int32(i)
	}
	return order
}

// rebalance moves vertices out of partitions that exceed the balance
// tolerance, preferring moves that lose the least connectivity. Refinement
// proper never rebalances (it only applies cut-improving moves), so this
// runs once per level before it.
func rebalance(g *graph, part []int, k int, tol float64, rng *rand.Rand, s *refineScratch) {
	if k < 2 {
		return
	}
	b := &s.bal
	b.reset(g, part, k, tol)
	order := s.identityOrder(g.n)
	for pass := 0; pass < 8; pass++ {
		overloaded := false
		for _, l := range b.load {
			if l > b.max {
				overloaded = true
				break
			}
		}
		if !overloaded {
			return
		}
		changed := false
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, vi := range order {
			v := int(vi)
			from := part[v]
			if b.load[from] <= b.max {
				continue
			}
			s.gather(g, part, v)
			bestTo, bestScore := -1, -1<<62
			for p := 0; p < k; p++ {
				if p == from || b.load[p]+int(g.vwgt[v]) > b.max {
					continue
				}
				// Prefer the destination keeping the most edges internal,
				// breaking ties toward the lightest partition.
				score := s.connOf(p)*1024 - b.load[p]
				if score > bestScore {
					bestScore, bestTo = score, p
				}
			}
			if bestTo >= 0 {
				part[v] = bestTo
				b.move(int(g.vwgt[v]), from, bestTo)
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// greedyRefine runs the paper's greedy k-way refinement until a pass yields
// no gain or maxPasses is reached. It returns the number of passes run.
func greedyRefine(g *graph, part []int, k int, tol float64, maxPasses int, rng *rand.Rand, s *refineScratch) int {
	if k < 2 {
		return 0
	}
	b := &s.bal
	b.reset(g, part, k, tol)
	order := s.identityOrder(g.n)
	passes := 0
	for pass := 0; pass < maxPasses; pass++ {
		passes++
		improved := false
		// Locking is implicit: each vertex is visited exactly once per pass
		// and a moved vertex is not revisited until the next pass.
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, vi := range order {
			v := int(vi)
			from := part[v]
			touched := s.gather(g, part, v)
			internal := s.connOf(from)
			bestGain, bestTo := 0, -1
			for _, p := range touched {
				if int(p) == from {
					continue
				}
				gain := s.connOf(int(p)) - internal
				if gain > bestGain && b.canMove(int(g.vwgt[v]), from, int(p)) {
					bestGain, bestTo = gain, int(p)
				}
			}
			if bestTo >= 0 {
				part[v] = bestTo
				b.move(int(g.vwgt[v]), from, bestTo)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return passes
}

// maxGainBucket caps the bucket array of the FM gain structure. Gains beyond
// the cap share the extreme buckets: selection order is approximate there,
// but recorded gains stay exact, so cut accounting and best-prefix rollback
// are unaffected.
const maxGainBucket = 4096

// gainBuckets is the classic FM gain-bucket structure: an array of
// doubly-linked vertex lists indexed by (clamped) gain, so selecting the
// best feasible move and relocating a vertex after a neighbor moves are both
// O(1) in the common case — no heap, no per-move allocation.
type gainBuckets struct {
	head   []int32 // bucket heads, index = clamp(gain) + bias; -1 = empty
	prev   []int32 // intrusive doubly-linked list over vertices
	next   []int32
	gain   []int32 // exact gain of the cached best move of v
	target []int32 // cached best destination partition of v
	in     []bool  // v currently linked
	bias   int32
	maxPtr int32 // highest possibly non-empty bucket
}

// reset prepares the buckets for a graph of n vertices with per-move gains
// bounded by ±bound.
func (gb *gainBuckets) reset(n int, bound int32) {
	if bound > maxGainBucket {
		bound = maxGainBucket
	}
	size := int(2*bound + 1)
	if cap(gb.head) < size {
		gb.head = make([]int32, size)
	}
	gb.head = gb.head[:size]
	for i := range gb.head {
		gb.head[i] = -1
	}
	if cap(gb.prev) < n {
		gb.prev = make([]int32, n)
		gb.next = make([]int32, n)
		gb.gain = make([]int32, n)
		gb.target = make([]int32, n)
		gb.in = make([]bool, n)
	}
	gb.prev = gb.prev[:n]
	gb.next = gb.next[:n]
	gb.gain = gb.gain[:n]
	gb.target = gb.target[:n]
	gb.in = gb.in[:n]
	for i := range gb.in {
		gb.in[i] = false
	}
	gb.bias = bound
	gb.maxPtr = -1
}

func (gb *gainBuckets) bucketOf(gain int32) int32 {
	b := gain + gb.bias
	if b < 0 {
		b = 0
	}
	if b >= int32(len(gb.head)) {
		b = int32(len(gb.head)) - 1
	}
	return b
}

func (gb *gainBuckets) insert(v, gain, target int32) {
	gb.gain[v], gb.target[v] = gain, target
	b := gb.bucketOf(gain)
	h := gb.head[b]
	gb.prev[v], gb.next[v] = -1, h
	if h >= 0 {
		gb.prev[h] = v
	}
	gb.head[b] = v
	gb.in[v] = true
	if b > gb.maxPtr {
		gb.maxPtr = b
	}
}

func (gb *gainBuckets) remove(v int32) {
	if !gb.in[v] {
		return
	}
	gb.in[v] = false
	p, nx := gb.prev[v], gb.next[v]
	if p >= 0 {
		gb.next[p] = nx
	} else {
		gb.head[gb.bucketOf(gb.gain[v])] = nx
	}
	if nx >= 0 {
		gb.prev[nx] = p
	}
}

// fmRefine runs k-way Fiduccia-Mattheyses passes: gain buckets over the best
// (vertex, target partition) moves, each vertex moved at most once per pass,
// negative gain moves allowed, and the pass rolled back to its best prefix.
func fmRefine(g *graph, part []int, k int, tol float64, maxPasses int, rng *rand.Rand, s *refineScratch) int {
	if k < 2 {
		return 0
	}
	passes := 0
	for pass := 0; pass < maxPasses; pass++ {
		passes++
		if !fmPass(g, part, k, tol, s) {
			break
		}
	}
	return passes
}

// fmBestMove computes v's best external move. ok is false when v has no
// external connectivity (interior vertices are not candidates, as before).
func (s *refineScratch) fmBestMove(g *graph, part []int, v int) (gain, target int32, ok bool) {
	from := part[v]
	touched := s.gather(g, part, v)
	internal := s.connOf(from)
	best, bestTo := 0, int32(-1)
	for _, p := range touched {
		if int(p) == from {
			continue
		}
		if c := s.connOf(int(p)); bestTo < 0 || c > best {
			best, bestTo = c, p
		}
	}
	if bestTo < 0 {
		return 0, 0, false
	}
	return int32(best - internal), bestTo, true
}

// fmBestFeasibleMove is fmBestMove restricted to destinations that keep
// balance; the selection scan falls back to it when a vertex's cached best
// target is balance-blocked, so the second-best move is not lost (the old
// heap refiner enqueued one move per touched partition).
func (s *refineScratch) fmBestFeasibleMove(g *graph, part []int, v int, b *balance) (gain, target int32, ok bool) {
	from := part[v]
	touched := s.gather(g, part, v)
	internal := s.connOf(from)
	w := int(g.vwgt[v])
	best, bestTo := 0, int32(-1)
	for _, p := range touched {
		if int(p) == from || !b.canMove(w, from, int(p)) {
			continue
		}
		if c := s.connOf(int(p)); bestTo < 0 || c > best {
			best, bestTo = c, p
		}
	}
	if bestTo < 0 {
		return 0, 0, false
	}
	return int32(best - internal), bestTo, true
}

func fmPass(g *graph, part []int, k int, tol float64, s *refineScratch) bool {
	b := &s.bal
	b.reset(g, part, k, tol)

	bound := 1
	for v := 0; v < g.n; v++ {
		if w := g.adjWeightTotal(v); w > bound {
			bound = w
		}
	}
	gb := &s.gb
	gb.reset(g.n, int32(bound))
	moved := s.moved[:g.n]
	for i := range moved {
		moved[i] = false
	}
	for v := 0; v < g.n; v++ {
		if gain, to, ok := s.fmBestMove(g, part, v); ok {
			gb.insert(int32(v), gain, to)
		}
	}

	s.history = s.history[:0]
	bestCut, curCut := 0, 0
	bestIdx := 0

	for {
		// Select the highest-gain move whose destination keeps balance.
		// Gains are maintained eagerly (neighbors are rebucketed after each
		// move), so the cached gain is exact.
		for gb.maxPtr >= 0 && gb.head[gb.maxPtr] < 0 {
			gb.maxPtr--
		}
		v := int32(-1)
	scan:
		for bk := gb.maxPtr; bk >= 0; bk-- {
			for cand := gb.head[bk]; cand >= 0; {
				nxt := gb.next[cand]
				if b.canMove(int(g.vwgt[cand]), part[cand], int(gb.target[cand])) {
					v = cand
					break scan
				}
				// The cached best target is balance-blocked: fall back to
				// the best feasible destination. Same bucket → take it now;
				// lower gain → relocate and keep scanning. No feasible
				// destination at all → unlink the vertex so later scans do
				// not re-gather it (a neighbor's move rebuckets it, exactly
				// when its feasibility can have changed).
				if ngain, nto, ok := s.fmBestFeasibleMove(g, part, int(cand), b); ok {
					if gb.bucketOf(ngain) == bk {
						gb.gain[cand], gb.target[cand] = ngain, nto
						v = cand
						break scan
					}
					gb.remove(cand)
					gb.insert(cand, ngain, nto)
				} else {
					gb.remove(cand)
				}
				cand = nxt
			}
		}
		if v < 0 {
			break
		}
		gain, to := gb.gain[v], int(gb.target[v])
		gb.remove(v)
		moved[v] = true
		from := part[v]
		part[v] = to
		b.move(int(g.vwgt[v]), from, to)
		s.history = append(s.history, fmApplied{v: v, from: int32(from)})
		curCut -= int(gain)
		if curCut < bestCut {
			bestCut = curCut
			bestIdx = len(s.history)
		}
		// Rebucket the unmoved neighbors: their best move may have changed.
		adj, _ := g.adjOf(int(v))
		for _, u := range adj {
			if moved[u] {
				continue
			}
			gb.remove(u)
			if ngain, nto, ok := s.fmBestMove(g, part, int(u)); ok {
				gb.insert(u, ngain, nto)
			}
		}
		// Bound the pass: once far past the best prefix, stop exploring.
		if len(s.history) > bestIdx+g.n/4+16 {
			break
		}
	}
	// Roll back to the best prefix.
	for i := len(s.history) - 1; i >= bestIdx; i-- {
		part[s.history[i].v] = int(s.history[i].from)
	}
	return bestCut < 0
}

package timewarp

import "sync/atomic"

// routeTable is the kernel's mutable LP→cluster mapping. It replaces the
// frozen Config.ClusterOf copy: every send consults it, and GVT-synchronized
// migration rewrites entries while the simulation runs. Entries are read and
// written with atomics, so a cluster may observe a route one migration stale —
// never torn. A stale read is harmless by construction: the old home forwards
// events for LPs it no longer owns to their current home (stale-route
// forwarding, see cluster.deliver), so an event routed under any epoch still
// reaches the LP.
type routeTable struct {
	of    []int32
	epoch int64
}

// newRouteTable runs during kernel construction, before any cluster
// goroutine exists, so the seeding writes below need no atomics.
//
//kernelvet:single-threaded
func newRouteTable(clusterOf []int) *routeTable {
	rt := &routeTable{of: make([]int32, len(clusterOf))}
	for lp, c := range clusterOf {
		rt.of[lp] = int32(c)
	}
	return rt
}

// get returns the current home cluster of lp.
func (rt *routeTable) get(lp LPID) int {
	return int(atomic.LoadInt32(&rt.of[lp]))
}

// set rewrites the home cluster of lp. Only the cluster that currently owns
// lp calls it, immediately before handing the LP off.
func (rt *routeTable) set(lp LPID, c int) {
	atomic.StoreInt32(&rt.of[lp], int32(c))
}

// bump advances the table epoch; one bump per migration batch.
func (rt *routeTable) bump() {
	atomic.AddInt64(&rt.epoch, 1)
}

// Epoch returns the number of route-table rewrites so far. Events sent under
// an older epoch may still be in flight; stale-route forwarding delivers them.
func (rt *routeTable) Epoch() int64 {
	return atomic.LoadInt64(&rt.epoch)
}

// RouteOf reports the current home cluster of lp. Every routing decision in
// the kernel goes through it, and tools and tests use it to observe
// migrations; safe to call concurrently with a run.
func (k *Kernel) RouteOf(lp LPID) int { return k.routes.get(lp) }

// RouteEpoch reports how many times the routing table has been rewritten.
func (k *Kernel) RouteEpoch() int64 { return k.routes.Epoch() }

// LoadSnapshot is the per-LP activity observed between two load rounds: the
// kernel's measurement of the runtime communication graph, handed to the
// Config.Rebalance callback. Committed counts are the window's vertex
// weights, the send matrix its edge weights. All slices are owned by the
// kernel and reused across rounds — the callback must not retain them past
// the call.
type LoadSnapshot struct {
	// NumClusters is the cluster count of the run.
	NumClusters int
	// ClusterOf is the current route of every LP (the assignment the
	// rebalancer refines from).
	ClusterOf []int
	// Committed counts, per LP, the events fossil collection committed since
	// the previous load round.
	Committed []uint64
	// The observed send matrix in CSR form: LP i sent EdgeCnt[j] positive
	// events to EdgeDst[j] for j in [EdgeOff[i], EdgeOff[i+1]). Local and
	// remote sends both count — the matrix is the locality structure a
	// rebalancer exploits, independent of the current placement.
	EdgeOff []int32
	EdgeDst []LPID
	EdgeCnt []uint64
	// SmoothedCommitted is the EWMA of Committed across load rounds
	// (coefficient loadSmoothing), seeded with the first window: a decaying
	// view of per-LP load that damps one-window transients so a rebalancer
	// chases persistent hotspots, not noise. Kernel-owned like every other
	// slice here.
	SmoothedCommitted []float64

	clusterLoadF []float64 // reused by SmoothedImbalance
}

// SmoothedImbalance returns max/mean of the per-cluster EWMA-smoothed load —
// 1.0 is perfect balance, and also the answer when nothing was committed. It
// is the decayed view a rebalancer should gate on, so one quiet or one
// frantic window does not trigger (or mask) a migration by itself.
func (s *LoadSnapshot) SmoothedImbalance() float64 {
	s.clusterLoadF = zeroed(s.clusterLoadF, s.NumClusters)
	for lp, c := range s.ClusterOf {
		s.clusterLoadF[c] += s.SmoothedCommitted[lp]
	}
	var total, max float64
	for _, l := range s.clusterLoadF {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1.0
	}
	return max / (total / float64(len(s.clusterLoadF)))
}

// loadSmoothing is the EWMA coefficient of the smoothed load view:
// s ← loadSmoothing·window + (1−loadSmoothing)·s. Half the weight on the
// latest window lets the rebalancer track a persistent hotspot within a few
// rounds without chasing one-window transients.
const loadSmoothing = 0.5

// smoothLoad folds one load round's committed window into the kernel's EWMA
// view and exposes it on the snapshot. Coordinator-only, once per load
// round; the first round seeds the EWMA with its raw window so early
// rebalance decisions are not biased toward zero.
func (k *Kernel) smoothLoad(s *LoadSnapshot) {
	if k.ewma == nil {
		k.ewma = make([]float64, len(s.Committed))
		for lp, c := range s.Committed {
			k.ewma[lp] = float64(c)
		}
	} else {
		for lp, c := range s.Committed {
			k.ewma[lp] = loadSmoothing*float64(c) + (1-loadSmoothing)*k.ewma[lp]
		}
	}
	s.SmoothedCommitted = k.ewma
}

// loadSnapBuf is one cluster's section of a load round: the counters of the
// LPs it owned at capture time, copied out (and reset) on the owning
// goroutine so the coordinator can read them race-free after the round's
// acks. Slices are reused across rounds.
type loadSnapBuf struct {
	lps       []LPID
	committed []uint64
	// edgeOff[i] is the end offset of lps[i]'s edges in edgeDst/edgeCnt.
	edgeOff []int32
	edgeDst []LPID
	edgeCnt []uint64
}

func (b *loadSnapBuf) reset() {
	b.lps = b.lps[:0]
	b.committed = b.committed[:0]
	b.edgeOff = b.edgeOff[:0]
	b.edgeDst = b.edgeDst[:0]
	b.edgeCnt = b.edgeCnt[:0]
}

// captureLoad copies this cluster's per-LP load counters into its snapshot
// buffer and resets them, so each load round observes the activity window
// since the previous one. Runs on the owning goroutine; the subsequent
// atomic ack publishes the buffer to the coordinator.
func (c *cluster) captureLoad() {
	// Fossil-collect at the GVT that opened this round first, so the
	// window's committed counts include everything that GVT advance made
	// permanent (without this, commits lag the snapshot by one window).
	c.maybeFossil()
	b := &c.kernel.loadBufs[c.id]
	b.reset()
	for _, lp := range c.lps {
		b.lps = append(b.lps, lp.id)
		b.committed = append(b.committed, lp.loadCommitted)
		lp.loadCommitted = 0
		for i, dst := range lp.sendDst {
			if n := lp.sendCnt[i]; n != 0 {
				b.edgeDst = append(b.edgeDst, dst)
				b.edgeCnt = append(b.edgeCnt, n)
				lp.sendCnt[i] = 0
			}
		}
		b.edgeOff = append(b.edgeOff, int32(len(b.edgeDst)))
	}
}

// buildSnapshot merges the per-cluster load buffers into the kernel's reused
// LoadSnapshot. Coordinator-only, after every cluster acked the load round.
// An LP can legitimately appear in two buffers — its old home captured it,
// then executed a pending migration order, and the new home captured it
// again in the same round — with disjoint activity windows (counters reset
// at each capture), so committed counts and CSR rows accumulate rather than
// overwrite.
func (k *Kernel) buildSnapshot() *LoadSnapshot {
	s := &k.snap
	n := len(k.lps)
	s.NumClusters = len(k.clusters)
	s.ClusterOf = sized(s.ClusterOf, n)
	s.Committed = zeroed(s.Committed, n)
	s.EdgeOff = zeroed(s.EdgeOff, n+1)
	// The routing table is the authoritative placement: it also covers an
	// LP whose payload is in flight during the round (in no buffer), whose
	// route already names the destination it is travelling to.
	for lp := range s.ClusterOf {
		s.ClusterOf[lp] = k.RouteOf(LPID(lp))
	}
	// Pass 1: accumulate committed counts and row lengths → prefix offsets.
	for ci := range k.loadBufs {
		b := &k.loadBufs[ci]
		start := int32(0)
		for i, lp := range b.lps {
			s.Committed[lp] += b.committed[i]
			s.EdgeOff[lp+1] += b.edgeOff[i] - start
			start = b.edgeOff[i]
		}
	}
	for i := 1; i <= n; i++ {
		s.EdgeOff[i] += s.EdgeOff[i-1]
	}
	total := int(s.EdgeOff[n])
	s.EdgeDst = sized(s.EdgeDst, total)
	s.EdgeCnt = sized(s.EdgeCnt, total)
	// Pass 2: scatter each buffer's rows behind a per-LP fill cursor, so a
	// twice-captured LP's windows land back to back in its row (duplicate
	// destinations are fine — consumers fold parallel edges).
	k.edgeFill = sized(k.edgeFill, n)
	copy(k.edgeFill, s.EdgeOff[:n])
	for ci := range k.loadBufs {
		b := &k.loadBufs[ci]
		start := int32(0)
		for i, lp := range b.lps {
			row := b.edgeOff[i] - start
			copy(s.EdgeDst[k.edgeFill[lp]:], b.edgeDst[start:b.edgeOff[i]])
			copy(s.EdgeCnt[k.edgeFill[lp]:], b.edgeCnt[start:b.edgeOff[i]])
			k.edgeFill[lp] += row
			start = b.edgeOff[i]
		}
	}
	return s
}

// sized returns s resized to n, preserving nothing: callers overwrite every
// element. zeroed additionally clears reused capacity.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func zeroed[T any](s []T, n int) []T {
	s = sized(s, n)
	clear(s)
	return s
}

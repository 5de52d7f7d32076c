package timewarp

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/minheap"
)

// ClusterStats counts what one cluster (simulation node) did during a run.
type ClusterStats struct {
	// EventsProcessed counts every event executed, including executions
	// later undone by rollback.
	EventsProcessed uint64 `json:"events_processed"`
	// EventsCommitted counts events made permanent by fossil collection.
	EventsCommitted uint64 `json:"events_committed"`
	// EventsRolledBack counts event executions undone by rollbacks.
	EventsRolledBack uint64 `json:"events_rolled_back"`
	// Rollbacks counts rollback episodes.
	Rollbacks uint64 `json:"rollbacks"`
	// RemoteMessages counts positive application messages sent to other
	// clusters (the paper's "Number of Application Messages").
	RemoteMessages uint64 `json:"remote_messages"`
	// LocalMessages counts positive messages delivered inside the cluster.
	LocalMessages uint64 `json:"local_messages"`
	// AntiMessages counts anti-messages sent (to any destination).
	AntiMessages uint64 `json:"anti_messages"`
	// Migrations counts LPs this cluster packed and handed to a new home
	// under dynamic rebalancing.
	Migrations uint64 `json:"migrations"`
	// ForwardedMessages counts events that arrived under a stale routing
	// epoch and were forwarded to the receiver's current home.
	ForwardedMessages uint64 `json:"forwarded_messages"`
	// Stalls counts parks on the optimism window: all local work lay beyond
	// the horizon and the progress floor had not yet reached it.
	Stalls uint64 `json:"stalls"`
	// StallTimerWakes counts stall parks ended by the idleWait backstop
	// rather than by a progress-floor or mailbox wakeup.
	StallTimerWakes uint64 `json:"stall_timer_wakes"`
}

func (s *ClusterStats) add(o ClusterStats) {
	s.EventsProcessed += o.EventsProcessed
	s.EventsCommitted += o.EventsCommitted
	s.EventsRolledBack += o.EventsRolledBack
	s.Rollbacks += o.Rollbacks
	s.RemoteMessages += o.RemoteMessages
	s.LocalMessages += o.LocalMessages
	s.AntiMessages += o.AntiMessages
	s.Migrations += o.Migrations
	s.ForwardedMessages += o.ForwardedMessages
	s.Stalls += o.Stalls
	s.StallTimerWakes += o.StallTimerWakes
}

// schedEntry is a lazily maintained LTSF scheduler entry: the LP claimed to
// have work at time t when the entry was pushed.
type schedEntry struct {
	t  Time
	lp *lpRuntime
}

// schedQueue is the LTSF scheduler: a min-heap of timestamp buckets, each a
// stack of the LPs scheduled at its time. A cluster's entries crowd onto a
// few distinct times (a gate-level circuit advances in small delay steps:
// s9234 at k=1 queues about 390 entries over 3–4 times), so a push usually
// lands on a live bucket found through the direct-mapped cache and a pop
// takes from the top bucket, neither comparing keys. A cache miss opens a
// new bucket; a second bucket for a time already live is harmless, so the
// worst case stays the plain heap's O(log n). Buckets and entries live in
// index-addressed arenas shared by all buckets, and emptied ones are
// recycled, so the queue allocates only while its peak size grows.
//
// Links are 1 + an arena index, so 0 means none and the zero value is an
// empty queue.
type schedQueue struct {
	heap    []schedSlot   // live buckets, a min-heap by time
	buckets []schedBucket // bucket arena
	nodes   []schedNode   // entry arena
	freeB   []int32       // links to recycled buckets
	freeN   int32         // link to the first recycled node
	// cache[t&(schedCacheSize-1)] links to a live bucket of time t, or is
	// 0. A bucket's slot is cleared when the bucket is recycled, so every
	// non-zero slot names a live bucket and a hit only has to check the
	// time.
	cache [schedCacheSize]int32
	n     int // entries queued across all buckets
}

// schedCacheSize is the number of bucket-cache slots, a power of two. It
// covers far more distinct times than a cluster keeps live on the
// benchmark circuits; colliding times only cost a cache miss.
const schedCacheSize = 64

// schedSlot is a heap element: a live bucket and its time, copied so the
// sift compares without reaching into the arena.
type schedSlot struct {
	t Time
	b int32
}

func slotLess(a, b *schedSlot) bool { return a.t < b.t }

// schedBucket is one timestamp's queued LPs, a stack linked through the
// node arena from top. The order among equal times is immaterial to LTSF,
// and last in, first out lets an entry a window-stalled cluster pops and
// pushes back reuse its own node.
type schedBucket struct {
	t   Time
	top int32
}

// schedNode is one queued LP; next links to the node below it in its
// bucket, or, once recycled, to the next free node.
type schedNode struct {
	lp   *lpRuntime
	next int32
}

func (q *schedQueue) len() int { return q.n }

// min returns the earliest queued time; the queue must be non-empty.
func (q *schedQueue) min() Time { return q.heap[0].t }

// push queues e on the live bucket of time e.t when the cache names one,
// and on a new bucket otherwise.
//
//kernelvet:noalloc
func (q *schedQueue) push(e schedEntry) {
	q.n++
	var node int32
	if node = q.freeN; node > 0 {
		q.freeN = q.nodes[node-1].next
	} else {
		q.nodes = append(q.nodes, schedNode{})
		node = int32(len(q.nodes))
	}
	slot := &q.cache[e.t&(schedCacheSize-1)]
	if b := *slot; b > 0 && q.buckets[b-1].t == e.t {
		q.nodes[node-1] = schedNode{lp: e.lp, next: q.buckets[b-1].top}
		q.buckets[b-1].top = node
		return
	}
	q.nodes[node-1] = schedNode{lp: e.lp}
	var b int32
	if n := len(q.freeB); n > 0 {
		b = q.freeB[n-1]
		q.freeB = q.freeB[:n-1]
	} else {
		q.buckets = append(q.buckets, schedBucket{})
		b = int32(len(q.buckets))
	}
	q.buckets[b-1] = schedBucket{t: e.t, top: node}
	*slot = b
	minheap.Push(&q.heap, schedSlot{t: e.t, b: b}, slotLess)
}

// pop removes the top entry of the earliest bucket, recycling the bucket
// once it is empty; the queue must be non-empty.
//
//kernelvet:noalloc
func (q *schedQueue) pop() schedEntry {
	q.n--
	top := q.heap[0]
	b := &q.buckets[top.b-1]
	node := b.top
	nd := &q.nodes[node-1]
	lp := nd.lp
	b.top = nd.next
	*nd = schedNode{next: q.freeN}
	q.freeN = node
	if b.top == 0 {
		minheap.Pop(&q.heap, slotLess)
		if slot := &q.cache[top.t&(schedCacheSize-1)]; *slot == top.b {
			*slot = 0
		}
		q.freeB = append(q.freeB, top.b)
	}
	return schedEntry{t: top.t, lp: lp}
}

// idleWait bounds how long an idle or window-stalled cluster blocks on its
// mailbox before re-checking scheduler, GVT and optimism-window state. It is
// a liveness backstop: mail, control bits and (for a window-stalled cluster)
// the progress floor crossing its horizon all wake the wait directly.
const idleWait = 50 * time.Microsecond

// cluster is one simulation node: a goroutine owning a set of LPs, a batched
// mailbox for inter-cluster messages (transport.go), and a
// lowest-timestamp-first scheduler.
type cluster struct {
	kernel *Kernel
	id     int
	// here reports whether this process hosts the cluster (always, under
	// the in-memory transport); only hosted clusters run goroutines.
	here bool
	lps  []*lpRuntime //kernelvet:owner cluster

	// mail is the inbound side of the batched transport (its own internal
	// synchronization); mailEv/mailHdr are the drained buffers handed back
	// at the next take (double buffering).
	mail    mailbox
	mailEv  []Event    //kernelvet:owner cluster
	mailHdr []batchHdr //kernelvet:owner cluster
	// out holds the per-destination outboxes of not-yet-flushed remote
	// events (out[c.id] stays empty; local messages use localQ).
	out []outbox //kernelvet:owner cluster
	// sentCum/recvCum are the GVT transit ledger, cumulative per round
	// parity: every event and migration payload this cluster flushed
	// (counted once the push or handoff was accepted), and every one it took
	// from its mailbox, delayed heap or payload queue. Both only grow, so
	// the wave-1 drain may read stale copies: a red cluster's acked white
	// sentCum is final, and a lagging recvCum only undercounts — the drain
	// concludes late, never early. On a node that does not host the
	// cluster, recvCum is the mirror its counts frames refresh.
	sentCum [2]paddedCount
	recvCum [2]paddedCount

	// localQ queues intra-cluster deliveries. Local messages are never
	// delivered synchronously from inside LP operations: a rollback that
	// sent an anti-message to a same-cluster LP (or to the LP itself) would
	// otherwise re-enter rollback while queues are mid-mutation. localHead
	// indexes the next undelivered message so draining reuses the backing
	// array instead of re-slicing it away.
	localQ    []Event //kernelvet:owner cluster
	localHead int     //kernelvet:owner cluster
	// delayed holds received batches still "on the wire" under the modeled
	// network latency; they stay in-flight for GVT accounting until
	// delivered.
	delayed delayedHeap  //kernelvet:owner cluster
	sched   schedQueue   //kernelvet:owner cluster
	stats   ClusterStats //kernelvet:owner cluster
	// hist lists the LPs that may hold processed bundles, so fossil
	// collection visits only them (see lpRuntime.inHist). It may still name
	// LPs that migrated away, which fossilCollect drops without touching,
	// and an LP that left and came back before the next pass is listed
	// twice until its history empties; collecting it twice is a no-op.
	hist []*lpRuntime //kernelvet:owner cluster

	eventsSinceGVT int //kernelvet:owner cluster
	idleLoops      int //kernelvet:owner cluster
	// published is the next work time this cluster last stored into
	// Kernel.published (seeded, like that entry, to TimeInfinity), so
	// Kernel.publish can skip an unchanged store without reading the shared
	// cache line.
	published Time //kernelvet:owner cluster

	// color is the GVT round this cluster has joined; its parity stamps
	// every flushed batch and picks the sentCum it is counted in.
	color int64 //kernelvet:owner cluster
	// redMin is the minimum receive time this cluster has flushed since
	// joining the current round — the bound on its batches that may still
	// be in transit when the round's second cut closes.
	redMin Time //kernelvet:owner cluster
	// reportedRound is the last round this cluster sent a wave-2 report
	// for; it makes duplicate report wakeups harmless.
	reportedRound int64 //kernelvet:owner cluster
	// fossilAt is the GVT this cluster last fossil-collected at.
	fossilAt Time //kernelvet:owner cluster
	// idleTimer is the reusable timer behind waitMail; time.After would
	// allocate a fresh timer channel on every idle wait.
	idleTimer *time.Timer //kernelvet:owner cluster

	// owned[lp] reports whether this cluster currently owns lp. Only this
	// cluster's goroutine reads or writes its own slice; ownership moves
	// via the migration handoff (migrate.go), never by another goroutine
	// touching it.
	owned []bool //kernelvet:owner cluster
	// limbo parks events addressed to LPs that are routed here but whose
	// migration payload has not arrived yet; localMin folds it into GVT
	// reports so the floor covers parked events.
	limbo []Event //kernelvet:owner cluster
	// loadSeen is the last load round this cluster captured counters for.
	loadSeen int64 //kernelvet:owner cluster
	// Migration mailboxes: the coordinator appends orders, source clusters
	// append payloads; migFlag makes the common no-migration case one
	// atomic load. The scratch slices double-buffer the swap in
	// checkMigrate.
	migMu       sync.Mutex
	migFlag     int32
	migOrders   []migOrder   // guarded by migMu
	migIn       []migPayload // guarded by migMu
	migScratchO []migOrder   // guarded by migMu
	migScratchP []migPayload // guarded by migMu
}

// route delivers an event to its destination LP's current home cluster (per
// the routing table): locally via localQ, or by staging it in the
// destination's outbox for a batched flush (transport.go). positive
// distinguishes application messages from anti-messages for accounting.
//
// The local branch does no transit accounting at all. An intra-cluster
// message can never be "in flight" across a GVT cut observation: it is
// appended and drained by this same goroutine, and this goroutine is also
// the only one that joins cuts and files wave-2 reports (checkGVT). Any cut
// this cluster observes therefore happens at a program point where the
// event is either not yet created, still in localQ (folded into the report
// by localMin), or already delivered into an LP's queues (covered by the
// LP's pending minimum) — there is no interleaving in which another
// cluster's counter or report would have to account for it.
func (c *cluster) route(ev Event, positive bool) {
	dst := c.kernel.RouteOf(ev.Receiver)
	if dst == c.id {
		if positive {
			c.stats.LocalMessages++
		}
		c.localQ = append(c.localQ, ev)
		return
	}
	if positive {
		c.stats.RemoteMessages++
	}
	c.stageRemote(dst, ev)
}

// drainLocal delivers every queued intra-cluster message, including those
// appended while draining (rollbacks can emit further local anti-messages).
// Same-goroutine delivery: no locks, no atomics (see route). Returns the
// number delivered.
func (c *cluster) drainLocal() int {
	n := 0
	for c.localHead < len(c.localQ) {
		ev := c.localQ[c.localHead]
		c.localHead++
		c.deliver(ev)
		n++
	}
	c.localQ = c.localQ[:0]
	c.localHead = 0
	return n
}

// sendAnti emits the anti-message for a previously sent positive event.
func (c *cluster) sendAnti(pos Event) {
	anti := pos
	anti.Anti = true
	c.stats.AntiMessages++
	c.route(anti, false)
}

// deliver hands a received event to its LP and refreshes the scheduler. An
// event for an LP this cluster does not own was routed under a stale epoch:
// it is forwarded to the LP's current home, or parked in limbo when the LP
// is migrating here and its payload has not landed yet.
func (c *cluster) deliver(ev Event) {
	if !c.owned[ev.Receiver] {
		if c.kernel.RouteOf(ev.Receiver) != c.id {
			c.forward(ev)
		} else {
			c.parkLimbo(ev)
		}
		return
	}
	lp := c.kernel.lps[ev.Receiver]
	if ev.Anti {
		lp.annihilate(ev)
	} else {
		lp.enqueue(ev)
	}
	c.schedule(lp)
}

// schedule refreshes lp's scheduler entry if its earliest work moved below
// the tracked entry (lp.schedT). The gate keeps batch delivery from pushing
// one scheduler entry per event: only the first event of a batch that
// lowers the LP's next work time touches the scheduler.
func (c *cluster) schedule(lp *lpRuntime) {
	if t := lp.nextTime(); t < lp.schedT {
		c.sched.push(schedEntry{t: t, lp: lp})
		lp.schedT = t
	}
}

// checkGVT runs the cluster-side half of the asynchronous GVT protocol:
// join a newly opened round (wave 1) and report once the coordinator opens
// wave 2. Both steps are cheap atomic probes; every pass of the cluster loop
// (step) calls this once and control bits trigger it early on idle clusters.
func (c *cluster) checkGVT() {
	k := c.kernel
	if r := atomic.LoadInt64(&k.round); r > c.color {
		// Wave 1 cut: turn red. Batches flushed from here on carry the new
		// color; redMin starts tracking their minimum receive time. The ack
		// pins this cluster's white sentCum: it is issued after the color
		// flip on this same goroutine, so no later flush can raise the
		// white count the coordinator reads.
		c.color = r
		c.redMin = TimeInfinity
		k.sendCtrl(coordCluster, ctrlMsg{typ: frameAckCut, ack: wireAckCut{
			cluster: int32(c.id),
			sent0:   atomic.LoadInt64(&c.sentCum[0].n),
			sent1:   atomic.LoadInt64(&c.sentCum[1].n),
		}})
	}
	if r := atomic.LoadInt64(&k.reportRound); r == c.color && c.reportedRound < r {
		// Wave 2: every pre-cut batch is accounted for (the white received
		// counts caught up with the white sent counts before the
		// coordinator opened this wave, and
		// any that landed here were delivered before this call on this
		// goroutine), so min(local work, red flushes) is a sound
		// contribution. localMin folds in events still buffered in this
		// cluster's outboxes and local queue — no sent counter covers them
		// yet, and this report is exactly what covers them.
		c.reportedRound = r
		m := c.localMin()
		if c.redMin < m {
			m = c.redMin
		}
		k.sendCtrl(coordCluster, ctrlMsg{typ: frameReport, rep: wireReport{cluster: int32(c.id), min: m}})
		// Participating in a round resets the request period, preserving
		// the one-round-per-GVTPeriodEvents cadence across the fleet.
		c.eventsSinceGVT = 0
	}
	if r := atomic.LoadInt64(&k.loadRound); r > c.loadSeen {
		// Load round: copy this cluster's per-LP activity counters into its
		// snapshot buffer (resetting the window) and ack. The coordinator
		// reads the buffer only after every cluster acked; the atomic ack
		// publishes it.
		c.loadSeen = r
		c.captureLoad()
		atomic.AddInt32(&k.loadAcks, 1)
	}
}

// maybeFossil commits history whenever the published GVT has advanced past
// the last value this cluster collected at. Fossil collection is local: no
// coordination with other clusters, no round barrier.
func (c *cluster) maybeFossil() {
	if g := c.kernel.GVT(); g > c.fossilAt {
		c.fossilAt = g
		c.fossilCollect(g)
	}
}

// horizon returns the latest time the optimism window lets this cluster
// execute: the progress floor plus the window, or TimeInfinity without a
// window.
func (c *cluster) horizon() Time {
	// A single cluster cannot receive stragglers, so the window would only
	// add stalls there.
	if w := c.kernel.cfg.OptimismWindow; w > 0 && len(c.kernel.clusters) > 1 {
		floor := c.kernel.progressFloor()
		if floor < 0 {
			floor = 0
		}
		if floor < TimeInfinity-w {
			return floor + w
		}
	}
	return TimeInfinity
}

// executeOne runs the next bundle of the lowest-timestamp LP at or below
// horizon. Returns the number of events executed (0 when idle or when all
// work lies beyond the horizon).
func (c *cluster) executeOne(horizon Time) (n int, windowStalled bool) {
	for c.sched.len() > 0 {
		e := c.sched.pop()
		lp := e.lp
		if !c.owned[lp.id] {
			// The LP migrated away after this entry was pushed; its new
			// owner schedules it now, and touching it (schedT included)
			// here would race.
			continue
		}
		if e.t == lp.schedT {
			// This was the LP's tracked entry; it is no longer queued.
			lp.schedT = TimeInfinity
		}
		t := lp.nextTime()
		if t == TimeInfinity {
			continue
		}
		if t > horizon {
			// Beyond the window: put the entry back and wait for the floor
			// to advance. The scheduler minimum is beyond the horizon, so
			// every other entry is too.
			c.schedule(lp)
			return 0, true
		}
		if t != e.t {
			c.schedule(lp)
			continue
		}
		nx := lp.executeNext()
		c.schedule(lp)
		if nx > 0 {
			return nx, false
		}
	}
	return 0, false
}

// nextWork returns the scheduler top, the time this cluster publishes as its
// progress (TimeInfinity when it has nothing scheduled).
func (c *cluster) nextWork() Time {
	if c.sched.len() > 0 {
		return c.sched.min()
	}
	return TimeInfinity
}

// passBundles is the most bundles one pass of the cluster loop (step) runs
// between housekeeping steps. At grain 0 a bundle is about one event, and
// run once per bundle the housekeeping (coordinator step, mailbox drain,
// GVT and migration probes, progress publish) took about
// 9 % of the CPU at k=1 and the publish alone 10 % at k=2 (s9234). A pass
// amortizes it over up to passBundles bundles, while the mail-flag check
// after each bundle keeps straggler receipt prompt. Chosen by the sweep in
// README's Benchmarks section; 1 is the loop of one bundle per pass.
const passBundles = 16

// stepResult is what one pass of the cluster loop reports to its caller.
type stepResult uint8

const (
	// stepBusy: the pass executed a bundle or delivered a message; run the
	// next pass at once.
	stepBusy stepResult = iota
	// stepIdle: nothing to execute and nothing delivered.
	stepIdle
	// stepStalled: no bundle ran because all local work lies beyond the
	// optimism window's horizon.
	stepStalled
)

// step runs one pass of the cluster loop without blocking: the housekeeping
// once (cluster 0's coordinator step, local and mailbox drains, the flush
// triggers, the GVT and migration probes, the optimism-window horizon),
// then up to passBundles bundles, delivering local messages and re-checking
// the flush triggers after each. The pass ends early when a bundle comes
// back empty (idle or window-stalled) or when the mailbox flag is set, so a
// straggler waits behind at most one bundle; the flag probe is the one
// atomic load drainMail makes. The pass then fossil-collects, requests GVT
// on the events it executed and publishes its next work time, each once.
//
// The window is a throttle, not a correctness bound, so the pass keeps the
// horizon it read at its start: a floor that rises meanwhile only ends the
// pass early, and one that falls is seen by the next pass. A stall after at
// least one bundle ends the pass as busy: only a pass that ran no bundle
// reports the stall, so the caller re-probes the horizon before it parks.
func (c *cluster) step() stepResult {
	k := c.kernel
	if c.id == 0 {
		k.coordinate()
	}
	moved := c.drainLocal() + c.drainMail()
	c.maybeFlush()
	c.checkGVT()
	c.checkMigrate()
	bundles, stalled := 0, false
	horizon := c.horizon()
	for bundles < passBundles {
		n, windowStalled := c.executeOne(horizon)
		c.drainLocal()
		if n == 0 {
			stalled = windowStalled
			break
		}
		bundles++
		c.eventsSinceGVT += n
		// The urgency trigger stays per bundle: a held batch the
		// destination has advanced past would otherwise wait out the pass
		// and land as a deeper straggler (the random partition rolled back
		// about a third more with the check once per pass).
		c.maybeFlush()
		if atomic.LoadInt32(&c.mail.flag) != 0 {
			break
		}
	}
	c.maybeFossil()
	if c.eventsSinceGVT >= k.cfg.GVTPeriodEvents {
		c.eventsSinceGVT = 0
		k.requestGVT()
	}
	// Publish progress: this cluster's next work time (the scheduler top is
	// accurate after the last executeOne). The optimism throttle reads the
	// floor over these, and senders read individual entries for the urgency
	// flush trigger; publishing before the caller waits keeps both fresh.
	k.publish(c, c.nextWork())
	switch {
	case bundles > 0 || moved > 0:
		c.idleLoops = 0
		return stepBusy
	case stalled:
		return stepStalled
	}
	c.idleLoops++
	if c.idleLoops >= 16 {
		// Idle clusters nudge the run toward a GVT round so termination
		// (GVT = infinity) is detected promptly.
		k.requestGVTIfStale()
		c.idleLoops = 0
	}
	return stepIdle
}

// run is the cluster's main loop: it calls step until the run is done and
// does the only blocking, the waits between passes. GVT rounds happen
// asynchronously around it: passes keep draining and executing events while
// a round is in flight, and the round's cut/report steps are single checkGVT
// probes. It is the entry point of the cluster goroutine domain: everything
// it reaches (scheduling, delivery, rollback, fossil collection) runs on
// this goroutine and may touch cluster- and LP-owned state freely.
//
//kernelvet:goroutine cluster
func (c *cluster) run() {
	k := c.kernel
	for atomic.LoadInt32(&k.done) == 0 {
		switch c.step() {
		case stepStalled:
			// All local work lies beyond the optimism horizon. Flush held
			// batches (they may be what lets the floor advance elsewhere)
			// and park until the floor reaches next − window; stragglers
			// and GVT wakeups still interrupt the wait instantly. No GVT
			// request: the window throttles against the published progress
			// floor, not GVT.
			c.flushAll()
			c.waitFloor(c.nextWork() - k.cfg.OptimismWindow)
		case stepIdle:
			// The idleness flush trigger: never block on held batches.
			c.flushAll()
			c.waitMail()
		}
	}
	// Terminal GVT is infinity and the network is empty: commit everything
	// that is still uncollected.
	c.fossilCollect(k.GVT())
}

// waitFloor parks a window-stalled cluster until the progress floor reaches
// need, its horizon. The cluster registers need before re-reading the floor
// and Kernel.publishProgress stores a cluster's progress before reading the
// waiter count; with sequentially consistent atomics either this re-read
// sees the new progress or the publisher sees the waiter and wakes it, so no
// floor advance is lost and the timer in waitMail is only a backstop.
func (c *cluster) waitFloor(need Time) {
	k := c.kernel
	atomic.StoreInt64(&k.stallNeed[c.id].t, need)
	atomic.AddInt64(&k.stalled.n, 1)
	if k.progressFloor() < need {
		c.stats.Stalls++
		if c.waitMail() {
			c.stats.StallTimerWakes++
		}
	}
	atomic.StoreInt64(&k.stallNeed[c.id].t, TimeInfinity)
	atomic.AddInt64(&k.stalled.n, -1)
}

// localMin returns the earliest work this cluster is responsible for: the
// earliest live pending event of its LPs, the earliest event parked in
// limbo for an LP whose migration payload is still in flight, and the
// earliest event buffered in the local queue or a per-destination outbox.
// Rollback turns rolled-back sends into anti-messages at once, so those
// are buffered or in flight like any other message. Buffered events are
// not yet counted sent (they are private to this goroutine), so the GVT
// floor must cover them here; delayed batches are NOT folded in — they are
// counted sent but not yet received, which blocks the cut instead.
func (c *cluster) localMin() Time {
	min := TimeInfinity
	for _, lp := range c.lps {
		if t := lp.nextTime(); t < min {
			min = t
		}
	}
	for i := range c.limbo {
		if t := c.limbo[i].RecvTime; t < min {
			min = t
		}
	}
	for i := c.localHead; i < len(c.localQ); i++ {
		if t := c.localQ[i].RecvTime; t < min {
			min = t
		}
	}
	for dst := range c.out {
		if ob := &c.out[dst]; len(ob.buf) > 0 && ob.min < min {
			min = ob.min
		}
	}
	return min
}

// fossilCollect commits history below gvt across the cluster's LPs. Only
// LPs on the history list can hold any; the list keeps those still owned
// with history left and drops the rest. An LP that migrated away belongs to
// its new owner, which re-registered it on adoption, so it is dropped
// without being read.
func (c *cluster) fossilCollect(gvt Time) {
	keep := c.hist[:0]
	for _, lp := range c.hist {
		if !c.owned[lp.id] {
			continue
		}
		c.stats.EventsCommitted += lp.fossilCollect(gvt)
		if lp.hasHistory() {
			keep = append(keep, lp)
		} else {
			lp.inHist = false
		}
	}
	clear(c.hist[len(keep):])
	c.hist = keep
}

package timewarp

import (
	"fmt"
	"sort"
)

// Handler is the application side of a logical process.
//
// Execute receives every event sharing one receive time as a single bundle,
// already sorted by (sender, ID). It may send events into the strict future
// (recvTime > now) via the Context. The kernel saves the LP's state with
// EncodeState before every bundle and rolls it back with DecodeState, so
// Execute must confine all mutable simulation state to what EncodeState
// captures. The events slice is owned by the kernel and recycled after the
// bundle commits, and the Context is reused between bundles: Execute must
// not retain either beyond the call.
type Handler interface {
	// Init runs once before the simulation starts; it may send initial
	// events (including to the LP itself) with any recvTime >= 0.
	Init(ctx *Context)
	// Execute processes the bundle of events at virtual time now.
	Execute(ctx *Context, now Time, events []Event)
	// EncodeState appends the LP's current simulation state to buf and
	// returns the extended slice. The encoding is the handler's own.
	EncodeState(buf []byte) []byte
	// DecodeState replaces the LP's state with one EncodeState produced,
	// here or on a replica built from the same inputs in another process.
	// It must reject malformed data without changing the state, and must
	// not retain data, which the kernel reuses.
	DecodeState(data []byte) error
}

// Context is the kernel interface handed to Handler methods.
type Context struct {
	lp      *lpRuntime
	cluster *cluster
	now     Time
	inInit  bool
}

// Self returns the LP's id.
func (ctx *Context) Self() LPID { return ctx.lp.id }

// Now returns the receive time of the bundle being executed.
func (ctx *Context) Now() Time { return ctx.now }

// Send schedules an event for LP `to` at virtual time recvTime, which must
// be strictly greater than Now (except during Init, where any time >= 0 is
// legal).
func (ctx *Context) Send(to LPID, recvTime Time, kind, value int32) {
	ctx.SendP(to, recvTime, kind, value, Payload{})
}

// SendP is Send with a wide payload block attached (see Payload). A zero
// payload is equivalent to Send and costs nothing extra on the wire.
func (ctx *Context) SendP(to LPID, recvTime Time, kind, value int32, pay Payload) {
	if !ctx.inInit && recvTime <= ctx.now {
		panic(fmt.Sprintf("timewarp: Send outside the strict future: recvTime %d <= now %d (events must be scheduled strictly after the current bundle, except during Init)",
			recvTime, ctx.now))
	}
	ev := Event{
		ID:       ctx.lp.nextEventID(),
		Sender:   ctx.lp.id,
		Receiver: to,
		SendTime: ctx.now,
		RecvTime: recvTime,
		Kind:     kind,
		Value:    value,
		Pay:      pay,
	}
	if ctx.inInit {
		ev.SendTime = -1
		ctx.lp.send(ev)
		return
	}
	ctx.lp.stageSend(ctx.cluster, ev)
}

// lpRuntime is the kernel-side record of one LP. Its mutable state is owned
// by the cluster goroutine that currently owns the LP (the owner moves only
// through the migration handoff, which runs on both ends' own goroutines).
type lpRuntime struct {
	id      LPID
	handler Handler
	cluster *cluster //kernelvet:owner cluster

	pending eventHeap //kernelvet:owner cluster
	// cancelled holds IDs of positive events annihilated before they were
	// popped from pending (lazy annihilation).
	cancelled map[uint64]struct{} //kernelvet:owner cluster

	// processed bundles in chronological order.
	processed []bundle //kernelvet:owner cluster
	// states is the log of the processed bundles' pre-states: bundle i's
	// state is the encoding from processed[i].stateAt up to the next
	// bundle's stateAt (or the end of the log).
	states []byte //kernelvet:owner cluster

	// lvt is the receive time of the last processed bundle, or, with no
	// processed bundle left, the committed horizon (-1 before any commit).
	// It is never below committedThrough, so every arrival at or below the
	// horizon goes through rollback's check.
	lvt Time //kernelvet:owner cluster

	// schedT is the timestamp of this LP's tracked entry in its owning
	// cluster's scheduler, or TimeInfinity when none is tracked. It
	// deduplicates scheduler pushes: delivering a whole batch of events to
	// one LP refreshes the scheduler once, not once per event (see
	// cluster.schedule). Invariant: when finite, an entry with exactly
	// this timestamp is queued in the owning cluster's scheduler, so
	// skipping a push because schedT <= nextTime can never strand work.
	schedT Time //kernelvet:owner cluster

	// inHist reports whether the owning cluster's history list (cluster.hist)
	// names this LP. Invariant: an owned LP with processed bundles or
	// oldSends is on the list; executeNext registers it, and migrateIn
	// re-registers it after a move.
	inHist bool //kernelvet:owner cluster

	// idNext/idEnd bound this LP's private event-ID space,
	// [id<<32, (id+1)<<32): IDs are unique across LPs by construction (the
	// high half is the sender) and monotonic per sender — the property the
	// deterministic (recvTime, sender, ID) bundle order relies on — with no
	// shared counter at all, so they stay unique and monotonic across
	// process boundaries and LP migrations. The kernel's test-only counter
	// lives above 2^63, outside every LP's space.
	idNext, idEnd uint64 //kernelvet:owner cluster

	// held marks an LP ordered to another process: it executes nothing
	// until it has no processed history left (migrateOut).
	held bool //kernelvet:owner cluster

	// committedThrough is the latest fossil-collected bundle time, or -1
	// before the first commit; it only backs the rollback invariant check.
	committedThrough Time //kernelvet:owner cluster

	// oldSends holds, under lazy cancellation, the sends of rolled-back
	// bundles keyed by bundle time, awaiting regeneration or cancellation.
	// Entries are kept sorted by time; every entry's time is strictly above
	// lvt (entries at or below it are taken or flushed as execution passes
	// them), which rollback exploits to merge without sorting.
	oldSends []oldSendEntry //kernelvet:owner cluster

	// oldScratch is the reusable merge buffer of rollback.
	oldScratch []oldSendEntry //kernelvet:owner cluster

	// stagedSends collects sends of the bundle currently executing.
	stagedSends []Event //kernelvet:owner cluster

	// matchScratch is the reusable matched-flags buffer of lazy dispatch.
	matchScratch []bool //kernelvet:owner cluster

	// Load profile for dynamic rebalancing, owner-goroutine only, reset at
	// every load round (captureLoad). loadCommitted/loadRollbacks/loadRemote
	// count activity since the last snapshot; sendDst/sendCnt accumulate
	// the LP's row of the observed send matrix (destinations discovered on
	// first send, so the steady state appends nothing). sendCur remembers
	// the last matched slot: handlers emit to their fanout in a fixed
	// order, so the cyclic probe in noteSend usually hits immediately.
	loadCommitted uint64   //kernelvet:owner cluster
	loadRollbacks uint64   //kernelvet:owner cluster
	loadRemote    uint64   //kernelvet:owner cluster
	sendDst       []LPID   //kernelvet:owner cluster
	sendCnt       []uint64 //kernelvet:owner cluster
	sendCur       int      //kernelvet:owner cluster

	// ctx is the reusable handler context (one live Execute per LP at a
	// time, so a single context per LP suffices).
	ctx Context //kernelvet:owner cluster
}

// bundle is one processed timestamp: the events consumed, the offset in
// lpRuntime.states of the state before executing them, and the events sent
// while executing them.
type bundle struct {
	time    Time
	events  []Event
	stateAt int
	sent    []Event
}

type oldSendEntry struct {
	time Time
	sent []Event
}

func newLPRuntime(id LPID, h Handler, c *cluster) *lpRuntime {
	lp := &lpRuntime{
		id:        id,
		handler:   h,
		cluster:   c,
		cancelled: make(map[uint64]struct{}),
		lvt:       -1,
		// Nothing is committed yet. A zero value would read as "committed
		// through time 0" and reject a legal rollback to a time-0 bundle.
		committedThrough: -1,
		schedT:           TimeInfinity,
		idNext:           uint64(id) << 32,
		idEnd:            (uint64(id) + 1) << 32,
	}
	return lp
}

// nextEventID returns a fresh event ID from the LP's private space.
func (lp *lpRuntime) nextEventID() uint64 {
	lp.idNext++
	if lp.idNext == lp.idEnd {
		// 2^32 events from one LP; the simulation sizes this kernel targets
		// commit orders of magnitude fewer. Overflow would silently break
		// anti-message matching, so fail loudly instead.
		panic("timewarp: LP event-ID space exhausted")
	}
	return lp.idNext
}

// nextTime returns the receive time of the earliest live pending event, or
// TimeInfinity. It lazily discards annihilated events from the heap top.
//
//kernelvet:noalloc
func (lp *lpRuntime) nextTime() Time {
	for len(lp.pending) > 0 {
		top := lp.pending[0]
		if len(lp.cancelled) > 0 {
			if _, dead := lp.cancelled[top.ID]; dead {
				delete(lp.cancelled, top.ID)
				lp.pending.pop()
				continue
			}
		}
		return top.RecvTime
	}
	return TimeInfinity
}

// hasHistory reports whether the LP holds processed bundles or rolled-back
// sends, the state fossil collection releases.
func (lp *lpRuntime) hasHistory() bool {
	return len(lp.processed) > 0 || len(lp.oldSends) > 0
}

// register puts the LP on its owning cluster's history list unless it is
// already there.
func (lp *lpRuntime) register() {
	if !lp.inHist {
		lp.inHist = true
		lp.cluster.hist = append(lp.cluster.hist, lp)
	}
}

// enqueue inserts a positive event, rolling back first if the event is a
// straggler (at or before the LP's last processed time).
func (lp *lpRuntime) enqueue(ev Event) {
	if ev.RecvTime <= lp.lvt {
		lp.rollback(ev.RecvTime)
	}
	lp.pending.push(ev)
}

// annihilate handles an anti-message. The matching positive event always
// precedes its anti-message on any delivery path, so it is either still
// pending or already processed (straggler annihilation → rollback first).
func (lp *lpRuntime) annihilate(anti Event) {
	if anti.RecvTime <= lp.lvt {
		lp.rollback(anti.RecvTime)
	}
	lp.cancelled[anti.ID] = struct{}{}
	// If the LP went idle, sends staged for lazily-cancelled regeneration
	// can never be regenerated; flush them now.
	lp.flushOldSends(lp.nextTime())
}

// rollback undoes every processed bundle with time >= t: the LP state is
// restored to just before the earliest such bundle, the bundles' input
// events return to the pending queue, and their sends are cancelled
// (immediately under aggressive cancellation, lazily otherwise). Rollback
// must replay identically on every run, or diverged replicas commit
// different states.
//
//kernelvet:deterministic
func (lp *lpRuntime) rollback(t Time) {
	if t <= lp.committedThrough {
		// GVT guarantees no message (positive or anti) arrives at or below
		// the committed horizon — under the asynchronous protocol every
		// in-transit message is bounded by a transit count or a redMin
		// report. Because lvt never drops below the horizon, enqueue and
		// annihilate send every such arrival here, at the arrival itself.
		// Reaching this line means the kernel's GVT or cancellation
		// protocol is broken, which would silently corrupt results, so fail
		// loudly.
		panic(fmt.Sprintf("timewarp: LP %d received a message at %d, at or below its committed horizon %d (lvt %d, GVT view %d)",
			lp.id, t, lp.committedThrough, lp.lvt, lp.cluster.kernel.GVT()))
	}
	idx := sort.Search(len(lp.processed), func(i int) bool { return lp.processed[i].time >= t })
	if idx == len(lp.processed) {
		return
	}
	lp.cluster.stats.Rollbacks++
	lp.loadRollbacks++
	lazy := lp.cluster.kernel.cfg.LazyCancellation
	// Every surviving oldSends entry has time > lvt, and every rolled-back
	// bundle has time <= lvt, so the new entries (appended in chronological
	// bundle order) sort strictly before the existing ones: stash the
	// existing tail and re-append it after the loop — a sorted merge with
	// no comparison sort.
	stashed := false
	if lazy && len(lp.oldSends) > 0 {
		lp.oldScratch = append(lp.oldScratch[:0], lp.oldSends...)
		lp.oldSends = lp.oldSends[:0]
		stashed = true
	}
	pool := &lp.cluster.evPool
	for i := idx; i < len(lp.processed); i++ {
		b := &lp.processed[i]
		lp.cluster.stats.EventsRolledBack += uint64(len(b.events))
		for _, ev := range b.events {
			lp.pending.push(ev)
		}
		pool.put(b.events)
		if len(b.sent) > 0 {
			if lazy {
				lp.oldSends = append(lp.oldSends, oldSendEntry{time: b.time, sent: b.sent})
			} else {
				for _, s := range b.sent {
					lp.cluster.sendAnti(s)
				}
				pool.put(b.sent)
			}
		}
	}
	if stashed {
		lp.oldSends = append(lp.oldSends, lp.oldScratch...)
		// Drop the scratch's aliases of the transferred entries.
		for i := range lp.oldScratch {
			lp.oldScratch[i] = oldSendEntry{}
		}
		lp.oldScratch = lp.oldScratch[:0]
	}
	at, end := lp.processed[idx].stateAt, len(lp.states)
	if idx+1 < len(lp.processed) {
		end = lp.processed[idx+1].stateAt
	}
	if err := lp.handler.DecodeState(lp.states[at:end]); err != nil {
		// The log holds only what this handler encoded, so this is a
		// handler bug; continuing would execute from a wrong state.
		panic(fmt.Sprintf("timewarp: LP %d cannot decode its own saved state: %v", lp.id, err))
	}
	lp.states = lp.states[:at]
	// Zero the truncated bundles so their recycled slices are not retained
	// through the backing array.
	for i := idx; i < len(lp.processed); i++ {
		lp.processed[i] = bundle{}
	}
	lp.processed = lp.processed[:idx]
	if idx > 0 {
		lp.lvt = lp.processed[idx-1].time
	} else {
		lp.lvt = lp.committedThrough
	}
}

// executeNext pops the earliest bundle and runs the handler. It returns the
// number of events consumed (0 when the LP had no live work). The bundle
// order (recvTime, sender, ID) is the kernel's determinism contract, so
// nothing on this path may consult wall clocks or unordered iteration.
//
//kernelvet:deterministic
func (lp *lpRuntime) executeNext() int {
	t := lp.nextTime()
	if t == TimeInfinity {
		return 0
	}
	// Under lazy cancellation, rolled-back sends from bundle times that can
	// no longer be re-executed must be cancelled before we advance past
	// them.
	lp.flushOldSends(t)

	pool := &lp.cluster.evPool
	events := pool.get()
	for len(lp.pending) > 0 && lp.pending[0].RecvTime == t {
		ev := lp.pending.pop()
		if len(lp.cancelled) > 0 {
			if _, dead := lp.cancelled[ev.ID]; dead {
				delete(lp.cancelled, ev.ID)
				continue
			}
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		pool.put(events)
		return 0
	}

	stateAt := len(lp.states)
	lp.states = lp.handler.EncodeState(lp.states)
	lp.stagedSends = lp.stagedSends[:0]
	lp.ctx = Context{lp: lp, cluster: lp.cluster, now: t}
	lp.handler.Execute(&lp.ctx, t, events)

	var sent []Event
	if len(lp.stagedSends) > 0 {
		sent = append(pool.get(), lp.stagedSends...)
	}
	lp.dispatchSends(t, sent)

	lp.processed = append(lp.processed, bundle{time: t, events: events, stateAt: stateAt, sent: sent})
	lp.register()
	lp.lvt = t
	lp.cluster.stats.EventsProcessed += uint64(len(events))
	return len(events)
}

// stageSend records an in-execution send; dispatch happens after the handler
// returns so lazy cancellation can compare the complete regenerated set.
func (lp *lpRuntime) stageSend(c *cluster, ev Event) {
	lp.stagedSends = append(lp.stagedSends, ev)
}

// send routes one positive event originated by this LP and records it in the
// LP's load profile (the observed send matrix driving dynamic rebalancing).
func (lp *lpRuntime) send(ev Event) {
	remote := lp.cluster.route(ev, true)
	lp.noteSend(ev.Receiver, remote)
}

// noteSend accumulates one send into the LP's row of the send matrix. The
// probe starts at the slot after the previous match, so cyclic fanout emit
// patterns hit on the first comparison; a new destination appends once.
//
//kernelvet:noalloc
func (lp *lpRuntime) noteSend(dst LPID, remote bool) {
	if remote {
		lp.loadRemote++
	}
	n := len(lp.sendDst)
	for i := 0; i < n; i++ {
		j := lp.sendCur + i
		if j >= n {
			j -= n
		}
		if lp.sendDst[j] == dst {
			lp.sendCnt[j]++
			lp.sendCur = j + 1
			if lp.sendCur == n {
				lp.sendCur = 0
			}
			return
		}
	}
	lp.sendDst = append(lp.sendDst, dst)
	lp.sendCnt = append(lp.sendCnt, 1)
	lp.sendCur = 0
}

// dispatchSends routes the bundle's sends. Under lazy cancellation, sends
// identical to a rolled-back send from the same bundle time are suppressed
// (the original event is still valid at the receiver) and unmatched old
// sends are annihilated.
//
//kernelvet:noalloc
func (lp *lpRuntime) dispatchSends(t Time, sent []Event) {
	if !lp.cluster.kernel.cfg.LazyCancellation {
		for i := range sent {
			lp.send(sent[i])
		}
		return
	}
	old := lp.takeOldSends(t)
	if old == nil {
		for i := range sent {
			lp.send(sent[i])
		}
		return
	}
	if cap(lp.matchScratch) < len(old) {
		//kernelvet:allow noalloc amortized: the scratch grows to the LP's peak fanout once and is reused
		lp.matchScratch = make([]bool, len(old))
	}
	matched := lp.matchScratch[:len(old)]
	for i := range matched {
		matched[i] = false
	}
	for i := range sent {
		ev := &sent[i]
		found := -1
		for j := range old {
			if matched[j] {
				continue
			}
			o := &old[j]
			if o.Receiver == ev.Receiver && o.RecvTime == ev.RecvTime && o.Kind == ev.Kind && o.Value == ev.Value && o.Pay == ev.Pay {
				found = j
				break
			}
		}
		if found >= 0 {
			matched[found] = true
			// Keep the original event's identity so the receiver's copy
			// stays valid; record it as this bundle's send.
			*ev = old[found]
		} else {
			lp.send(*ev)
		}
	}
	for j := range old {
		if !matched[j] {
			lp.cluster.sendAnti(old[j])
		}
	}
	lp.cluster.evPool.put(old)
}

// takeOldSends removes and returns the rolled-back sends recorded for
// bundle time t, if any. The removal is a single in-place copy-down, not a
// splice per element.
//
//kernelvet:noalloc
func (lp *lpRuntime) takeOldSends(t Time) []Event {
	for i := range lp.oldSends {
		if lp.oldSends[i].time == t {
			sent := lp.oldSends[i].sent
			n := len(lp.oldSends) - 1
			copy(lp.oldSends[i:], lp.oldSends[i+1:])
			lp.oldSends[n] = oldSendEntry{}
			lp.oldSends = lp.oldSends[:n]
			return sent
		}
		if lp.oldSends[i].time > t {
			break // sorted: no entry at t exists
		}
	}
	return nil
}

// flushOldSends cancels every rolled-back send whose bundle time is before
// `next`, because execution has provably advanced past any chance of
// regenerating it (for executeNext, `next` is the bundle about to run; for
// fossil collection it is GVT). The scan is a single in-place filter.
//
//kernelvet:noalloc
func (lp *lpRuntime) flushOldSends(next Time) {
	if len(lp.oldSends) == 0 {
		return
	}
	keep := lp.oldSends[:0]
	for i := range lp.oldSends {
		e := lp.oldSends[i]
		if e.time < next {
			for _, s := range e.sent {
				lp.cluster.sendAnti(s)
			}
			lp.cluster.evPool.put(e.sent)
		} else {
			keep = append(keep, e)
		}
	}
	// Zero the vacated tail so recycled slices are not retained.
	for i := len(keep); i < len(lp.oldSends); i++ {
		lp.oldSends[i] = oldSendEntry{}
	}
	lp.oldSends = keep
}

// minPendingCancel returns the earliest receive time of a rolled-back send
// that lazy cancellation may still annihilate. These unsent anti-messages
// bound GVT exactly like in-flight messages do: cluster.localMin folds this
// value into every wave-2 GVT report, so the asynchronous protocol keeps a
// continuous floor under lazy cancellation even though entries appear
// (rollback) and drain (regeneration, flush) between cuts.
func (lp *lpRuntime) minPendingCancel() Time {
	min := TimeInfinity
	for _, e := range lp.oldSends {
		for _, s := range e.sent {
			if s.RecvTime < min {
				min = s.RecvTime
			}
		}
	}
	return min
}

// fossilCollect discards history strictly before gvt and returns the number
// of input events committed. Lazy-cancellation entries whose bundle time
// lies below gvt can never be regenerated (no execution happens below GVT),
// so their sends are annihilated now — without this, an unregenerable entry
// would hold the GVT floor at its send times forever and wedge the run.
// Freed bundles return their event slices to the cluster pool, and the
// processed history and the states log are compacted in place (the
// surviving bundles' offsets rebased), so steady-state fossil
// collection allocates nothing.
//
//kernelvet:deterministic
//kernelvet:noalloc
func (lp *lpRuntime) fossilCollect(gvt Time) uint64 {
	lp.flushOldSends(gvt)
	// processed is chronological: the collectable prefix ends at the first
	// bundle at or after gvt, and the scan frees each bundle as it passes.
	pool := &lp.cluster.evPool
	var committed uint64
	idx := 0
	for ; idx < len(lp.processed) && lp.processed[idx].time < gvt; idx++ {
		b := &lp.processed[idx]
		committed += uint64(len(b.events))
		if b.time > lp.committedThrough {
			lp.committedThrough = b.time
		}
		pool.put(b.events)
		pool.put(b.sent)
	}
	if idx == 0 {
		return 0
	}
	n := copy(lp.processed, lp.processed[idx:])
	for i := n; i < len(lp.processed); i++ {
		lp.processed[i] = bundle{}
	}
	lp.processed = lp.processed[:n]
	base := len(lp.states)
	if n > 0 {
		base = lp.processed[0].stateAt
	}
	lp.states = lp.states[:copy(lp.states, lp.states[base:])]
	for i := range lp.processed {
		lp.processed[i].stateAt -= base
	}
	lp.loadCommitted += committed
	return committed
}

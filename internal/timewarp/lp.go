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
// captures. The events slice is a window on the LP's input log, valid only
// during the call, and the Context is the LP's own, reused for Init and then
// for every bundle: neither Init nor Execute may retain it (nor Execute the
// events) beyond the call.
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
	lp     *lpRuntime
	now    Time
	inInit bool
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
	// The send is logged for rollback to cancel; executeNext routes the
	// bundle's sends once the handler returns (dispatchSends).
	ctx.lp.outLog = append(ctx.lp.outLog, ev)
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
	// popped from pending: the heap entry stays and is discarded when it
	// reaches the top (deferred removal). It is nil until the first such
	// annihilation: most LPs never need it.
	cancelled map[uint64]struct{} //kernelvet:owner cluster

	// processed bundles in chronological order. Each indexes its share of
	// three flat logs: bundle i's input events are inLog from
	// processed[i].evAt up to the next bundle's evAt (or the end of the log),
	// its sends are outLog from sentAt, and its pre-state is states from
	// stateAt, likewise. The first bundle's offsets are 0: fossil collection
	// compacts the logs and rebases the rest.
	processed []bundle //kernelvet:owner cluster
	inLog     []Event  //kernelvet:owner cluster
	outLog    []Event  //kernelvet:owner cluster
	states    []byte   //kernelvet:owner cluster

	// lvt is the receive time of the last processed bundle, or, with no
	// processed bundle left, the committed horizon (-1 before any commit).
	// It is never below committedThrough, so every arrival at or below the
	// horizon goes through straggler's check.
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
	// names this LP. Invariant: an owned LP with processed bundles is on the
	// list; executeNext registers it, and migrateIn re-registers it after a
	// move.
	inHist bool //kernelvet:owner cluster

	// idNext/idEnd bound this LP's private event-ID space,
	// [id<<32, (id+1)<<32): IDs are unique across LPs by construction (the
	// high half is the sender) and monotonic per sender — the property the
	// deterministic (recvTime, sender, ID) bundle order relies on — with no
	// shared counter at all, so they stay unique and monotonic across
	// process boundaries and LP migrations. The kernel's test-only counter
	// lives above 2^63, outside every LP's space.
	idNext, idEnd uint64 //kernelvet:owner cluster

	// committedThrough is the latest fossil-collected bundle time, or -1
	// before the first commit; it only backs the rollback invariant check.
	committedThrough Time //kernelvet:owner cluster

	// Load profile for dynamic rebalancing, owner-goroutine only, reset at
	// every load round (captureLoad). loadCommitted counts the events
	// committed since the last snapshot; sendDst/sendCnt accumulate
	// the LP's row of the observed send matrix (destinations discovered on
	// first send, so the steady state appends nothing; static runs never
	// fill it, see send). sendCur remembers
	// the last matched slot: handlers emit to their fanout in a fixed
	// order, so the cyclic probe in noteSend usually hits immediately.
	loadCommitted uint64   //kernelvet:owner cluster
	sendDst       []LPID   //kernelvet:owner cluster
	sendCnt       []uint64 //kernelvet:owner cluster
	sendCur       int      //kernelvet:owner cluster

	// ctx is the reusable handler context of Init and every Execute (one
	// live handler call per LP at a time, so a single context suffices).
	ctx Context //kernelvet:owner cluster
}

// bundle is one processed timestamp: its time and where its input events,
// sends and pre-state start in the LP's logs.
type bundle struct {
	time                  Time
	evAt, sentAt, stateAt int
}

func newLPRuntime(id LPID, h Handler, c *cluster) *lpRuntime {
	lp := &lpRuntime{
		id:      id,
		handler: h,
		cluster: c,
		lvt:     -1,
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
// TimeInfinity. It discards annihilated events that reached the heap top.
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

// hasHistory reports whether the LP holds processed bundles, the state
// fossil collection releases.
func (lp *lpRuntime) hasHistory() bool {
	return len(lp.processed) > 0
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
		lp.straggler(&ev)
	}
	lp.pending.push(ev)
}

// annihilate handles an anti-message. The matching positive event always
// precedes its anti-message on any delivery path, so it is either still
// pending or already processed (straggler annihilation → rollback first).
func (lp *lpRuntime) annihilate(anti Event) {
	if anti.RecvTime <= lp.lvt {
		lp.straggler(&anti)
	}
	if lp.cancelled == nil {
		lp.cancelled = make(map[uint64]struct{})
	}
	lp.cancelled[anti.ID] = struct{}{}
}

// straggler rolls the LP back for ev, an arrival at or before lvt. GVT
// guarantees no message (positive or anti) arrives at or below the committed
// horizon — under the asynchronous protocol every in-transit message is
// bounded by the transit ledger or a redMin report. Because lvt never drops
// below the horizon, enqueue and annihilate send every such arrival here, at
// the arrival itself. Reaching the panic means the kernel's GVT or
// cancellation protocol is broken, which would silently corrupt results, so
// it fails loudly, naming the message and the routing epoch it arrived in.
func (lp *lpRuntime) straggler(ev *Event) {
	if ev.RecvTime <= lp.committedThrough {
		k := lp.cluster.kernel
		panic(fmt.Sprintf("timewarp: LP %d received a message at %d, at or below its committed horizon %d (lvt %d, GVT view %d): event %d from LP %d, anti=%v, route epoch %d",
			lp.id, ev.RecvTime, lp.committedThrough, lp.lvt, k.GVT(), ev.ID, ev.Sender, ev.Anti, k.RouteEpoch()))
	}
	lp.rollback(ev.RecvTime)
}

// rollback undoes every processed bundle with time >= t: the LP state is
// restored to just before the earliest such bundle, the bundles' input
// events return to the pending queue, and every send they made becomes an
// anti-message at once (aggressive cancellation). The three logs are
// truncated where that bundle's share begins. Rollback must replay
// identically on every run, or diverged replicas commit different states.
//
//kernelvet:deterministic
func (lp *lpRuntime) rollback(t Time) {
	idx := sort.Search(len(lp.processed), func(i int) bool { return lp.processed[i].time >= t })
	if idx == len(lp.processed) {
		return
	}
	c := lp.cluster
	c.stats.Rollbacks++
	b := lp.processed[idx]
	events, sent := lp.inLog[b.evAt:], lp.outLog[b.sentAt:]
	c.stats.EventsRolledBack += uint64(len(events))
	for _, ev := range events {
		lp.pending.push(ev)
	}
	for _, s := range sent {
		c.sendAnti(s)
	}
	end := len(lp.states)
	if idx+1 < len(lp.processed) {
		end = lp.processed[idx+1].stateAt
	}
	if err := lp.handler.DecodeState(lp.states[b.stateAt:end]); err != nil {
		// The log holds only what this handler encoded, so this is a
		// handler bug; continuing would execute from a wrong state.
		panic(fmt.Sprintf("timewarp: LP %d cannot decode its own saved state: %v", lp.id, err))
	}
	lp.inLog = lp.inLog[:b.evAt]
	lp.outLog = lp.outLog[:b.sentAt]
	lp.states = lp.states[:b.stateAt]
	lp.processed = lp.processed[:idx]
	if idx > 0 {
		lp.lvt = lp.processed[idx-1].time
	} else {
		lp.lvt = lp.committedThrough
	}
}

// executeNext pops the earliest bundle onto the input log and runs the
// handler. It returns the number of events consumed (0 when the LP had no
// live work). The bundle order (recvTime, sender, ID) is the kernel's
// determinism contract, so nothing on this path may consult wall clocks or
// unordered iteration.
//
//kernelvet:deterministic
func (lp *lpRuntime) executeNext() int {
	t := lp.nextTime()
	if t == TimeInfinity {
		return 0
	}
	evAt := len(lp.inLog)
	for len(lp.pending) > 0 && lp.pending[0].RecvTime == t {
		ev := lp.pending.pop()
		if len(lp.cancelled) > 0 {
			if _, dead := lp.cancelled[ev.ID]; dead {
				delete(lp.cancelled, ev.ID)
				continue
			}
		}
		lp.inLog = append(lp.inLog, ev)
	}
	n := len(lp.inLog) - evAt
	if n == 0 {
		return 0
	}

	b := bundle{time: t, evAt: evAt, sentAt: len(lp.outLog), stateAt: len(lp.states)}
	lp.states = lp.handler.EncodeState(lp.states)
	lp.ctx = Context{lp: lp, now: t}
	end := len(lp.inLog)
	lp.handler.Execute(&lp.ctx, t, lp.inLog[evAt:end:end])
	lp.dispatchSends(lp.outLog[b.sentAt:])

	lp.processed = append(lp.processed, b)
	lp.register()
	lp.lvt = t
	lp.cluster.stats.EventsProcessed += uint64(n)
	return n
}

// send routes one positive event originated by this LP and, under dynamic
// rebalancing, records it in the LP's load profile (the observed send matrix
// only load rounds read).
func (lp *lpRuntime) send(ev Event) {
	c := lp.cluster
	c.route(ev, true)
	if c.kernel.cfg.Dynamic.Rebalance != nil {
		lp.noteSend(ev.Receiver)
	}
}

// noteSend accumulates one send into the LP's row of the send matrix. The
// probe starts at the slot after the previous match, so cyclic fanout emit
// patterns hit on the first comparison; a new destination appends once.
//
//kernelvet:noalloc
func (lp *lpRuntime) noteSend(dst LPID) {
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

// dispatchSends routes the bundle's sends.
//
//kernelvet:noalloc
func (lp *lpRuntime) dispatchSends(sent []Event) {
	for i := range sent {
		lp.send(sent[i])
	}
}

// fossilCollect discards history strictly before gvt and returns the number
// of input events committed. The collectable bundles are a prefix of the
// history and their shares a prefix of each log, so each log is compacted
// with one copy-down and the surviving bundles' offsets are rebased;
// steady-state fossil collection allocates nothing.
//
//kernelvet:deterministic
//kernelvet:noalloc
func (lp *lpRuntime) fossilCollect(gvt Time) uint64 {
	idx := 0
	for idx < len(lp.processed) && lp.processed[idx].time < gvt {
		idx++
	}
	if idx == 0 {
		return 0
	}
	lp.committedThrough = lp.processed[idx-1].time
	// base is the first kept bundle, or the logs' ends when none is kept.
	base := bundle{evAt: len(lp.inLog), sentAt: len(lp.outLog), stateAt: len(lp.states)}
	if idx < len(lp.processed) {
		base = lp.processed[idx]
	}
	lp.inLog = lp.inLog[:copy(lp.inLog, lp.inLog[base.evAt:])]
	lp.outLog = lp.outLog[:copy(lp.outLog, lp.outLog[base.sentAt:])]
	lp.states = lp.states[:copy(lp.states, lp.states[base.stateAt:])]
	lp.processed = lp.processed[:copy(lp.processed, lp.processed[idx:])]
	for i := range lp.processed {
		b := &lp.processed[i]
		b.evAt -= base.evAt
		b.sentAt -= base.sentAt
		b.stateAt -= base.stateAt
	}
	// The first bundle's events start the input log, so the committed
	// ones are all that precede the first kept bundle.
	committed := uint64(base.evAt)
	lp.loadCommitted += committed
	return committed
}

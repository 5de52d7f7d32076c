package timewarp

import "fmt"

// Handler is the application side of a logical process.
//
// Execute receives every event sharing one receive time as a single bundle,
// already sorted by (sender, ID). It may send events into the strict future
// (recvTime > now) via the Context. The kernel saves the LP's state with
// EncodeState before every bundle and rolls it back with DecodeState, so
// Execute must confine all mutable simulation state to what EncodeState
// captures. The events slice is a window on the owning cluster's input log,
// valid only during the call, and the Context is the LP's own, reused for
// Init and then for every bundle: neither Init nor Execute may retain it
// (nor Execute the events) beyond the call.
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
	h := &ctx.lp.cluster.hist
	h.out = append(h.out, ev)
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

	// last is the sequence number of this LP's newest live record in its
	// owning cluster's history log (cluster.hist), or -1 before the first
	// bundle and after a migration with nothing left to carry. Each record
	// links to the LP's record before it (histRec.prev), so the chain from
	// last is the LP's uncommitted history, newest first; it ends at -1 or
	// at a number below the log's head, a committed record.
	last int64 //kernelvet:owner cluster

	// lvt is the receive time of the LP's newest live bundle or, when a
	// rollback left none, the owning cluster's collected GVT (fossilAt)
	// minus one. Fossil collection does not touch it, so once the newest
	// bundle is committed it may lag fossilAt: enqueue and annihilate check
	// fossilAt besides lvt, and every arrival below it reaches straggler's
	// check.
	lvt Time //kernelvet:owner cluster

	// schedT is the timestamp of this LP's tracked entry in its owning
	// cluster's scheduler, or TimeInfinity when none is tracked. It
	// deduplicates scheduler pushes: delivering a whole batch of events to
	// one LP refreshes the scheduler once, not once per event (see
	// cluster.schedule). Invariant: when finite, an entry with exactly
	// this timestamp is queued in the owning cluster's scheduler, so
	// skipping a push because schedT <= nextTime can never strand work.
	schedT Time //kernelvet:owner cluster

	// idNext/idEnd bound this LP's private event-ID space,
	// [id<<32, (id+1)<<32): IDs are unique across LPs by construction (the
	// high half is the sender) and monotonic per sender — the property the
	// deterministic (recvTime, sender, ID) bundle order relies on — with no
	// shared counter at all, so they stay unique and monotonic across
	// process boundaries and LP migrations. The kernel's test-only counter
	// lives above 2^63, outside every LP's space.
	idNext, idEnd uint64 //kernelvet:owner cluster

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

func newLPRuntime(id LPID, h Handler, c *cluster) *lpRuntime {
	lp := &lpRuntime{
		id:      id,
		handler: h,
		cluster: c,
		last:    -1,
		lvt:     -1,
		schedT:  TimeInfinity,
		idNext:  uint64(id) << 32,
		idEnd:   (uint64(id) + 1) << 32,
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

// liveRecords counts the LP's uncommitted records in its owning cluster's
// history log. It only reads, so the stuck-run dump may call it on another
// cluster's LP; the bound keeps a torn read inside the log.
func (lp *lpRuntime) liveRecords() int {
	h := &lp.cluster.hist
	n := 0
	for s := lp.last; s >= h.headSeq() && s < h.base+int64(len(h.recs)); s = h.at(s).prev {
		n++
	}
	return n
}

// enqueue inserts a positive event, rolling back first if the event is a
// straggler (at or before the LP's last processed time); an arrival below
// the cluster's collected GVT goes to straggler's check too.
func (lp *lpRuntime) enqueue(ev Event) {
	if ev.RecvTime <= lp.lvt || ev.RecvTime < lp.cluster.fossilAt {
		lp.straggler(&ev)
	}
	lp.pending.push(ev)
}

// annihilate handles an anti-message. The matching positive event always
// precedes its anti-message on any delivery path, so it is either still
// pending or already processed (straggler annihilation → rollback first).
func (lp *lpRuntime) annihilate(anti Event) {
	if anti.RecvTime <= lp.lvt || anti.RecvTime < lp.cluster.fossilAt {
		lp.straggler(&anti)
	}
	if lp.cancelled == nil {
		lp.cancelled = make(map[uint64]struct{})
	}
	lp.cancelled[anti.ID] = struct{}{}
}

// straggler rolls the LP back for ev, an arrival at or before lvt or below
// the owning cluster's collected GVT. GVT guarantees no message (positive
// or anti) arrives below it — under the asynchronous protocol every
// in-transit message is bounded by the transit ledger or a redMin report —
// and the cluster has committed history up to the GVT it collected at.
// Reaching the panic means the kernel's GVT or cancellation protocol is
// broken, which would silently corrupt results, so it fails loudly, naming
// the message and the routing epoch it arrived in.
func (lp *lpRuntime) straggler(ev *Event) {
	c := lp.cluster
	if ev.RecvTime < c.fossilAt {
		k := c.kernel
		panic(fmt.Sprintf("timewarp: LP %d received a message at %d, below the GVT %d its cluster %d collected at (lvt %d, GVT view %d): event %d from LP %d, anti=%v, route epoch %d",
			lp.id, ev.RecvTime, c.fossilAt, c.id, lp.lvt, k.GVT(), ev.ID, ev.Sender, ev.Anti, k.RouteEpoch()))
	}
	lp.rollback(ev.RecvTime)
}

// rollback undoes every processed bundle with time >= t: it walks the LP's
// chain in the cluster's history log back to the earliest such bundle,
// returns the bundles' input events to the pending queue and turns every
// send they made into an anti-message at once (aggressive cancellation),
// both in chronological order, restores the state saved before that
// bundle and marks the records dead. Rollback must replay identically on
// every run, or diverged replicas commit different states.
//
//kernelvet:deterministic
//kernelvet:noalloc
func (lp *lpRuntime) rollback(t Time) {
	c := lp.cluster
	h := &c.hist
	chain := c.chain(lp.last, t)
	if len(chain) == 0 {
		return
	}
	c.stats.Rollbacks++
	for i := len(chain) - 1; i >= 0; i-- {
		events, sent, _ := h.shares(chain[i])
		c.stats.EventsRolledBack += uint64(len(events))
		for _, ev := range events {
			lp.pending.push(ev)
		}
		for _, s := range sent {
			c.sendAnti(s)
		}
		h.at(chain[i]).dead = true
	}
	first := chain[len(chain)-1]
	_, _, state := h.shares(first)
	if err := lp.handler.DecodeState(state); err != nil {
		// The log holds only what this handler encoded, so this is a
		// handler bug; continuing would execute from a wrong state.
		panic(fmt.Sprintf("timewarp: LP %d cannot decode its own saved state: %v", lp.id, err))
	}
	lp.last = h.at(first).prev
	if lp.last >= h.headSeq() {
		lp.lvt = h.at(lp.last).time
	} else {
		lp.lvt = c.fossilAt - 1
	}
	h.trim()
}

// executeNext pops the earliest bundle onto the owning cluster's input log,
// runs the handler and appends the bundle's record to the history log. It
// returns the number of events consumed (0 when the LP had no live work).
// The bundle order (recvTime, sender, ID) is the kernel's determinism
// contract, so nothing on this path may consult wall clocks or unordered
// iteration.
//
//kernelvet:deterministic
//kernelvet:noalloc
func (lp *lpRuntime) executeNext() int {
	t := lp.nextTime()
	if t == TimeInfinity {
		return 0
	}
	h := &lp.cluster.hist
	h.reserve()
	evAt := len(h.in)
	for len(lp.pending) > 0 && lp.pending[0].RecvTime == t {
		ev := lp.pending.pop()
		if len(lp.cancelled) > 0 {
			if _, dead := lp.cancelled[ev.ID]; dead {
				delete(lp.cancelled, ev.ID)
				continue
			}
		}
		h.in = append(h.in, ev)
	}
	n := len(h.in) - evAt
	if n == 0 {
		return 0
	}

	sentAt, stateAt := len(h.out), len(h.states)
	h.states = lp.handler.EncodeState(h.states)
	lp.ctx = Context{lp: lp, now: t}
	end := len(h.in)
	lp.handler.Execute(&lp.ctx, t, h.in[evAt:end:end])
	lp.dispatchSends(h.out[sentAt:])

	lp.last = h.add(histRec{
		time: t, prev: lp.last, lp: lp.id,
		evAt: h.inBase + evAt, sentAt: h.outBase + sentAt, stateAt: h.stateBase + stateAt,
	})
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

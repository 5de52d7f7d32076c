package timewarp

import "sync/atomic"

// GVT-synchronized LP migration.
//
// The coordinator decides moves (finishLoadRound), but every ownership
// transfer is executed by the clusters themselves so an LP is only ever
// touched by one goroutine:
//
//   - The coordinator appends migOrder entries to the source cluster's order
//     queue (mutex-protected, cold path) and raises its order flag.
//   - The source cluster, on its own goroutine, packs the LP (migrateOut):
//     it fossil-collects the LP to observed GVT — GVT advance is the one
//     point where the committed prefix is unique, so only the optimistic
//     suffix travels — then rewrites the routing table, drops ownership, and
//     hands the whole lpRuntime to the destination's payload queue. An LP
//     bound for another process is held first, until GVT has committed its
//     processed history (or a straggler rolled it back), and travels as
//     committed state plus pending events.
//   - The payload is accounted exactly like a message in flight: it is
//     counted in transit under the sender's current color and its earliest
//     pending work time is folded into the sender's redMin, so no GVT cut
//     can close over an LP that is mid-flight with uncounted events.
//   - The destination adopts the LP (migrateIn) the next time it looks at
//     its flags: it decrements the transit count, takes ownership, seeds its
//     scheduler, and re-delivers any events that were parked for the LP.
//
// Events routed under a stale table entry are forwarded by whichever cluster
// receives them (cluster.deliver): forwarding re-stages the event in the
// forwarder's outbox, so the forwarded hop is report-covered while buffered
// and transit-counted under the forwarder's color once its batch flushes,
// like any other send. Events that reach the destination
// before the payload does park in the destination's limbo queue, which is
// folded into its GVT reports (localMin), preserving the rollback horizon.
// Both queues drain without coordination, so migration never stops the
// simulation: no barrier, no quiescence, clusters keep executing throughout.

// migOrder is one coordinator decision: move LP lp to cluster to.
type migOrder struct {
	lp LPID
	to int
}

// migPayload is one LP in flight between clusters. color is the transit
// color the source charged the payload under; the destination releases it.
// Exactly one of lp (same-process handoff: the live runtime moves by
// pointer) and wire (multi-process: the runtime's encoded state and pending
// events, decoded into the destination's pre-built lpRuntime shell) is set.
type migPayload struct {
	lp    *lpRuntime
	wire  []byte
	color uint8
}

// enqueueOrder hands a migration order to the source cluster. Coordinator
// only; the flag makes the queue check free for clusters with no orders.
func (c *cluster) enqueueOrder(o migOrder) {
	c.migMu.Lock()
	c.migOrders = append(c.migOrders, o)
	atomic.StoreInt32(&c.migFlag, 1)
	c.migMu.Unlock()
}

// checkMigrate runs both cold halves of the migration protocol if the flag
// is raised: pack LPs this cluster was ordered to give up, adopt LPs handed
// to it, then retry parked events. One atomic load per main-loop iteration
// when idle.
func (c *cluster) checkMigrate() {
	if atomic.LoadInt32(&c.migFlag) == 0 {
		return
	}
	c.migMu.Lock()
	orders := c.migOrders
	c.migOrders = c.migScratchO[:0]
	c.migScratchO = orders
	payloads := c.migIn
	c.migIn = c.migScratchP[:0]
	c.migScratchP = payloads
	atomic.StoreInt32(&c.migFlag, 0)
	c.migMu.Unlock()
	for _, o := range orders {
		c.migrateOut(o)
	}
	for _, p := range payloads {
		c.migrateIn(p)
	}
	clearPayloads(payloads)
	if len(payloads) > 0 {
		c.drainLimbo()
	}
}

// migrateOut packs one LP and hands it to its new home cluster. A
// destination hosted by this process receives the live runtime by pointer;
// a remote destination receives the runtime's committed state and pending
// events (see packPayload) in a payload frame, once the LP has no processed
// history left.
func (c *cluster) migrateOut(o migOrder) {
	k := c.kernel
	lp := k.lps[o.lp]
	if !c.owned[o.lp] || o.to == c.id {
		return // stale order: the LP already moved, or a no-op
	}
	// Commit the unique prefix here so only the optimistic suffix travels;
	// the committed counter stays with the collecting cluster.
	c.stats.EventsCommitted += lp.fossilCollect(k.GVT())
	p := migPayload{lp: lp}
	if !k.clusters[o.to].here {
		// Crossing a process boundary: only committed state and pending
		// events can travel, so hold the LP (it executes nothing) until GVT
		// has committed its processed history or a straggler has rolled it
		// back. Rolling that history back here instead would move the LP
		// below the GVT reports this cluster has already filed, and a GVT
		// computed from them could pass the re-queued events and the
		// anti-messages of their sends. The local runtime shell stays
		// behind, empty, as the adoption target should the LP ever migrate
		// back.
		if len(lp.processed) > 0 {
			lp.held = true
			c.migHeld = append(c.migHeld, o)
			return
		}
		p = migPayload{wire: c.packPayload(lp)}
	}
	lp.held = false
	// Account the payload like a message in flight: charge transit under the
	// current color and bound its earliest work by redMin, so the GVT cuts
	// that race the handoff stay sound.
	color := uint8(c.color & 1)
	p.color = color
	min := lp.nextTime()
	if t := lp.minPendingCancel(); t < min {
		min = t
	}
	if min < c.redMin {
		c.redMin = min
	}
	atomic.AddInt64(&k.transit[color].n, 1) //kernelvet:charge transit
	if k.remote {
		atomic.AddInt64(&c.sentCum[color].n, 1)
	}
	// Route first, then drop ownership: after this store new sends go to the
	// destination, while events already queued here are forwarded by the
	// owned-check in deliver. The opposite order would strand forwarded
	// events in a cluster that will never own the LP again. The route
	// announcement precedes the payload send on the same ordered lane, so
	// the destination always learns the route before it can adopt.
	k.routes.set(o.lp, o.to)
	k.sendCtrl(otherNodes, ctrlMsg{typ: frameRoute, route: wireRoute{lp: int32(o.lp), to: int32(o.to)}})
	c.owned[o.lp] = false
	if p.wire != nil {
		lp.resetAfterPack()
	}
	c.removeLP(lp)
	c.stats.Migrations++
	k.sendCtrl(o.to, ctrlMsg{typ: framePayload, cluster: int32(o.to), pay: p}) //kernelvet:carrier transit
}

// retryHeld retries the orders migrateOut held. The main loop calls it on
// every iteration, not only when GVT advances: a straggler's rollback can
// empty a held LP's history while the LP's own pending events hold GVT
// still. migrateOut holds at most the one order it is given, so the list is
// rebuilt in place behind the reading position.
func (c *cluster) retryHeld() {
	held := c.migHeld
	c.migHeld = held[:0]
	for _, o := range held {
		c.migrateOut(o)
	}
}

// migrateIn adopts one LP handed to this cluster.
func (c *cluster) migrateIn(p migPayload) {
	lp := p.lp
	if p.wire != nil {
		var err error
		if lp, err = c.unpackPayload(p.wire); err != nil {
			// A payload frame that fails to decode is unrecoverable state
			// loss, not a skippable message; fail loudly.
			panic("timewarp: migration payload decode failed: " + err.Error())
		}
	}
	lp.cluster = c
	c.owned[lp.id] = true
	c.lps = append(c.lps, lp)
	atomic.AddInt64(&c.kernel.transit[p.color].n, -1) //kernelvet:discharge transit
	if c.kernel.remote {
		atomic.AddInt64(&c.recvCum[p.color].n, 1)
	}
	// schedT tracked an entry in the old home's scheduler (now unreachable
	// garbage, skipped there by the owned check); reset it before
	// scheduling here or the gate could suppress the adopting push.
	lp.schedT = TimeInfinity
	c.schedule(lp)
	// inHist, likewise, described the old home's history list, which drops
	// the LP unread; register it here while it still has history, or that
	// history would never be committed.
	lp.inHist = false
	if lp.hasHistory() {
		lp.register()
	}
}

// adoptFinalPayloads adopts payloads still parked at termination. It runs
// single-threaded from Kernel.Run after every cluster goroutine exited: an
// idle LP's payload holds neither the final cut (no white transit of its
// color remains uncounted — it is red) nor GVT below infinity (its earliest
// work is infinity), so its destination can exit before adopting it.
func (c *cluster) adoptFinalPayloads() {
	c.migMu.Lock()
	payloads := c.migIn
	c.migIn = nil
	atomic.StoreInt32(&c.migFlag, 0)
	c.migMu.Unlock()
	for _, p := range payloads {
		c.migrateIn(p)
	}
}

func clearPayloads(s []migPayload) {
	for i := range s {
		s[i] = migPayload{}
	}
}

// removeLP drops lp from this cluster's owned set (order is immaterial to
// localMin and fossil collection).
func (c *cluster) removeLP(lp *lpRuntime) {
	for i, o := range c.lps {
		if o == lp {
			last := len(c.lps) - 1
			c.lps[i] = c.lps[last]
			c.lps[last] = nil
			c.lps = c.lps[:last]
			return
		}
	}
}

// parkLimbo holds an event addressed to an LP that is routed here but whose
// payload has not arrived yet. Limbo events are folded into localMin so the
// GVT floor covers them exactly like pending events.
func (c *cluster) parkLimbo(ev Event) {
	c.limbo = append(c.limbo, ev)
}

// drainLimbo re-delivers parked events whose LP has arrived; the rest (LPs
// still in flight, or re-routed elsewhere before arriving) stay parked. An
// event parked for an LP that migrated onward is forwarded by the deliver
// retry below, because the owned-check fails and the route now points away.
func (c *cluster) drainLimbo() {
	if len(c.limbo) == 0 {
		return
	}
	keep := c.limbo[:0]
	// Iterate by index over the original length: deliver may route local
	// anti-messages (rollbacks) into localQ, never back into limbo, and
	// forwarded events leave the cluster entirely.
	n := len(c.limbo)
	for i := 0; i < n; i++ {
		ev := c.limbo[i]
		if c.owned[ev.Receiver] || c.kernel.RouteOf(ev.Receiver) != c.id {
			c.deliver(ev)
		} else {
			keep = append(keep, ev)
		}
	}
	for i := len(keep); i < n; i++ {
		c.limbo[i] = Event{}
	}
	c.limbo = keep
}

// forward re-routes an event that arrived under a stale routing epoch toward
// the receiver's current home. The hop is a fresh routed message: it is
// staged in the forwarder's outbox like any other send, covered by the
// forwarder's GVT reports (localMin) while buffered, and charged to transit
// under the forwarder's color when its batch flushes — the forwarded leg is
// GVT-accounted exactly like a send originated here.
func (c *cluster) forward(ev Event) {
	c.stats.ForwardedMessages++
	c.route(ev, false)
}

// startLoadRound opens a load-collection round: every cluster copies its
// per-LP counters into its snapshot buffer and acks. Coordinator-only.
func (k *Kernel) startLoadRound() {
	atomic.StoreInt32(&k.loadAcks, 0)
	atomic.AddInt64(&k.loadRound, 1)
	k.phase = phaseLoad
	k.broadcastRound(ctrlLoad, false)
}

// finishLoadRound runs after every cluster acked a load round: build the
// merged snapshot, ask the rebalancer for a new assignment, and turn the
// diff into migration orders. Runs on the coordinator's goroutine — the
// rebalancer call is the only non-constant step, and it is bounded by one
// refinement pass over the LP graph.
func (k *Kernel) finishLoadRound() {
	k.rebalanceRounds++
	s := k.buildSnapshot()
	k.smoothLoad(s)
	next := k.cfg.Dynamic.Rebalance(s)
	if next == nil {
		return // rebalancer declined (e.g. imbalance below threshold)
	}
	if len(next) != len(k.lps) {
		panic("timewarp: Rebalance returned an assignment of the wrong length")
	}
	moved := 0
	for lp, to := range next {
		if to < 0 || to >= len(k.clusters) {
			panic("timewarp: Rebalance assigned an LP to a cluster out of range")
		}
		from := k.RouteOf(LPID(lp))
		if to == from {
			continue
		}
		moved++
		k.sendCtrl(from, ctrlMsg{typ: frameOrder, order: wireOrder{cluster: int32(from), lp: int32(lp), to: int32(to)}})
	}
	if moved > 0 {
		k.routes.bump()
	}
}

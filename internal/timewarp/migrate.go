package timewarp

import (
	"fmt"
	"math"
	"sync/atomic"
)

// GVT-synchronized LP migration, within one process: dynamic balancing is
// refused by New when the transport spans more than one (ErrBadTransport).
//
// The coordinator decides moves (finishLoadRound), but every ownership
// transfer is executed by the clusters themselves so an LP is only ever
// touched by one goroutine:
//
//   - The coordinator appends migOrder entries to the source cluster's order
//     queue (mutex-protected, cold path) and raises its order flag.
//   - The source cluster, on its own goroutine, hands the LP off
//     (migrateOut): it commits the LP's records below observed GVT — GVT
//     advance is the one point where the committed prefix is unique — and
//     copies the optimistic suffix out of its history log, marking all of
//     the LP's records dead, then rewrites the routing table, drops
//     ownership, and hands the live lpRuntime by pointer, with the suffix,
//     to the destination's payload queue.
//   - The payload is accounted exactly like a message in flight: its
//     earliest pending work time is folded into the sender's redMin, and it
//     is counted once in the sender's sent counter under the sender's current
//     color, so no GVT cut can close over an LP that is mid-flight with
//     uncounted events.
//   - The destination adopts the LP (migrateIn) the next time it looks at
//     its flags: it counts the payload as received, takes ownership,
//     appends the suffix to its own history log and relinks the LP's chain
//     there, seeds its scheduler, and re-delivers any events that were
//     parked for the LP. No live record of an LP stays in a log its owner
//     does not run.
//
// Events routed under a stale table entry are forwarded by whichever cluster
// receives them (cluster.deliver): forwarding re-stages the event in the
// forwarder's outbox, so the forwarded hop is report-covered while buffered
// and counted under the forwarder's color once its batch flushes,
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

// migPayload is one LP in flight between clusters: the live runtime, moved
// by pointer, and its uncommitted history, a log of its own (base 0) in
// chronological order. color is the round color the source counted the
// payload under; the destination counts it received under the same color.
type migPayload struct {
	lp     *lpRuntime
	suffix histLog
	color  uint8
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
// is raised: hand off LPs this cluster was ordered to give up, adopt LPs
// handed to it, then retry parked events. One atomic load per pass of the
// cluster loop when idle.
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

// migrateOut hands one LP to its new home cluster.
func (c *cluster) migrateOut(o migOrder) {
	k := c.kernel
	lp := k.lps[o.lp]
	if !c.owned[o.lp] || o.to == c.id {
		return // stale order: the LP already moved, or a no-op
	}
	// Commit the unique prefix here so only the optimistic suffix travels;
	// the committed counter stays with the collecting cluster.
	suffix := c.takeHistory(lp, k.GVT())
	// Account the payload like a message in flight: bound its earliest work
	// by redMin now and count it sent under the current color once it is
	// handed off, so the GVT cuts that race the handoff stay sound.
	color := uint8(c.color & 1)
	if t := lp.nextTime(); t < c.redMin {
		c.redMin = t
	}
	// Route first, then drop ownership: after this store new sends go to the
	// destination, while events already queued here are forwarded by the
	// owned-check in deliver. The opposite order would strand forwarded
	// events in a cluster that will never own the LP again.
	k.routes.set(o.lp, o.to)
	c.owned[o.lp] = false
	c.removeLP(lp)
	c.stats.Migrations++
	k.clusters[o.to].enqueuePayload(migPayload{lp: lp, suffix: suffix, color: color})
	atomic.AddInt64(&c.sentCum[color].n, 1)
}

// enqueuePayload queues an LP handed to this cluster and wakes the cluster
// in case it is idle-blocked on its mailbox; control bits ignore capacity,
// so the nudge always lands. migrateIn (or adoptFinalPayloads) counts the
// payload as received.
func (c *cluster) enqueuePayload(p migPayload) {
	c.migMu.Lock()
	c.migIn = append(c.migIn, p)
	atomic.StoreInt32(&c.migFlag, 1)
	c.migMu.Unlock()
	c.mail.postCtrl(ctrlWake)
}

// migrateIn adopts one LP handed to this cluster.
func (c *cluster) migrateIn(p migPayload) {
	lp := p.lp
	lp.cluster = c
	c.owned[lp.id] = true
	c.lps = append(c.lps, lp)
	atomic.AddInt64(&c.recvCum[p.color].n, 1)
	// schedT tracked an entry in the old home's scheduler (now unreachable
	// garbage, skipped there by the owned check); reset it before
	// scheduling here or the gate could suppress the adopting push.
	lp.schedT = TimeInfinity
	c.schedule(lp)
	// The suffix joins this cluster's log at its tail, relinked in order,
	// so fossil collection here commits it and a rollback here walks it.
	h := &p.suffix
	for i := range h.recs {
		in, out, state := h.shares(int64(i))
		lp.last = c.hist.push(lp.id, h.recs[i].time, lp.last, in, out, state)
	}
}

// takeHistory takes LP lp's uncommitted history out of this cluster's log
// for a migration: records below gvt are committed here, the rest are
// copied, oldest first, into the returned suffix, and all are marked dead.
//
//kernelvet:deterministic
func (c *cluster) takeHistory(lp *lpRuntime, gvt Time) histLog {
	h := &c.hist
	var suffix histLog
	chain := c.chain(lp.last, math.MinInt64)
	for i := len(chain) - 1; i >= 0; i-- {
		r := h.at(chain[i])
		in, out, state := h.shares(chain[i])
		if r.time < gvt {
			c.stats.EventsCommitted += uint64(len(in))
			lp.loadCommitted += uint64(len(in))
		} else {
			suffix.push(lp.id, r.time, -1, in, out, state)
		}
		r.dead = true
	}
	lp.last = -1
	h.trim()
	return suffix
}

// adoptFinalPayloads adopts payloads still parked at termination. It runs
// single-threaded from Kernel.Run after every cluster goroutine exited: an
// idle LP's payload holds neither the final cut (it was counted sent under
// the red color, which that cut does not wait on) nor GVT below infinity
// (its earliest work is infinity), so its destination can exit before
// adopting it.
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
// localMin and captureLoad).
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
// forwarder's GVT reports (localMin) while buffered, and counted sent under
// the forwarder's color when its batch flushes — the forwarded leg is
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
// refinement pass over the LP graph. An assignment that does not fit the
// run fails it before any LP moves.
func (k *Kernel) finishLoadRound() {
	k.rebalanceRounds++
	s := k.buildSnapshot()
	k.smoothLoad(s)
	next := k.cfg.Dynamic.Rebalance(s)
	if next == nil {
		return // rebalancer declined (e.g. imbalance below threshold)
	}
	if len(next) != len(k.lps) {
		k.fail(fmt.Errorf("timewarp: Rebalance returned an assignment of %d LPs, want %d", len(next), len(k.lps)))
		return
	}
	for lp, to := range next {
		if to < 0 || to >= len(k.clusters) {
			k.fail(fmt.Errorf("timewarp: Rebalance assigned LP %d to cluster %d, want [0,%d)", lp, to, len(k.clusters)))
			return
		}
	}
	moved := 0
	for lp, to := range next {
		from := k.RouteOf(LPID(lp))
		if to == from {
			continue
		}
		moved++
		k.clusters[from].enqueueOrder(migOrder{lp: LPID(lp), to: to})
	}
	if moved > 0 {
		k.routes.bump()
	}
}

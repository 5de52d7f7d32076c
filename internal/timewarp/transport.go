package timewarp

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/minheap"
)

// Batched inter-cluster transport.
//
// Remote events are not handed over one channel operation at a time: each
// cluster accumulates them in per-destination outboxes while it executes, and
// flushes an outbox as one batch into the destination's mailbox — a
// double-buffered, mutex-swapped MPSC queue. The whole batch costs one lock
// acquire and one atomic add to its sender's sent counter, and one lock
// acquire plus one atomic add to its receiver's received counter, so the
// per-event cost of the remote path is a slice append and a copy.
//
// GVT stays sound without per-event accounting because every place an event
// can wait is covered by exactly one of two mechanisms:
//
//   - Flushed batches are in transit: the sender folds the batch's minimum
//     receive time into redMin and, once the push is accepted, counts it in
//     its cumulative sent counter under its round color (cluster.sentCum);
//     the receiver counts it in recvCum when it takes it out of the mailbox.
//     A round's first cut closes only when the white received counts reach
//     the white sent counts the cut acks pinned.
//   - Unflushed events (per-destination outboxes, the intra-cluster localQ)
//     are private to their owning goroutine, and that same goroutine is the
//     one that joins cuts and files wave-2 reports: cluster.localMin folds
//     the buffered events' minimum receive time into every report, so a cut
//     can never conclude a GVT above an event still sitting in a buffer.
//
// The flush policy bounds how long optimism can be starved by batching:
//
//   - size: an outbox at flushBatch events flushes immediately;
//   - urgency: an event below the destination's published progress is (or
//     soon will be) a straggler there — the outbox flushes at once so the
//     rollback it triggers is as shallow as possible. An idle destination
//     publishes TimeInfinity, so sends to idle clusters never sit;
//   - idleness: a cluster with nothing to execute flushes everything before
//     blocking, so held batches can never be what the fleet is waiting for.
//
// Batches are timestamped for the modeled wire once per flush: a batch whose
// dueNano has not elapsed parks in the receiver's delayed heap uncounted by
// its received counter (the cut waits for the modeled wire, as on a real
// LAN), and is counted per batch when it is delivered.
//
// GVT/load/wake control traffic rides the same mailboxes as a bitmask, not
// as events: posting a control kind sets a bit and rings the notify channel,
// which cannot fail on a full mailbox — the control plane is immune to data
// backpressure, so broadcast needs no retry bookkeeping.

// batchHdr describes one pushed batch: its length, the GVT round color it
// was flushed under, and the modeled-wire delivery deadline (zero
// when no latency is configured). It is flat (wire-safe) so the TCP
// transport can move it between processes by plain copy (wire.go); kernelvet
// enforces that no pointer-bearing field sneaks in.
//
//kernelvet:wire
type batchHdr struct {
	n       int32
	color   uint8
	dueNano int64
}

// mailbox is the per-cluster inbound queue: an MPSC, double-buffered pair of
// slices swapped under a mutex. Producers append whole batches (events plus
// one header); the owning cluster takes everything with one swap, handing its
// drained buffers back as the next fill side. ctrl accumulates control kinds
// as a bitmask; notify (capacity 1) wakes a consumer blocked in waitMail.
type mailbox struct {
	mu    sync.Mutex
	in    []Event    // guarded by mu
	hdrIn []batchHdr // guarded by mu
	ctrl  uint8      // guarded by mu
	// flag is 1 whenever events or control bits are queued; the consumer
	// polls it with one atomic load per main-loop iteration instead of
	// taking the mutex to find an empty queue.
	flag   int32
	notify chan struct{}
}

// push appends one batch if it fits: a batch is accepted when the mailbox is
// empty (so progress never deadlocks on a capacity smaller than one batch)
// or when the resulting queue stays within capEvents. It never blocks;
// rejected batches stay in the sender's outbox and are retried.
func (m *mailbox) push(events []Event, hdr batchHdr, capEvents int) bool {
	m.mu.Lock()
	if len(m.in) > 0 && len(m.in)+len(events) > capEvents {
		m.mu.Unlock()
		return false
	}
	m.in = append(m.in, events...)
	m.hdrIn = append(m.hdrIn, hdr)
	// Ring the notify channel only on the empty→pending transition: a
	// consumer that saw flag==1 (or was already rung) will take everything
	// queued in one swap, so re-ringing per push buys nothing.
	wasIdle := atomic.LoadInt32(&m.flag) == 0
	atomic.StoreInt32(&m.flag, 1)
	m.mu.Unlock()
	if wasIdle {
		m.wake()
	}
	return true
}

// postCtrl merges a control kind into the mailbox's bitmask. Control posts
// ignore capacity: they carry no payload and must get through even when the
// data side is backpressured.
func (m *mailbox) postCtrl(kind uint8) {
	m.mu.Lock()
	m.ctrl |= kind
	wasIdle := atomic.LoadInt32(&m.flag) == 0
	atomic.StoreInt32(&m.flag, 1)
	m.mu.Unlock()
	if wasIdle {
		m.wake()
	}
}

// take swaps out everything queued, installing the caller's drained scratch
// buffers as the new fill side. Consumer only.
func (m *mailbox) take(evScratch []Event, hdrScratch []batchHdr) ([]Event, []batchHdr, uint8) {
	m.mu.Lock()
	ev, hdr, ctrl := m.in, m.hdrIn, m.ctrl
	m.in, m.hdrIn, m.ctrl = evScratch[:0], hdrScratch[:0], 0
	atomic.StoreInt32(&m.flag, 0)
	m.mu.Unlock()
	return ev, hdr, ctrl
}

// wake rings the notify channel; it reports whether this call filled it (a
// consumer already rung is not rung twice).
func (m *mailbox) wake() bool {
	select {
	case m.notify <- struct{}{}:
		return true
	default:
		return false
	}
}

// flushBatch is the outbox size that forces a flush: it bounds both the
// sender-side buffer and the burst a single push dumps into a mailbox.
const flushBatch = 64

// outbox buffers this cluster's not-yet-flushed events for one destination.
// min tracks the buffered minimum receive time (the value localMin folds into
// GVT reports and flushDst folds into redMin); wantFlush marks a batch whose
// flush trigger already fired but whose destination mailbox was full.
type outbox struct {
	buf       []Event
	min       Time
	wantFlush bool
}

// stageRemote buffers one event for dst and applies the size and urgency
// flush triggers. The urgency probe (an atomic load of the destination's
// published progress, a plain load, not a RMW) runs only when this event
// lowers the outbox minimum: an unchanged minimum was already compared at
// the previous stage, and maybeFlush re-checks every non-empty outbox once
// per main-loop iteration as the destination advances.
//
//kernelvet:noalloc
func (c *cluster) stageRemote(dst int, ev Event) {
	ob := &c.out[dst]
	if len(ob.buf) == 0 {
		ob.min = TimeInfinity
	}
	urgent := false
	if ev.RecvTime < ob.min {
		ob.min = ev.RecvTime
		urgent = ob.min < atomic.LoadInt64(&c.kernel.published[dst].t)
	}
	ob.buf = append(ob.buf, ev)
	// A flush the destination already refused (wantFlush) is retried by
	// maybeFlush once per main-loop iteration, not per staged event —
	// re-trying here would reintroduce per-event lock traffic against a
	// full mailbox, exactly the cost batching removes.
	if (urgent || len(ob.buf) >= flushBatch) && !ob.wantFlush {
		c.flushDst(dst)
	}
}

// flushDst pushes one destination's outbox as a single batch. The redMin
// fold happens before the push so no cut can observe the batch unbounded; the
// sent counter is raised only once the push is accepted, on this goroutine,
// before any cut ack it files could pin it. A rejected push (destination
// mailbox full) leaves the events in the outbox, where localMin still covers
// them. Returns whether the outbox is now empty.
//
//kernelvet:allow determinism the wall clock models the wire's delivery deadline only, never simulation state
func (c *cluster) flushDst(dst int) bool {
	ob := &c.out[dst]
	n := len(ob.buf)
	if n == 0 {
		return true
	}
	k := c.kernel
	color := uint8(c.color & 1)
	if ob.min < c.redMin {
		c.redMin = ob.min
	}
	hdr := batchHdr{n: int32(n), color: color}
	if lat := k.cfg.Net.Latency; lat > 0 {
		hdr.dueNano = time.Now().UnixNano() + int64(lat)
	}
	if !k.push(dst, ob.buf, hdr) {
		ob.wantFlush = true
		return false
	}
	atomic.AddInt64(&c.sentCum[color].n, int64(n))
	k.busy(k.cfg.Net.SendBusy * n)
	ob.buf = ob.buf[:0]
	ob.min = TimeInfinity
	ob.wantFlush = false
	return true
}

// push hands one flushed batch to cluster dst: into its mailbox when dst
// lives in this process, otherwise to the transport. False means
// backpressure (see flushDst).
func (k *Kernel) push(dst int, events []Event, hdr batchHdr) bool {
	if d := k.clusters[dst]; d.here {
		return d.mail.push(events, hdr, k.cfg.Net.InboxSize)
	}
	return k.tr.push(dst, events, hdr)
}

// maybeFlush applies the urgency trigger to every non-empty outbox and
// retries batches a full mailbox rejected. The main loop calls it once per
// iteration; the scan is len(clusters) branch-predictable length checks.
func (c *cluster) maybeFlush() {
	for dst := range c.out {
		ob := &c.out[dst]
		if len(ob.buf) == 0 {
			continue
		}
		if ob.wantFlush || ob.min < atomic.LoadInt64(&c.kernel.published[dst].t) {
			c.flushDst(dst)
		}
	}
}

// flushAll flushes every outbox (the idleness trigger). Returns true when
// everything flushed; full destinations keep their batches for retry.
func (c *cluster) flushAll() bool {
	ok := true
	for dst := range c.out {
		if len(c.out[dst].buf) > 0 && !c.flushDst(dst) {
			ok = false
		}
	}
	return ok
}

// outboxed returns the number of buffered, unflushed remote events.
func (c *cluster) outboxed() int {
	n := 0
	for dst := range c.out {
		n += len(c.out[dst].buf)
	}
	return n
}

// delayedBatch is one batch still "on the wire" under the modeled network
// latency. It is counted as received (under color) only when delivered, so a
// GVT cut waits for the modeled wire exactly as it would for a real LAN; buf
// is a copy of the batch's events.
type delayedBatch struct {
	due   int64
	color uint8
	buf   []Event
}

// delayedHeap orders on-the-wire batches by wall-clock due time.
type delayedHeap []delayedBatch

func (h *delayedHeap) push(b delayedBatch) { minheap.Push((*[]delayedBatch)(h), b, delayedLess) }

func (h *delayedHeap) pop() delayedBatch { return minheap.Pop((*[]delayedBatch)(h), delayedLess) }

func delayedLess(a, b *delayedBatch) bool { return a.due < b.due }

// deliverDue delivers every delayed batch whose wire time has elapsed (force
// delivers everything; initialization only), counting each batch as received
// as a whole. Returns the number of events delivered.
func (c *cluster) deliverDue(force bool) int {
	if len(c.delayed) == 0 {
		return 0
	}
	n := 0
	now := int64(0)
	if !force {
		now = time.Now().UnixNano()
	}
	for len(c.delayed) > 0 {
		if !force && c.delayed[0].due > now {
			break
		}
		b := c.delayed.pop()
		atomic.AddInt64(&c.recvCum[b.color].n, int64(len(b.buf)))
		c.kernel.busy(c.kernel.cfg.Net.RecvBusy * len(b.buf))
		for i := range b.buf {
			c.deliver(b.buf[i])
		}
		n += len(b.buf)
	}
	return n
}

// drainMail takes everything queued in this cluster's mailbox and delivers
// it: due batches into LP queues, premature batches (modeled wire) into the
// delayed heap, not yet counted as received. Control bits are handled
// after the data so a GVT probe triggered here observes the delivered events
// in localMin. Returns the number of events delivered.
func (c *cluster) drainMail() int {
	n := c.deliverDue(false)
	if atomic.LoadInt32(&c.mail.flag) == 0 {
		return n
	}
	ev, hdr, ctrl := c.mail.take(c.mailEv, c.mailHdr)
	c.mailEv, c.mailHdr = ev, hdr
	k := c.kernel
	now := int64(0)
	if k.cfg.Net.Latency > 0 {
		now = time.Now().UnixNano()
	}
	off := 0
	for _, h := range hdr {
		b := ev[off : off+int(h.n)]
		off += int(h.n)
		if h.dueNano > now {
			// The parked batch is counted as received once delivered.
			c.delayed.push(delayedBatch{due: h.dueNano, color: h.color, buf: append([]Event(nil), b...)})
			continue
		}
		// Count the whole batch as received with one atomic; the events are
		// covered from here on by this goroutine's own localMin (they are all
		// delivered below, before any GVT probe runs here).
		atomic.AddInt64(&c.recvCum[h.color].n, int64(h.n))
		k.busy(k.cfg.Net.RecvBusy * int(h.n))
		for i := range b {
			c.deliver(b[i])
		}
		n += int(h.n)
	}
	if ctrl != 0 {
		c.checkGVT()
		c.checkMigrate()
	}
	return n
}

// drainAllInit force-drains the mailbox and the modeled wire; only
// single-threaded initialization uses it, before the coordinator exists (the
// steady state never force-drains the wire — the GVT protocol counts
// on-the-wire batches instead of flushing them).
func (c *cluster) drainAllInit() int {
	n := c.deliverDue(true)
	if atomic.LoadInt32(&c.mail.flag) == 0 {
		return n
	}
	ev, hdr, _ := c.mail.take(c.mailEv, c.mailHdr)
	c.mailEv, c.mailHdr = ev, hdr
	off := 0
	for _, h := range hdr {
		b := ev[off : off+int(h.n)]
		off += int(h.n)
		atomic.AddInt64(&c.recvCum[h.color].n, int64(h.n))
		for i := range b {
			c.deliver(b[i])
		}
		n += int(h.n)
	}
	return n
}

// waitMail blocks for at most idleWait for a wakeup on the notify channel (a
// remote batch, a GVT control bit, a migration nudge, or — for a
// window-stalled cluster — the progress floor crossing its horizon). Idle and
// window-stalled clusters both use it, so neither spins a core; an arriving
// batch is handled immediately, so waiting never delays straggler receipt.
// It reports whether the idleWait backstop ended the wait.
func (c *cluster) waitMail() (timedOut bool) {
	if c.idleTimer == nil {
		c.idleTimer = time.NewTimer(idleWait)
	} else {
		c.idleTimer.Reset(idleWait)
	}
	select {
	case <-c.mail.notify:
		c.idleTimer.Stop()
		if c.drainMail() > 0 {
			c.idleLoops = 0
		}
		return false
	case <-c.idleTimer.C:
		return true
	}
}

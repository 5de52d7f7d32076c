package timewarp

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestMailboxPushTakeCtrl pins the mailbox contract: batch FIFO across
// pushes, capacity refusal with accept-when-empty, control-bit merging
// independent of data capacity, and double-buffer swapping through take.
func TestMailboxPushTakeCtrl(t *testing.T) {
	m := mailbox{notify: make(chan struct{}, 1)}
	b1 := []Event{{ID: 1, RecvTime: 5}, {ID: 2, RecvTime: 7}}
	b2 := []Event{{ID: 3, RecvTime: 6}}
	if !m.push(b1, batchHdr{n: 2, color: 0}, 4) {
		t.Fatal("push into empty mailbox refused")
	}
	if !m.push(b2, batchHdr{n: 1, color: 1}, 4) {
		t.Fatal("push within capacity refused")
	}
	if m.push([]Event{{ID: 4}, {ID: 5}}, batchHdr{n: 2}, 4) {
		t.Fatal("push beyond capacity accepted")
	}
	m.postCtrl(ctrlCut)
	m.postCtrl(ctrlWake)
	if atomic.LoadInt32(&m.flag) != 1 {
		t.Fatal("flag not raised")
	}
	ev, hdr, ctrl := m.take(nil, nil)
	if len(ev) != 3 || ev[0].ID != 1 || ev[1].ID != 2 || ev[2].ID != 3 {
		t.Fatalf("take returned events %v, want IDs 1,2,3 in push order", ev)
	}
	if len(hdr) != 2 || hdr[0].n != 2 || hdr[0].color != 0 || hdr[1].n != 1 || hdr[1].color != 1 {
		t.Fatalf("take returned headers %v", hdr)
	}
	if ctrl != ctrlCut|ctrlWake {
		t.Fatalf("ctrl = %b, want cut|wake", ctrl)
	}
	if atomic.LoadInt32(&m.flag) != 0 {
		t.Fatal("flag not cleared by take")
	}
	// An empty mailbox accepts a batch larger than its capacity, so a
	// capacity of 1 can never deadlock a flush.
	if !m.push([]Event{{ID: 6}, {ID: 7}, {ID: 8}}, batchHdr{n: 3}, 1) {
		t.Fatal("oversized batch into empty mailbox refused")
	}
	// Control bits must get through regardless of data backpressure.
	if m.push([]Event{{ID: 9}}, batchHdr{n: 1}, 1) {
		t.Fatal("push into full capacity-1 mailbox accepted")
	}
	m.postCtrl(ctrlReport)
	_, _, ctrl = m.take(nil, nil)
	if ctrl != ctrlReport {
		t.Fatalf("ctrl = %b after backpressured post, want report", ctrl)
	}
}

// TestFlushPolicy pins the three flush triggers single-threaded, before the
// cluster goroutines exist: size threshold, urgency against the
// destination's published progress, and the explicit idle flushAll.
func TestFlushPolicy(t *testing.T) {
	newK := func() *Kernel {
		k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}},
			[]Handler{&pingLP{peer: 1}, &pingLP{peer: 0}})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}

	// Urgency: the destination's published progress is ahead of the staged
	// event, so holding it would deepen the eventual rollback — it must
	// flush immediately. (New kernels publish TimeInfinity, the idle
	// value, so the fresh-kernel default is also "flush eagerly".)
	k := newK()
	c0, c1 := k.clusters[0], k.clusters[1]
	k.publishProgress(1, 50)
	c0.route(Event{ID: 1, Receiver: 1, RecvTime: 40}, true)
	if got := len(c1.mail.in); got != 1 {
		t.Fatalf("urgent event not flushed: mailbox holds %d", got)
	}
	// An event ahead of the destination's progress is held for batching.
	c0.route(Event{ID: 2, Receiver: 1, RecvTime: 60}, true)
	if got := len(c1.mail.in); got != 1 {
		t.Fatalf("future event flushed eagerly: mailbox holds %d", got)
	}
	if got := c0.outboxed(); got != 1 {
		t.Fatalf("outbox holds %d, want 1", got)
	}
	// The buffered event must be covered by the GVT report floor.
	if got := c0.localMin(); got != 60 {
		t.Fatalf("localMin = %d with an outboxed event at 60", got)
	}
	// Size: filling the outbox to flushBatch events flushes it.
	for i := 0; i < flushBatch-1; i++ {
		c0.route(Event{ID: uint64(3 + i), Receiver: 1, RecvTime: Time(61 + i)}, true)
	}
	if got := c0.outboxed(); got != 0 {
		t.Fatalf("outbox holds %d after reaching the size threshold", got)
	}
	if got := len(c1.mail.in); got != 1+flushBatch {
		t.Fatalf("mailbox holds %d, want %d", got, 1+flushBatch)
	}
	// The ledger counts per batch, by length: 1 urgent + 64 batched.
	if got := k.inTransit(); got != int64(1+flushBatch) {
		t.Fatalf("in transit = %d, want %d", got, 1+flushBatch)
	}

	// Idleness: flushAll empties every outbox regardless of triggers.
	k2 := newK()
	d0, d1 := k2.clusters[0], k2.clusters[1]
	k2.publishProgress(1, 10)
	d0.route(Event{ID: 1, Receiver: 1, RecvTime: 99}, true)
	if d0.outboxed() != 1 {
		t.Fatal("setup: event was not held")
	}
	d0.flushAll()
	if d0.outboxed() != 0 || len(d1.mail.in) != 1 {
		t.Fatalf("flushAll left outboxed=%d mailbox=%d", d0.outboxed(), len(d1.mail.in))
	}
}

// TestFlushRejectionKeepsAccounting: a flush into a full mailbox must leave
// the sender's sent counter untouched — it is raised only once a push is
// accepted, so there is nothing to take back — and the events outboxed
// (still covered by localMin), and a later retry after the destination
// drains must deliver.
func TestFlushRejectionKeepsAccounting(t *testing.T) {
	k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}, Net: NetConfig{InboxSize: 1}},
		[]Handler{&pingLP{peer: 1}, &pingLP{peer: 0}})
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := k.clusters[0], k.clusters[1]
	// First batch occupies the capacity-1 mailbox.
	c0.route(Event{ID: 1, Receiver: 1, RecvTime: 5}, true)
	c0.flushAll()
	if len(c1.mail.in) != 1 || k.inTransit() != 1 {
		t.Fatalf("setup: mailbox=%d transit=%d", len(c1.mail.in), k.inTransit())
	}
	// Second flush must be refused without counting anything sent.
	c0.route(Event{ID: 2, Receiver: 1, RecvTime: 6}, true)
	if c0.flushAll() {
		t.Fatal("flush into a full capacity-1 mailbox succeeded")
	}
	if got := atomic.LoadInt64(&c0.sentCum[0].n); got != 1 {
		t.Fatalf("sentCum = %d after refused flush, want 1", got)
	}
	if got := k.inTransit(); got != 1 {
		t.Fatalf("in transit = %d after refused flush, want 1", got)
	}
	if got := c0.localMin(); got != 6 {
		t.Fatalf("localMin = %d, refused event at 6 not covered", got)
	}
	// Destination drains; the retry succeeds and both events arrive.
	if got := c1.drainMail(); got != 1 {
		t.Fatalf("drained %d, want 1", got)
	}
	if !c0.flushAll() {
		t.Fatal("retry after drain still refused")
	}
	if got := c1.drainMail(); got != 1 {
		t.Fatalf("drained %d on retry, want 1", got)
	}
	if k.inTransit() != 0 || k.lps[1].nextTime() != 5 {
		t.Fatalf("after delivery: transit=%d next=%d", k.inTransit(), k.lps[1].nextTime())
	}
}

// TestTinyMailboxBackpressure is the backpressure stress: mailbox capacities
// of 1 and 2, with straggler pairs forcing rollbacks and anti-messages
// through constantly-refused flushes. The run must terminate (no deadlock),
// keep the commit invariant, drain the transit counters, and commit
// identical totals across capacities (the transport must not change
// results, only timing).
func TestTinyMailboxBackpressure(t *testing.T) {
	run := func(inbox int) RunStats {
		const chains = 6
		handlers := make([]Handler, 0, chains+4)
		clusterOf := make([]int, 0, chains+4)
		for i := 0; i < chains; i++ {
			handlers = append(handlers, &chainLP{limit: 150})
			clusterOf = append(clusterOf, i%4)
		}
		handlers = append(handlers,
			&stragglerVictim{limit: 250}, &stragglerSender{victim: LPID(chains), n: 240},
			&stragglerVictim{limit: 250}, &stragglerSender{victim: LPID(chains + 2), n: 240},
		)
		clusterOf = append(clusterOf, 0, 3, 1, 2)
		k, err := New(Config{
			NumClusters:     4,
			ClusterOf:       clusterOf,
			GVTPeriodEvents: 32,
			Net:             NetConfig{InboxSize: inbox},
		}, handlers)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		if stats.FinalGVT != TimeInfinity {
			t.Fatalf("inbox=%d: run did not terminate (GVT=%d)", inbox, stats.FinalGVT)
		}
		if stats.EventsProcessed-stats.EventsRolledBack != stats.EventsCommitted {
			t.Fatalf("inbox=%d: processed-rolledback=%d != committed=%d",
				inbox, stats.EventsProcessed-stats.EventsRolledBack, stats.EventsCommitted)
		}
		checkLedgerBalanced(t, k, fmt.Sprintf("inbox=%d", inbox))
		return stats
	}
	wide := run(0) // default capacity: the reference result
	for _, inbox := range []int{1, 2} {
		tiny := run(inbox)
		if tiny.EventsCommitted != wide.EventsCommitted {
			t.Errorf("inbox=%d committed %d, default committed %d",
				inbox, tiny.EventsCommitted, wide.EventsCommitted)
		}
	}
}

// TestTinyMailboxWithLatencyAndMigration drives the capacity-1 mailbox
// through the remaining protocol machinery at once: modeled wire latency
// (delayed batches under backpressure) and rotating LP migration (control
// wakeups that must bypass the full mailbox). Termination within the test
// timeout is the deadlock check.
func TestTinyMailboxWithLatencyAndMigration(t *testing.T) {
	var rounds int32
	a := &pingLP{peer: 1, limit: 300, delay: 3, start: true}
	b := &pingLP{peer: 0, limit: 300, delay: 3}
	k, err := New(Config{
		NumClusters:     2,
		ClusterOf:       []int{0, 1},
		GVTPeriodEvents: 16,
		Net:             NetConfig{InboxSize: 1, Latency: 30 * time.Microsecond},
		Dynamic: DynamicConfig{
			Rebalance:    rotatingRebalance(2, 2, &rounds),
			PeriodRounds: 1,
		},
	}, []Handler{a, b})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.EventsCommitted != 301 {
		t.Errorf("committed = %d, want 301", stats.EventsCommitted)
	}
	if a.seen+b.seen != 301 {
		t.Errorf("handler state: %d + %d != 301", a.seen, b.seen)
	}
	checkLedgerBalanced(t, k, "run")
}

// TestLoadSmoothingDecays: the EWMA view must track a moving hotspot with
// inertia — a one-round spike neither dominates the smoothed load nor
// vanishes from it, and SmoothedImbalance gates on the decayed view.
func TestLoadSmoothingDecays(t *testing.T) {
	k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}},
		[]Handler{&pingLP{peer: 1}, &pingLP{peer: 0}})
	if err != nil {
		t.Fatal(err)
	}
	s := &LoadSnapshot{
		NumClusters: 2,
		ClusterOf:   []int{0, 1},
		Committed:   []uint64{100, 0},
	}
	// Round 1 seeds the EWMA with the raw window.
	k.smoothLoad(s)
	if s.SmoothedCommitted[0] != 100 || s.SmoothedCommitted[1] != 0 {
		t.Fatalf("seed round: smoothed = %v, want [100 0]", s.SmoothedCommitted)
	}
	if got := s.SmoothedImbalance(); got != 2.0 {
		t.Fatalf("seed imbalance = %v, want 2.0", got)
	}
	// Round 2: the hotspot flips; with the default alpha of 0.5 both LPs
	// blend old and new windows equally.
	s.Committed = []uint64{0, 100}
	k.smoothLoad(s)
	if s.SmoothedCommitted[0] != 50 || s.SmoothedCommitted[1] != 50 {
		t.Fatalf("round 2: smoothed = %v, want [50 50]", s.SmoothedCommitted)
	}
	if got := s.SmoothedImbalance(); got != 1.0 {
		t.Fatalf("round 2 imbalance = %v, want 1.0 on the smoothed view", got)
	}
	// Round 3: the flip persists, so the smoothed view follows it.
	k.smoothLoad(s)
	if s.SmoothedCommitted[0] != 25 || s.SmoothedCommitted[1] != 75 {
		t.Fatalf("round 3: smoothed = %v, want [25 75]", s.SmoothedCommitted)
	}
}

package timewarp

import (
	"testing"
	"time"
)

// chainLP advances itself by one time unit per event up to a limit,
// recording the highest time it reached.
type chainLP struct {
	limit   Time
	reached Time
}

func (c *chainLP) Init(ctx *Context) { ctx.Send(ctx.Self(), 1, 0, 0) }
func (c *chainLP) Execute(ctx *Context, now Time, events []Event) {
	if now > c.reached {
		c.reached = now
	}
	if now < c.limit {
		ctx.Send(ctx.Self(), now+1, 0, 0)
	}
}
func (c *chainLP) EncodeState(buf []byte) []byte { return appendI64(buf, c.reached) }
func (c *chainLP) DecodeState(data []byte) error { return decodeI64(data, &c.reached) }

// TestOptimismWindowCompletes: a bounded window must still drive the run to
// completion (the throttle may stall clusters, never deadlock them).
func TestOptimismWindowCompletes(t *testing.T) {
	a := &chainLP{limit: 500}
	b := &chainLP{limit: 500}
	k, err := New(Config{
		NumClusters:    2,
		ClusterOf:      []int{0, 1},
		OptimismWindow: 10,
	}, []Handler{a, b})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.reached != 500 || b.reached != 500 {
		t.Errorf("chains reached %d/%d, want 500", a.reached, b.reached)
	}
	if stats.EventsCommitted != 1000 {
		t.Errorf("committed %d, want 1000", stats.EventsCommitted)
	}
}

// TestOptimismWindowCorrectUnderContention: a straggler-prone pair under a
// tight window plus modeled latency must still produce the exact committed
// computation (rollback counts themselves are wall-clock races and are
// studied by the calibrated experiments, not asserted here).
func TestOptimismWindowCorrectUnderContention(t *testing.T) {
	run := func(window Time) (int64, uint64) {
		v := &stragglerVictim{limit: 600}
		s := &stragglerSender{victim: 0, n: 590}
		k, err := New(Config{
			NumClusters:     2,
			ClusterOf:       []int{0, 1},
			GVTPeriodEvents: 128,
			OptimismWindow:  window,
			Net:             NetConfig{Latency: 200 * time.Microsecond},
		}, []Handler{v, s})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		if stats.EventsProcessed-stats.EventsRolledBack != stats.EventsCommitted {
			t.Fatalf("window=%d: processed-rolledback=%d != committed=%d",
				window, stats.EventsProcessed-stats.EventsRolledBack, stats.EventsCommitted)
		}
		return v.sum, stats.EventsCommitted
	}
	sumU, comU := run(0)
	sumW, comW := run(5)
	if sumU != sumW || comU != comW {
		t.Errorf("window changed results: sum %d/%d committed %d/%d", sumU, sumW, comU, comW)
	}
}

// TestNetLatencyDelaysDelivery: with a large modeled latency, remote events
// arrive late and cause rollbacks that an instantaneous network avoids; the
// results must still match.
func TestNetLatencyDeterministicResult(t *testing.T) {
	run := func(lat time.Duration) (int64, uint64) {
		v := &stragglerVictim{limit: 300}
		s := &stragglerSender{victim: 0, n: 290}
		k, err := New(Config{
			NumClusters: 2,
			ClusterOf:   []int{0, 1},
			Net:         NetConfig{Latency: lat},
		}, []Handler{v, s})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return v.sum, stats.EventsCommitted
	}
	sumFast, committedFast := run(0)
	sumSlow, committedSlow := run(500 * time.Microsecond)
	if sumFast != sumSlow {
		t.Errorf("latency changed the result: %d vs %d", sumFast, sumSlow)
	}
	if committedFast != committedSlow {
		t.Errorf("latency changed committed count: %d vs %d", committedFast, committedSlow)
	}
}

// TestPerClusterStats: per-cluster counters must sum to the aggregate.
func TestPerClusterStats(t *testing.T) {
	a := &pingLP{peer: 1, limit: 150, delay: 2, start: true}
	b := &pingLP{peer: 0, limit: 150, delay: 2}
	k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}}, []Handler{a, b})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	var sum ClusterStats
	for _, cs := range stats.PerCluster {
		sum.add(cs)
	}
	if sum != stats.ClusterStats {
		t.Errorf("per-cluster sum %+v != aggregate %+v", sum, stats.ClusterStats)
	}
	if stats.WallTime <= 0 {
		t.Error("no wall time recorded")
	}
	if stats.GVTRounds < 1 {
		t.Error("no GVT rounds recorded")
	}
}

// TestManyLPsManyClusters exercises scheduling with LP counts far above
// cluster counts and verifies commit totals.
func TestManyLPsManyClusters(t *testing.T) {
	const n = 120
	handlers := make([]Handler, n)
	clusterOf := make([]int, n)
	for i := 0; i < n; i++ {
		handlers[i] = &chainLP{limit: 40}
		clusterOf[i] = i % 6
	}
	k, err := New(Config{NumClusters: 6, ClusterOf: clusterOf}, handlers)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(n * 40); stats.EventsCommitted != want {
		t.Errorf("committed %d, want %d", stats.EventsCommitted, want)
	}
	for i, h := range handlers {
		if got := h.(*chainLP).reached; got != 40 {
			t.Fatalf("lp %d reached %d, want 40", i, got)
		}
	}
}

// TestNetBusyCostsDoNotChangeResults: the CPU cost model is timing-only.
func TestNetBusyCostsDoNotChangeResults(t *testing.T) {
	run := func(busy int) uint64 {
		a := &pingLP{peer: 1, limit: 100, delay: 2, start: true}
		b := &pingLP{peer: 0, limit: 100, delay: 2}
		k, err := New(Config{
			NumClusters: 2, ClusterOf: []int{0, 1},
			Net: NetConfig{SendBusy: busy, RecvBusy: busy},
		}, []Handler{a, b})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return stats.EventsCommitted
	}
	if run(0) != run(5000) {
		t.Error("busy-cost model changed committed events")
	}
}

// TestPublishProgressWakesStalledCluster: publishing progress wakes a
// window-stalled cluster exactly when the progress floor reaches the horizon
// it registered, and scans nobody while no cluster is registered as stalled.
// Case S06 of the pass matrix (TestStepPass): Kernel.publish neither stores
// nor scans an unchanged next-work time, and a changed one still wakes the
// parked cluster. The kernel never runs; the test drives publishProgress and
// publish directly.
func TestPublishProgressWakesStalledCluster(t *testing.T) {
	k, err := New(Config{
		NumClusters:    2,
		ClusterOf:      []int{0, 1},
		OptimismWindow: 10,
	}, []Handler{&chainLP{limit: 1}, &chainLP{limit: 1}})
	if err != nil {
		t.Fatal(err)
	}
	notified := func(c int) bool {
		select {
		case <-k.clusters[c].mail.notify:
			return true
		default:
			return false
		}
	}
	// Cluster 1's next work is at 110, so with window 10 it needs the floor
	// at 100.
	k.publishProgress(1, 110)
	k.stallNeed[1].t = 100

	k.publishProgress(0, 100)
	if notified(1) {
		t.Error("stalled = 0: publishProgress scanned the waiters")
	}

	k.stalled.n = 1
	k.publishProgress(0, 99)
	if notified(1) {
		t.Error("floor 99 below need 100 woke cluster 1")
	}
	k.publishProgress(0, 100)
	if !notified(1) {
		t.Error("floor 100 reaching need 100 did not wake cluster 1")
	}
	if notified(0) {
		t.Error("cluster 0 is not stalled but was woken")
	}

	// S06. Cluster 0 has not stored through publish yet, so 100 is a
	// change: stored, scanned, cluster 1 woken.
	c0 := k.clusters[0]
	k.publish(c0, 100)
	if !notified(1) {
		t.Error("S06: first publish of 100 did not wake cluster 1")
	}
	// A sentinel in the shared entry shows whether publish stores. The
	// floor over it is 110, at or above need 100, so a scan would wake.
	k.published[0].t = 200
	k.publish(c0, 100)
	if got := k.published[0].t; got != 200 {
		t.Errorf("S06: unchanged publish stored %d over the entry", got)
	}
	if notified(1) {
		t.Error("S06: unchanged publish scanned the waiters")
	}
	k.publish(c0, 99)
	if got := k.published[0].t; got != 99 {
		t.Errorf("S06: changed publish left the entry at %d, want 99", got)
	}
	if notified(1) {
		t.Error("S06: floor 99 below need 100 woke cluster 1")
	}
	k.publish(c0, 100)
	if !notified(1) {
		t.Error("S06: changed publish lifting the floor to 100 did not wake cluster 1")
	}
}

package timewarp

import (
	"sync/atomic"
	"testing"
)

// histKernel builds a kernel of stragglerVictim LPs, LP i on cluster
// clusterOf[i] chaining itself up to limits[i], and runs their Init; no
// cluster goroutine runs, so the test drives the LPs itself.
func histKernel(t *testing.T, clusterOf []int, limits ...Time) (*Kernel, []*stragglerVictim) {
	t.Helper()
	clusters := 0
	vs := make([]*stragglerVictim, len(clusterOf))
	hs := make([]Handler, len(clusterOf))
	for i, c := range clusterOf {
		clusters = max(clusters, c+1)
		vs[i] = &stragglerVictim{limit: limits[i]}
		hs[i] = vs[i]
	}
	k, err := New(Config{NumClusters: clusters, ClusterOf: clusterOf}, hs)
	if err != nil {
		t.Fatal(err)
	}
	for _, lp := range k.lps {
		lp.ctx = Context{lp: lp, now: -1, inInit: true}
		lp.handler.Init(&lp.ctx)
	}
	for _, c := range k.clusters {
		c.drainLocal()
	}
	return k, vs
}

// histStep runs lp's next bundle and delivers the sends it made locally.
func histStep(lp *lpRuntime) int {
	n := lp.executeNext()
	lp.cluster.drainLocal()
	return n
}

// histRun runs lp's bundles until it has none left.
func histRun(lp *lpRuntime) {
	for histStep(lp) > 0 {
	}
}

// histLate queues a straggler for lp at time at (Kind 1: the victim sends
// nothing for it) and delivers the anti-messages its rollback sent locally.
func histLate(k *Kernel, lp *lpRuntime, at Time) {
	lp.enqueue(Event{ID: k.nextEventID(), Sender: NoLP, Receiver: lp.id, RecvTime: at, Kind: 1, Value: 7})
	lp.cluster.drainLocal()
}

// histDead counts the dead records in c's log.
func histDead(c *cluster) int {
	n := 0
	for _, r := range c.hist.recs {
		if r.dead {
			n++
		}
	}
	return n
}

// histSettled fails the test unless every cluster's log is empty and the
// clusters together committed every event processed and not rolled back.
func histSettled(t *testing.T, k *Kernel) {
	t.Helper()
	var s ClusterStats
	for _, c := range k.clusters {
		s.add(c.stats)
		if h := &c.hist; len(h.recs) != 0 || len(h.in) != 0 || len(h.out) != 0 || len(h.states) != 0 {
			t.Errorf("cluster %d keeps %d records, %d input events, %d sends, %d state bytes; want an empty log",
				c.id, len(h.recs), len(h.in), len(h.out), len(h.states))
		}
	}
	if s.EventsProcessed-s.EventsRolledBack != s.EventsCommitted {
		t.Errorf("processed %d - rolled back %d != committed %d", s.EventsProcessed, s.EventsRolledBack, s.EventsCommitted)
	}
}

// histReference returns the committed sums of the LPs of a one-cluster
// kernel that has the stragglers (LP, time) queued before it runs, so it
// never rolls back.
func histReference(t *testing.T, limits []Time, late ...[2]Time) []int64 {
	t.Helper()
	k, vs := histKernel(t, make([]int, len(limits)), limits...)
	for _, l := range late {
		histLate(k, k.lps[l[0]], l[1])
	}
	for _, lp := range k.lps {
		histRun(lp)
	}
	if r := k.clusters[0].stats.Rollbacks; r != 0 {
		t.Fatalf("reference rolled back %d times", r)
	}
	sums := make([]int64, len(vs))
	for i, v := range vs {
		sums[i] = v.sum
	}
	return sums
}

// TestClusterHistoryLog is the case matrix of a cluster's history log
// (histLog): one record per processed bundle of every LP the cluster runs,
// in execution order, each LP's records linked newest first from
// lpRuntime.last.
//
//	H01  interleaved LPs: a rollback walks one LP's chain and leaves the
//	     other's records live between its dead ones
//	H02  a live record at or after GVT blocks the head: older records behind
//	     it commit only once GVT passes it
//	H03  fossil collection skips dead records and commits none of their
//	     events
//	H04  compaction copies the log down once the head passes half of it;
//	     sequence numbers and offsets stay valid and a rollback walks the
//	     rebased log
//	H05  migration commits the records below GVT at the source (once: not
//	     those already behind the head), carries the suffix and relinks it
//	     at the tail of the destination's log
//	H06  every log is empty after Run, with rollbacks and with migrations
//	H07  execute, roll back between interleaved records, re-execute and
//	     commit allocates nothing in the steady state
func TestClusterHistoryLog(t *testing.T) {
	t.Run("H01", func(t *testing.T) {
		limits := []Time{10, 10}
		k, vs := histKernel(t, []int{0, 0}, limits...)
		c, a, b := k.clusters[0], k.lps[0], k.lps[1]
		for a.lvt < 10 || b.lvt < 10 {
			histStep(a)
			histStep(b)
		}
		checkLog(t, c)
		for i, r := range c.hist.recs {
			if r.lp != LPID(i%2) || r.time != Time(i/2+1) {
				t.Fatalf("record %d is LP %d at %d, want LP %d at %d", i, r.lp, r.time, i%2, i/2+1)
			}
		}
		histLate(k, a, 5) // undoes LP 0's bundles 5..10; 5..9 each sent one event
		checkLog(t, c)
		if a.liveRecords() != 4 || b.liveRecords() != 10 || a.lvt != 4 || b.lvt != 10 {
			t.Fatalf("after the rollback: live records %d/%d, lvt %d/%d; want 4/10, 4/10", a.liveRecords(), b.liveRecords(), a.lvt, b.lvt)
		}
		if len(c.hist.recs) != 20 || histDead(c) != 6 {
			t.Fatalf("after the rollback: %d records, %d dead; want 20, 6 (LP 1's newest record holds the tail)", len(c.hist.recs), histDead(c))
		}
		if s := c.stats; s.Rollbacks != 1 || s.EventsRolledBack != 6 || s.AntiMessages != 5 {
			t.Fatalf("rollbacks %d, rolled back %d, anti-messages %d; want 1, 6, 5", s.Rollbacks, s.EventsRolledBack, s.AntiMessages)
		}
		histRun(a)
		checkLog(t, c)
		c.fossilCollect(TimeInfinity)
		histSettled(t, k)
		want := histReference(t, limits, [2]Time{0, 5})
		if vs[0].sum != want[0] || vs[1].sum != want[1] {
			t.Errorf("committed sums %d, %d; rollback-free run %d, %d", vs[0].sum, vs[1].sum, want[0], want[1])
		}
	})

	t.Run("H02", func(t *testing.T) {
		k, _ := histKernel(t, []int{0, 0}, 6, 0)
		c, a, b := k.clusters[0], k.lps[0], k.lps[1]
		for i := 0; i < 3; i++ {
			histStep(a)
		}
		histStep(b)
		histLate(k, b, 20)
		histStep(b) // the blocker: LP 1 at 20 before LP 0 at 4..6
		histRun(a)
		checkLog(t, c)
		c.fossilCollect(10)
		if c.stats.EventsCommitted != 4 || a.liveRecords() != 3 || b.liveRecords() != 1 {
			t.Fatalf("GVT 10 behind the blocker at 20: committed %d, live records %d/%d; want 4, 3/1",
				c.stats.EventsCommitted, a.liveRecords(), b.liveRecords())
		}
		if r := c.hist.at(c.hist.headSeq()); r.lp != 1 || r.time != 20 {
			t.Fatalf("the head stopped at LP %d at %d, want the blocker", r.lp, r.time)
		}
		checkLog(t, c)
		c.fossilCollect(21)
		if c.stats.EventsCommitted != 8 || a.liveRecords() != 0 || b.liveRecords() != 0 {
			t.Fatalf("GVT 21 past the blocker: committed %d, live records %d/%d; want 8, 0/0",
				c.stats.EventsCommitted, a.liveRecords(), b.liveRecords())
		}
		histSettled(t, k)
	})

	t.Run("H03", func(t *testing.T) {
		k, _ := histKernel(t, []int{0, 0}, 3, 3)
		c, a, b := k.clusters[0], k.lps[0], k.lps[1]
		for a.lvt < 3 || b.lvt < 3 {
			histStep(a)
			histStep(b)
		}
		histLate(k, a, 2) // LP 0's records at 2 and 3 die under LP 1's
		if len(c.hist.recs) != 6 || histDead(c) != 2 {
			t.Fatalf("after the rollback: %d records, %d dead; want 6, 2", len(c.hist.recs), histDead(c))
		}
		c.fossilCollect(3)
		if c.stats.EventsCommitted != 3 {
			t.Fatalf("GVT 3 committed %d events, want 3: LP 0 at 1, LP 1 at 1 and 2, none of the dead", c.stats.EventsCommitted)
		}
		if r := c.hist.at(c.hist.headSeq()); r.lp != 1 || r.time != 3 || r.dead {
			t.Fatalf("the head stopped at %+v, want LP 1's live record at 3", *r)
		}
		histRun(a)
		checkLog(t, c)
		c.fossilCollect(TimeInfinity)
		histSettled(t, k)
	})

	t.Run("H04", func(t *testing.T) {
		limits := []Time{10}
		k, vs := histKernel(t, []int{0}, limits...)
		c, a := k.clusters[0], k.lps[0]
		h := &c.hist
		histRun(a)
		c.fossilCollect(3)
		if h.base != 0 || h.head != 2 || len(h.recs) != 10 {
			t.Fatalf("head below half: base %d, head %d, %d records; want 0, 2, 10 (no compaction)", h.base, h.head, len(h.recs))
		}
		c.fossilCollect(6)
		if h.base != 5 || h.head != 0 || len(h.recs) != 5 || len(h.in) != 5 || len(h.out) != 4 || len(h.states) != 5*8 {
			t.Fatalf("head at half: base %d, head %d, %d records, %d input events, %d sends, %d state bytes; want 5, 0, 5, 5, 4, 40",
				h.base, h.head, len(h.recs), len(h.in), len(h.out), len(h.states))
		}
		if r := h.recs[0]; r.time != 6 || r.evAt != 5 || h.inBase != 5 || r.sentAt != 5 || h.outBase != 5 || r.stateAt != 40 || h.stateBase != 40 {
			t.Fatalf("first record after the compaction %+v with bases %d, %d, %d; want time 6 at absolute offsets 5, 5, 40",
				r, h.inBase, h.outBase, h.stateBase)
		}
		if a.last != 9 || h.at(a.last).time != 10 {
			t.Fatalf("LP 0's newest record is %d at %d, want 9 at 10", a.last, h.at(a.last).time)
		}
		checkLog(t, c)
		histLate(k, a, 8) // walks the rebased log; the dead tail is trimmed
		if len(h.recs) != 2 || a.lvt != 7 || a.liveRecords() != 2 {
			t.Fatalf("after the rollback: %d records, lvt %d, %d live; want 2, 7, 2", len(h.recs), a.lvt, a.liveRecords())
		}
		histRun(a)
		checkLog(t, c)
		c.fossilCollect(TimeInfinity)
		histSettled(t, k)
		if want := histReference(t, limits, [2]Time{0, 8}); vs[0].sum != want[0] {
			t.Errorf("committed sum %d, rollback-free run %d", vs[0].sum, want[0])
		}
	})

	t.Run("H05", func(t *testing.T) {
		limits := []Time{6, 0}
		k, vs := histKernel(t, []int{0, 1}, limits...)
		src, dst := k.clusters[0], k.clusters[1]
		lp := k.lps[0]
		histRun(k.lps[1]) // the destination's own record comes first
		histRun(lp)
		// The record at 1 commits but stays in the array (no compaction):
		// the handoff must not walk into it and commit it again.
		if src.fossilCollect(2); src.hist.base != 0 || src.hist.head != 1 {
			t.Fatalf("after committing below 2: base %d, head %d; want 0, 1", src.hist.base, src.hist.head)
		}
		atomic.StoreInt64(&k.gvt, 4)
		src.migrateOut(migOrder{lp: 0, to: 1})
		if h := &src.hist; src.stats.EventsCommitted != 3 || len(h.recs) != 1 || h.head != 1 {
			t.Fatalf("source after the handoff: committed %d, %d records, head %d; want 3, only the committed one, 1",
				src.stats.EventsCommitted, len(h.recs), h.head)
		}
		dst.checkMigrate()
		checkLog(t, dst)
		if len(dst.hist.recs) != 4 || lp.liveRecords() != 3 || lp.last != 3 || dst.hist.at(lp.last).time != 6 {
			t.Fatalf("destination after adoption: %d records, %d live for LP 0, newest %d; want 4, 3, record 3 at 6",
				len(dst.hist.recs), lp.liveRecords(), lp.last)
		}
		histLate(k, lp, 5) // rolls back through the carried suffix
		checkLog(t, dst)
		if lp.lvt != 4 || lp.liveRecords() != 1 || dst.stats.Rollbacks != 1 {
			t.Fatalf("after the rollback at the destination: lvt %d, %d live, %d rollbacks; want 4, 1, 1", lp.lvt, lp.liveRecords(), dst.stats.Rollbacks)
		}
		histRun(lp)
		src.fossilCollect(TimeInfinity)
		dst.fossilCollect(TimeInfinity)
		histSettled(t, k)
		if want := histReference(t, limits, [2]Time{0, 5}); vs[0].sum != want[0] {
			t.Errorf("committed sum %d, rollback-free run without migration %d", vs[0].sum, want[0])
		}
	})

	t.Run("H06", func(t *testing.T) {
		t.Run("rollbacks", func(t *testing.T) {
			v := &trailLP{stragglerVictim: stragglerVictim{limit: 400}, reached: new(atomic.Int64)}
			s := &gatedSender{stragglerSender: stragglerSender{victim: 0, n: 390}, victimAt: v.reached, until: 50}
			k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}, GVTPeriodEvents: 16}, []Handler{v, s})
			if err != nil {
				t.Fatal(err)
			}
			stats, err := k.Run()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Rollbacks == 0 {
				t.Fatal("no rollback")
			}
			histSettled(t, k)
		})
		t.Run("migrations", func(t *testing.T) {
			var rounds int32
			k, err := New(Config{
				NumClusters: 2, ClusterOf: []int{0, 1}, GVTPeriodEvents: 16,
				Dynamic: DynamicConfig{Rebalance: rotatingRebalance(2, 2, &rounds), PeriodRounds: 1},
			}, []Handler{&pingLP{peer: 1, limit: 200, delay: 3, start: true}, &pingLP{peer: 0, limit: 200, delay: 3}})
			if err != nil {
				t.Fatal(err)
			}
			stats, err := k.Run()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Migrations == 0 {
				t.Fatal("no migration")
			}
			histSettled(t, k)
		})
	})

	t.Run("H07", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector allocates on its own")
		}
		k, _ := histKernel(t, []int{0, 0}, 0, 0)
		c, a, b := k.clusters[0], k.lps[0], k.lps[1]
		histStep(a) // the Init events at 1
		histStep(b)
		at := Time(1)
		cycle := func() {
			at++
			histLate(k, a, at)
			histLate(k, b, at)
			histStep(a)
			histStep(b)
			histLate(k, a, at) // rolls back LP 0's record, now under LP 1's
			histStep(a)
			c.fossilCollect(at)
		}
		for i := 0; i < 100; i++ {
			cycle()
		}
		checkLog(t, c)
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("execute → roll back → re-execute → commit cycle allocates %.2f times, want 0", allocs)
		}
		if a.liveRecords() != 1 || b.liveRecords() != 1 {
			t.Errorf("after the cycles: %d and %d live records, want 1 each", a.liveRecords(), b.liveRecords())
		}
		c.fossilCollect(TimeInfinity)
		histSettled(t, k)
	})
}

package timewarp

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// rotatingRebalance returns a Rebalance callback that cyclically shifts
// every LP to the next cluster at each load round — the most migration-heavy
// policy possible, so every protocol edge (stale routes, limbo parking,
// payload transit accounting) is exercised constantly.
func rotatingRebalance(numLPs, numClusters int, rounds *int32) func(*LoadSnapshot) []int {
	next := make([]int, numLPs)
	return func(s *LoadSnapshot) []int {
		atomic.AddInt32(rounds, 1)
		for lp := range next {
			next[lp] = (s.ClusterOf[lp] + 1) % numClusters
		}
		return next
	}
}

// TestMigrationPingPong: the two-LP ping-pong from the basic kernel test, but
// with both LPs forcibly rotated between the clusters at every GVT round.
// The committed total, the handler state and termination must be identical
// to the static run.
func TestMigrationPingPong(t *testing.T) {
	var rounds int32
	a := &pingLP{peer: 1, limit: 200, delay: 3, start: true}
	b := &pingLP{peer: 0, limit: 200, delay: 3}
	k, err := New(Config{
		NumClusters:     2,
		ClusterOf:       []int{0, 1},
		GVTPeriodEvents: 16,
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
	if got := stats.EventsCommitted; got != 201 {
		t.Errorf("committed = %d, want 201", got)
	}
	if a.seen+b.seen != 201 {
		t.Errorf("handler state: %d + %d != 201", a.seen, b.seen)
	}
	if stats.FinalGVT != TimeInfinity {
		t.Errorf("final GVT = %d, want infinity", stats.FinalGVT)
	}
	if stats.Migrations == 0 {
		t.Error("rotating rebalance migrated nothing")
	}
	if stats.RebalanceRounds == 0 || rounds == 0 {
		t.Errorf("no rebalance rounds ran (stats=%d cb=%d)", stats.RebalanceRounds, rounds)
	}
	if stats.RouteEpoch == 0 {
		t.Error("routing table epoch never advanced despite migrations")
	}
	checkLedgerBalanced(t, k, "run")
}

// TestMigrationUnderRollbacks rotates LPs between eight clusters while
// straggler pairs force rollbacks and send anti-messages across cuts; two
// runs must commit the same total and reach the same handler state, and
// migration-specific invariants (transit drain, epoch advance) must hold.
func TestMigrationUnderRollbacks(t *testing.T) {
	run := func() (int64, RunStats) {
		const chains = 12
		var rounds int32
		handlers := make([]Handler, 0, chains+4)
		clusterOf := make([]int, 0, chains+4)
		// Long chains keep the run alive across several GVT rounds:
		// with eight clusters sharing fewer cores a round waits for
		// every cluster goroutine to be scheduled, and migrations
		// need a completed round followed by a load round.
		for i := 0; i < chains; i++ {
			handlers = append(handlers, &chainLP{limit: 1500})
			clusterOf = append(clusterOf, i%8)
		}
		handlers = append(handlers,
			&stragglerVictim{limit: 300}, &stragglerSender{victim: LPID(chains), n: 290},
			&stragglerVictim{limit: 300}, &stragglerSender{victim: LPID(chains + 2), n: 290},
		)
		clusterOf = append(clusterOf, 0, 7, 3, 5)
		k, err := New(Config{
			NumClusters:     8,
			ClusterOf:       clusterOf,
			GVTPeriodEvents: 48,
			Net:             NetConfig{Latency: 50 * time.Microsecond},
			Dynamic: DynamicConfig{
				Rebalance:    rotatingRebalance(len(handlers), 8, &rounds),
				PeriodRounds: 1,
			},
		}, handlers)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		if stats.FinalGVT != TimeInfinity {
			t.Fatalf("run did not terminate (GVT=%d)", stats.FinalGVT)
		}
		if stats.EventsProcessed-stats.EventsRolledBack != stats.EventsCommitted {
			t.Fatalf("processed-rolledback=%d != committed=%d",
				stats.EventsProcessed-stats.EventsRolledBack, stats.EventsCommitted)
		}
		checkLedgerBalanced(t, k, "run")
		sum := handlers[chains].(*stragglerVictim).sum + handlers[chains+2].(*stragglerVictim).sum
		return sum, stats
	}
	sum1, stats1 := run()
	sum2, stats2 := run()
	if sum1 != sum2 {
		t.Errorf("straggler state differs across runs: %d vs %d", sum1, sum2)
	}
	if stats1.EventsCommitted != stats2.EventsCommitted {
		t.Errorf("committed differs across runs: %d vs %d", stats1.EventsCommitted, stats2.EventsCommitted)
	}
	if stats1.Migrations == 0 {
		t.Errorf("no migrations happened")
	}
}

// TestStaleRouteForwardAndLimbo pins down the two relocation paths
// deterministically (single-threaded, before Run): an event in the old
// home's inbox when the LP leaves must be forwarded to the new home; an
// event reaching the new home before the migration payload must park in
// limbo, be covered by the GVT floor (localMin), and be delivered once the
// payload is adopted.
func TestStaleRouteForwardAndLimbo(t *testing.T) {
	h := []Handler{&pingLP{peer: 1}, &pingLP{peer: 0}}
	k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}}, h)
	if err != nil {
		t.Fatal(err)
	}
	a, b := k.clusters[0], k.clusters[1]
	// Cluster 1 sends to LP 0 under the current route and flushes: the
	// batch lands in cluster 0's mailbox.
	b.route(Event{ID: k.nextEventID(), Sender: 1, Receiver: 0, SendTime: -1, RecvTime: 5}, true)
	b.flushAll()
	// LP 0 migrates to cluster 1 while that batch is still in flight.
	a.migrateOut(migOrder{lp: 0, to: 1})
	if got := k.RouteOf(0); got != 1 {
		t.Fatalf("route of LP 0 = %d after migrateOut, want 1", got)
	}
	if a.owned[0] || len(a.lps) != 0 {
		t.Fatal("old home still owns the migrated LP")
	}
	// Consume the migration wake bit so the adoption below stays a separate,
	// observable step (drainMail would otherwise run checkMigrate itself).
	if _, _, ctrl := b.mail.take(nil, nil); ctrl&ctrlWake == 0 {
		t.Fatal("migrateOut posted no wake bit to the destination")
	}
	// The old home drains its mailbox: it no longer owns LP 0 and the route
	// points away, so the event must be forwarded (staged and flushed
	// toward the new home), not delivered or parked.
	a.drainMail()
	a.flushAll()
	if a.stats.ForwardedMessages != 1 {
		t.Fatalf("forwarded = %d, want 1", a.stats.ForwardedMessages)
	}
	if len(a.limbo) != 0 {
		t.Fatal("old home parked the event instead of forwarding")
	}
	// The new home drains before adopting the payload: the event is for an
	// LP routed here but not yet owned → limbo, folded into the GVT floor.
	b.drainMail()
	if len(b.limbo) != 1 {
		t.Fatalf("limbo holds %d events, want 1", len(b.limbo))
	}
	if got := b.localMin(); got != 5 {
		t.Fatalf("localMin = %d with a parked event at 5", got)
	}
	// Adopting the payload must drain limbo into the LP's queues and settle
	// every in-flight count.
	b.checkMigrate()
	if !b.owned[0] || len(b.limbo) != 0 {
		t.Fatalf("payload adoption incomplete: owned=%v limbo=%d", b.owned[0], len(b.limbo))
	}
	if got := k.lps[0].nextTime(); got != 5 {
		t.Fatalf("migrated LP's next work = %d, want 5", got)
	}
	if n := k.inTransit(); n != 0 {
		t.Fatalf("in-transit count = %d after adoption, want 0", n)
	}
}

// TestMigratedHistoryCommits: an LP migrates in-process with uncommitted
// history (three bundles, two of them rolled back by a straggler and run
// again) and executes nothing after adoption. Its new home must still commit
// every event: the old home's log gives the LP's records up when it leaves,
// so only the suffix appended to the new home's log on adoption (migrateIn,
// also reached through adoptFinalPayloads at termination) can.
func TestMigratedHistoryCommits(t *testing.T) {
	for _, adopt := range []string{"checkMigrate", "adoptFinalPayloads"} {
		t.Run(adopt, func(t *testing.T) {
			// limit 0: the LPs send nothing, so LP 0's own events are all
			// there is to commit.
			k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}}, []Handler{&pingLP{peer: 1}, &pingLP{peer: 0}})
			if err != nil {
				t.Fatal(err)
			}
			a, b := k.clusters[0], k.clusters[1]
			lp := k.lps[0]
			deliver := func(at Time) {
				lp.enqueue(Event{ID: k.nextEventID(), Sender: NoLP, Receiver: 0, RecvTime: at})
				a.schedule(lp)
			}
			runAll := func() {
				for {
					if n, _ := a.executeOne(a.horizon()); n == 0 {
						return
					}
				}
			}
			deliver(1)
			deliver(2)
			deliver(3)
			runAll()
			deliver(2) // straggler: rolls back the bundles at 2 and 3
			runAll()
			if lp.liveRecords() != 3 || a.stats.EventsRolledBack != 2 {
				t.Fatalf("before migration: live records %d, rolled back %d; want 3, 2", lp.liveRecords(), a.stats.EventsRolledBack)
			}

			a.migrateOut(migOrder{lp: 0, to: 1}) // GVT is -1: nothing commits here
			if adopt == "checkMigrate" {
				b.checkMigrate()
			} else {
				b.adoptFinalPayloads()
			}
			if !b.owned[0] {
				t.Fatal("destination did not adopt LP 0")
			}
			a.fossilCollect(TimeInfinity)
			if a.stats.EventsCommitted != 0 || len(a.hist.recs) != 0 {
				t.Fatalf("old home committed %d events and holds %d records after the LP left, want 0 and 0", a.stats.EventsCommitted, len(a.hist.recs))
			}
			if n, _ := b.executeOne(b.horizon()); n != 0 {
				t.Fatalf("adopted LP executed %d events, want none", n)
			}
			b.fossilCollect(TimeInfinity)

			var s ClusterStats
			s.add(a.stats)
			s.add(b.stats)
			if s.EventsCommitted != 4 {
				t.Errorf("committed = %d, want 4", s.EventsCommitted)
			}
			if s.EventsProcessed-s.EventsRolledBack != s.EventsCommitted {
				t.Errorf("processed %d - rolled back %d != committed %d", s.EventsProcessed, s.EventsRolledBack, s.EventsCommitted)
			}
			if lp.liveRecords() != 0 || len(b.hist.recs) != 0 || len(b.hist.in) != 0 || len(b.hist.states) != 0 {
				t.Errorf("after commit: live records %d, new home holds %d records, %d input events, %d state bytes; want 0 each",
					lp.liveRecords(), len(b.hist.recs), len(b.hist.in), len(b.hist.states))
			}
		})
	}
}

// TestMigrationWithWireLatency rotates both LPs of a cross-cluster
// ping-pong every GVT round while every message spends wall-clock time on
// the modeled wire, so messages routinely arrive at clusters their receiver
// has left. The committed total must stay exact regardless.
func TestMigrationWithWireLatency(t *testing.T) {
	var rounds int32
	a := &pingLP{peer: 1, limit: 1000, delay: 3, start: true}
	b := &pingLP{peer: 0, limit: 1000, delay: 3}
	k, err := New(Config{
		NumClusters: 2, ClusterOf: []int{0, 1}, GVTPeriodEvents: 8,
		Net: NetConfig{Latency: 150 * time.Microsecond},
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
	if stats.EventsCommitted != 1001 {
		t.Errorf("committed = %d, want 1001", stats.EventsCommitted)
	}
	if a.seen+b.seen != 1001 {
		t.Errorf("handler state: %d + %d != 1001", a.seen, b.seen)
	}
	if stats.Migrations == 0 {
		t.Error("latency rotation migrated nothing")
	}
	checkLedgerBalanced(t, k, "run")
}

// TestRebalanceDeclines: a callback that always returns nil must collect
// load rounds but never migrate, and the routing table must stay at its
// initial epoch.
func TestRebalanceDeclines(t *testing.T) {
	var rounds int32
	a := &pingLP{peer: 1, limit: 300, delay: 2, start: true}
	b := &pingLP{peer: 0, limit: 300, delay: 2}
	k, err := New(Config{
		NumClusters:     2,
		ClusterOf:       []int{0, 1},
		GVTPeriodEvents: 16,
		Dynamic: DynamicConfig{
			Rebalance: func(s *LoadSnapshot) []int {
				atomic.AddInt32(&rounds, 1)
				if len(s.ClusterOf) != 2 || s.NumClusters != 2 {
					t.Errorf("snapshot shape: lps=%d clusters=%d", len(s.ClusterOf), s.NumClusters)
				}
				return nil
			},
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
	if stats.Migrations != 0 || stats.RouteEpoch != 0 {
		t.Errorf("declined rebalance still moved LPs: migrations=%d epoch=%d", stats.Migrations, stats.RouteEpoch)
	}
	if rounds == 0 {
		t.Error("rebalance callback never ran")
	}
}

// TestLoadSnapshotCounters: the snapshots must attribute committed events
// and the send matrix to the right LPs, and together account for every one.
// A one-way chain 0→1→2 on two clusters gives a known shape: LP 0 executes
// times 1..120, sends to itself at 1..120 (the first from Init) and to LP 1
// at 2..120; LP 1 executes 2..120 and sends to LP 2 at 3..120 across the
// cluster boundary; LP 2 executes 3..120 and sends nothing. The window after
// the last load round is never snapshotted during the run, so the test
// captures it once Run has returned; the totals are then exact however many
// rounds fit in the run.
func TestLoadSnapshotCounters(t *testing.T) {
	var (
		committed [3]uint64
		edges     = map[LPID]map[LPID]uint64{}
		rounds    int
	)
	record := func(s *LoadSnapshot) []int {
		rounds++
		for lp := 0; lp < 3; lp++ {
			committed[lp] += s.Committed[lp]
			for j := s.EdgeOff[lp]; j < s.EdgeOff[lp+1]; j++ {
				m := edges[LPID(lp)]
				if m == nil {
					m = map[LPID]uint64{}
					edges[LPID(lp)] = m
				}
				m[s.EdgeDst[j]] += s.EdgeCnt[j]
			}
		}
		return nil
	}
	const limit = 120
	h := []Handler{
		&relayLP{next: 1, limit: limit, start: true},
		&relayLP{next: 2, limit: limit},
		&relayLP{next: -1, limit: limit},
	}
	k, err := New(Config{
		NumClusters:     2,
		ClusterOf:       []int{0, 0, 1},
		GVTPeriodEvents: 16,
		Dynamic: DynamicConfig{
			Rebalance:    record,
			PeriodRounds: 1,
		},
	}, h)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Every load round the kernel opened has finished before GVT reached
	// infinity, so the clusters' counters hold exactly the final window.
	for _, c := range k.clusters {
		c.captureLoad()
	}
	record(k.buildSnapshot())
	if stats.Rollbacks != 0 {
		t.Fatalf("a chain fed in time order rolled back %d times", stats.Rollbacks)
	}
	if rounds != stats.RebalanceRounds+1 {
		t.Errorf("%d snapshots recorded, want %d load rounds + the final window", rounds, stats.RebalanceRounds)
	}
	if want := [3]uint64{limit, limit - 1, limit - 2}; committed != want {
		t.Errorf("committed = %v, want %v", committed, want)
	}
	want := map[LPID]map[LPID]uint64{
		0: {0: limit, 1: limit - 1},
		1: {2: limit - 2},
	}
	if !reflect.DeepEqual(edges, want) {
		t.Errorf("send matrix = %v, want %v", edges, want)
	}
}

// TestBuildSnapshotMergesDoubleCapture: an LP that migrates between the two
// captures of one load round appears in both clusters' buffers with
// disjoint activity windows; the merged snapshot must sum its counters and
// concatenate its edge rows without corrupting its neighbors' rows.
func TestBuildSnapshotMergesDoubleCapture(t *testing.T) {
	h := []Handler{&pingLP{peer: 1}, &pingLP{peer: 0}, &pingLP{peer: 0}}
	k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 0, 1}}, h)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster 0's capture saw LP 0 (about to migrate) and LP 1; cluster 1's
	// capture saw LP 2 and then LP 0 again after adopting it.
	k.loadBufs[0] = loadSnapBuf{
		lps:       []LPID{0, 1},
		committed: []uint64{10, 3},
		edgeOff:   []int32{2, 3},
		edgeDst:   []LPID{1, 2, 0},
		edgeCnt:   []uint64{7, 4, 9},
	}
	k.loadBufs[1] = loadSnapBuf{
		lps:       []LPID{2, 0},
		committed: []uint64{6, 20},
		edgeOff:   []int32{1, 2},
		edgeDst:   []LPID{0, 2},
		edgeCnt:   []uint64{5, 11},
	}
	s := k.buildSnapshot()
	if got := s.Committed[0]; got != 30 {
		t.Errorf("LP 0 committed = %d, want 10+20", got)
	}
	edges := func(lp int) map[LPID]uint64 {
		m := map[LPID]uint64{}
		for j := s.EdgeOff[lp]; j < s.EdgeOff[lp+1]; j++ {
			m[s.EdgeDst[j]] += s.EdgeCnt[j]
		}
		return m
	}
	if got := edges(0); got[1] != 7 || got[2] != 4+11 {
		t.Errorf("LP 0 edges = %v, want 1:7 2:15", got)
	}
	if got := edges(1); got[0] != 9 || len(got) != 1 {
		t.Errorf("LP 1 row corrupted by its neighbor's second window: %v", got)
	}
	if got := edges(2); got[0] != 5 || len(got) != 1 {
		t.Errorf("LP 2 edges = %v, want 0:5", got)
	}
	if int(s.EdgeOff[3]) != len(s.EdgeDst) || len(s.EdgeDst) != 5 {
		t.Errorf("CSR shape: off=%v dst=%v", s.EdgeOff, s.EdgeDst)
	}
}

// TestRebalanceBadAssignmentFailsRun: an assignment of the wrong length, or
// one naming a cluster out of range, is a fault of the Rebalance callback.
// Nothing migrates; Run returns an error naming the fault.
func TestRebalanceBadAssignmentFailsRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		next []int
		want string
	}{
		{"short", []int{0}, "Rebalance returned an assignment of 1 LPs, want 2"},
		{"out-of-range", []int{0, 2}, "Rebalance assigned LP 1 to cluster 2, want [0,2)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, err := New(Config{
				NumClusters:     2,
				ClusterOf:       []int{0, 1},
				GVTPeriodEvents: 16,
				Dynamic: DynamicConfig{
					Rebalance:    func(*LoadSnapshot) []int { return tc.next },
					PeriodRounds: 1,
				},
			}, []Handler{
				&pingLP{peer: 1, limit: 400, delay: 3, start: true},
				&pingLP{peer: 0, limit: 400, delay: 3},
			})
			if err != nil {
				t.Fatal(err)
			}
			stats, err := k.Run()
			if err == nil || err.Error() != "timewarp: "+tc.want {
				t.Fatalf("Run: err = %v, want %q", err, tc.want)
			}
			if stats.Migrations != 0 {
				t.Errorf("%d LPs migrated under a bad assignment", stats.Migrations)
			}
		})
	}
}

// relayLP forwards each event one step down a fixed chain.
type relayLP struct {
	next  LPID
	limit Time
	start bool
	seen  int32
}

func (r *relayLP) Init(ctx *Context) {
	if r.start {
		ctx.Send(ctx.Self(), 1, 0, 0)
	}
}

func (r *relayLP) Execute(ctx *Context, now Time, events []Event) {
	for range events {
		r.seen++
		if now < r.limit {
			if r.next >= 0 {
				ctx.Send(r.next, now+1, 0, 0)
			}
			if ctx.Self() == 0 {
				ctx.Send(ctx.Self(), now+1, 0, 0)
			}
		}
	}
}

func (r *relayLP) EncodeState(buf []byte) []byte { return appendI32(buf, r.seen) }
func (r *relayLP) DecodeState(data []byte) error { return decodeI32(data, &r.seen) }

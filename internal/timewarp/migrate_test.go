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
	for color := 0; color < 2; color++ {
		if n := atomic.LoadInt64(&k.transit[color].n); n != 0 {
			t.Errorf("transit[%d] = %d after termination, want 0", color, n)
		}
	}
}

// TestMigrationUnderRollbacks rotates LPs between eight clusters while
// straggler pairs force rollbacks and lazy cancellation keeps unsent
// anti-messages alive across cuts; two runs must commit the same total and
// reach the same handler state, and migration-specific invariants (transit
// drain, epoch advance) must hold.
func TestMigrationUnderRollbacks(t *testing.T) {
	for _, lazy := range []bool{false, true} {
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
				NumClusters:      8,
				ClusterOf:        clusterOf,
				GVTPeriodEvents:  48,
				LazyCancellation: lazy,
				Net:              NetConfig{Latency: 50 * time.Microsecond},
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
				t.Fatalf("lazy=%v: run did not terminate (GVT=%d)", lazy, stats.FinalGVT)
			}
			if stats.EventsProcessed-stats.EventsRolledBack != stats.EventsCommitted {
				t.Fatalf("lazy=%v: processed-rolledback=%d != committed=%d",
					lazy, stats.EventsProcessed-stats.EventsRolledBack, stats.EventsCommitted)
			}
			for color := 0; color < 2; color++ {
				if n := atomic.LoadInt64(&k.transit[color].n); n != 0 {
					t.Errorf("lazy=%v: transit[%d] = %d after termination, want 0", lazy, color, n)
				}
			}
			sum := handlers[chains].(*stragglerVictim).sum + handlers[chains+2].(*stragglerVictim).sum
			return sum, stats
		}
		sum1, stats1 := run()
		sum2, stats2 := run()
		if sum1 != sum2 {
			t.Errorf("lazy=%v: straggler state differs across runs: %d vs %d", lazy, sum1, sum2)
		}
		if stats1.EventsCommitted != stats2.EventsCommitted {
			t.Errorf("lazy=%v: committed differs across runs: %d vs %d", lazy, stats1.EventsCommitted, stats2.EventsCommitted)
		}
		if stats1.Migrations == 0 {
			t.Errorf("lazy=%v: no migrations happened", lazy)
		}
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
// every event: the old home's history list drops the LP without reading it,
// so only the re-registration on adoption (migrateIn, also reached through
// adoptFinalPayloads at termination) can.
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
					if n, _ := a.executeOne(); n == 0 {
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
			if len(lp.processed) != 3 || a.stats.EventsRolledBack != 2 {
				t.Fatalf("before migration: processed bundles %d, rolled back %d; want 3, 2", len(lp.processed), a.stats.EventsRolledBack)
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
			if a.stats.EventsCommitted != 0 || len(a.hist) != 0 {
				t.Fatalf("old home committed %d events and lists %d LPs after the LP left, want 0 and 0", a.stats.EventsCommitted, len(a.hist))
			}
			if n, _ := b.executeOne(); n != 0 {
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
			if len(lp.processed) != 0 || len(b.hist) != 0 || lp.inHist {
				t.Errorf("after commit: processed %d, new home lists %d LPs, inHist %v; want 0, 0, false", len(lp.processed), len(b.hist), lp.inHist)
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
	for color := 0; color < 2; color++ {
		if n := atomic.LoadInt64(&k.transit[color].n); n != 0 {
			t.Errorf("transit[%d] = %d after termination, want 0", color, n)
		}
	}
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
				if s.NumLPs() != 2 || s.NumClusters != 2 {
					t.Errorf("snapshot shape: lps=%d clusters=%d", s.NumLPs(), s.NumClusters)
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
		committed   [3]uint64
		edges       = map[LPID]map[LPID]uint64{}
		remoteFrom1 uint64
		rounds      int
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
		remoteFrom1 += s.RemoteSends[1]
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
	if remoteFrom1 != limit-2 {
		t.Errorf("LP 1 remote sends = %d, want %d", remoteFrom1, limit-2)
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
		rollbacks: []uint64{2, 0},
		remote:    []uint64{5, 1},
		edgeOff:   []int32{2, 3},
		edgeDst:   []LPID{1, 2, 0},
		edgeCnt:   []uint64{7, 4, 9},
	}
	k.loadBufs[1] = loadSnapBuf{
		lps:       []LPID{2, 0},
		committed: []uint64{6, 20},
		rollbacks: []uint64{1, 3},
		remote:    []uint64{2, 8},
		edgeOff:   []int32{1, 2},
		edgeDst:   []LPID{0, 2},
		edgeCnt:   []uint64{5, 11},
	}
	s := k.buildSnapshot()
	if got := s.Committed[0]; got != 30 {
		t.Errorf("LP 0 committed = %d, want 10+20", got)
	}
	if s.Rollbacks[0] != 5 || s.RemoteSends[0] != 13 {
		t.Errorf("LP 0 scalars not summed: rollbacks=%d remote=%d", s.Rollbacks[0], s.RemoteSends[0])
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

// recTransport is one node of a two-node mesh without sockets or
// goroutines: it hosts the clusters marked in here and records the control
// frames the kernel sends toward the other node.
type recTransport struct {
	here   []bool
	frames [][]byte
}

func (t *recTransport) bind(*Kernel) error               { return nil }
func (t *recTransport) start() error                     { return nil }
func (t *recTransport) finishRun() error                 { return nil }
func (t *recTransport) nodes() int                       { return 2 }
func (t *recTransport) localCluster(id int) bool         { return t.here[id] }
func (t *recTransport) push(int, []Event, batchHdr) bool { return true }
func (t *recTransport) ctrl(_ int, frame []byte)         { t.frames = append(t.frames, frame) }
func (t *recTransport) publish(*cluster, Time)           {}
func (t *recTransport) whiteDrained(int64) bool          { return true }
func (t *recTransport) initQuiet() bool                  { return true }

// TestWireMigrationWaitsForCommit: an LP ordered to another process is held
// — it executes nothing and nothing is sent — until its processed history
// is gone, and then travels without a rollback of its own: no anti-message
// retracts sends that other LPs may already have committed, and the other
// node adopts it at its committed horizon. The history goes when GVT
// commits it, or when a straggler rolls it back while the LP's own pending
// events keep GVT from advancing; the main loop's retry sees both.
func TestWireMigrationWaitsForCommit(t *testing.T) {
	node := func(host int) (*Kernel, *recTransport) {
		tr := &recTransport{here: []bool{host == 0, host == 1}}
		k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}, Net: NetConfig{Transport: tr}},
			[]Handler{&pingLP{peer: 1, limit: 100, delay: 10}, &pingLP{peer: 0, limit: 100, delay: 10}})
		if err != nil {
			t.Fatal(err)
		}
		return k, tr
	}
	for _, tc := range []struct {
		name               string
		release            func(k *Kernel, deliver func(Time))
		rollbacks          uint64
		next, lvt, horizon Time
	}{
		{"gvt-commits", func(k *Kernel, _ func(Time)) { atomic.StoreInt64(&k.gvt, 3) }, 0, 5, 2, 2},
		{"straggler-empties", func(_ *Kernel, deliver func(Time)) { deliver(1) }, 1, 1, -1, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, srcTr := node(0)
			lp, c := src.lps[0], src.clusters[0]
			deliver := func(at Time) {
				lp.enqueue(Event{ID: src.nextEventID(), Sender: NoLP, Receiver: 0, RecvTime: at})
				c.schedule(lp)
			}
			deliver(1)
			deliver(2)
			for lp.executeNext() > 0 { // each bundle sends to LP 1, on the other node
			}
			c.flushAll()
			sentAnti := c.stats.AntiMessages

			atomic.StoreInt64(&src.gvt, 1)
			c.migrateOut(migOrder{lp: 0, to: 1})
			c.retryHeld()
			if !lp.held || !c.owned[0] || len(srcTr.frames) != 0 || len(lp.processed) != 2 {
				t.Fatalf("order with uncommitted history: held=%v owned=%v frames=%d processed=%d, want held, owned, 0, 2",
					lp.held, c.owned[0], len(srcTr.frames), len(lp.processed))
			}
			deliver(5)
			if n, _ := c.executeOne(); n != 0 {
				t.Fatalf("held LP executed %d events", n)
			}

			tc.release(src, deliver)
			sentAnti = c.stats.AntiMessages - sentAnti
			c.retryHeld()
			if lp.held || c.owned[0] || c.stats.Rollbacks != tc.rollbacks || c.stats.AntiMessages != sentAnti || len(srcTr.frames) != 2 {
				t.Fatalf("released: held=%v owned=%v rollbacks=%d anti=%d (%d before packing) frames=%d, want %d rollbacks, no anti-message from packing, a route and a payload frame",
					lp.held, c.owned[0], c.stats.Rollbacks, c.stats.AntiMessages, sentAnti, len(srcTr.frames), tc.rollbacks)
			}

			dst, _ := node(1)
			for _, f := range srcTr.frames {
				typ, body := decodeOneFrame(t, f)
				m, err := dst.decodeCtrl(typ, body)
				if err != nil {
					t.Fatalf("frame type %d: %v", typ, err)
				}
				dst.applyCtrl(m)
			}
			dst.clusters[1].checkMigrate()
			got := dst.lps[0]
			if dst.RouteOf(0) != 1 || !dst.clusters[1].owned[0] || got.nextTime() != tc.next || got.lvt != tc.lvt || got.committedThrough != tc.horizon {
				t.Errorf("adopted LP: route=%d owned=%v next=%d lvt=%d committedThrough=%d, want 1, true, %d, %d, %d",
					dst.RouteOf(0), dst.clusters[1].owned[0], got.nextTime(), got.lvt, got.committedThrough, tc.next, tc.lvt, tc.horizon)
			}
		})
	}
}

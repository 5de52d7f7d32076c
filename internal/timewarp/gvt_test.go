package timewarp

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestGVTRoundsProgressWithoutBarrier drives a run with a small GVT period
// so many asynchronous rounds fire, and checks the protocol's external
// contract: rounds complete, GVT reaches infinity, and the committed total
// is exact.
func TestGVTRoundsProgressWithoutBarrier(t *testing.T) {
	a := &pingLP{peer: 1, limit: 400, delay: 3, start: true}
	b := &pingLP{peer: 0, limit: 400, delay: 3}
	k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}, GVTPeriodEvents: 16}, []Handler{a, b})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.GVTRounds < 2 {
		t.Errorf("GVT rounds = %d, want several with a 16-event period", stats.GVTRounds)
	}
	if stats.FinalGVT != TimeInfinity {
		t.Errorf("final GVT = %d, want infinity", stats.FinalGVT)
	}
	if stats.EventsCommitted != 401 {
		t.Errorf("committed = %d, want 401", stats.EventsCommitted)
	}
}

// TestTransitCountsDrainToZero: after a run terminates, the transit ledger
// must balance for both colors — any imbalance means a message was counted
// on one color and received on another (or a delivery path missed its
// count), which would wedge or corrupt a later cut. A ping-pong across the
// clusters keeps traffic flowing through many GVT rounds, so both colors
// carry some.
func TestTransitCountsDrainToZero(t *testing.T) {
	v := &stragglerVictim{limit: 300}
	s := &stragglerSender{victim: 0, n: 290}
	k, err := New(Config{
		NumClusters: 2, ClusterOf: []int{0, 1, 0, 1},
		GVTPeriodEvents: 32,
		Net:             NetConfig{Latency: 50 * time.Microsecond},
	}, []Handler{v, s, &pingLP{peer: 3, limit: 200, delay: 3, start: true}, &pingLP{peer: 2, limit: 200, delay: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Both colors must have carried traffic, or a balanced ledger would
	// show nothing.
	if sent := checkLedgerBalanced(t, k, "run"); sent[0] == 0 || sent[1] == 0 {
		t.Errorf("ledger counted %v sent per color, want both non-zero", sent)
	}
}

// TestGVTStressEightClusters is the configuration CI runs under
// -race -count=3: eight clusters, modeled wire latency (so white messages
// straddle cuts), straggler pairs (so anti-messages cross every cut), and
// a small GVT period (so rounds overlap execution constantly). It asserts
// termination, the commit invariant, and run-to-run determinism of the
// rolled-back state.
func TestGVTStressEightClusters(t *testing.T) {
	run := func() (int64, RunStats) {
		const chains = 16
		handlers := make([]Handler, 0, chains+4)
		clusterOf := make([]int, 0, chains+4)
		for i := 0; i < chains; i++ {
			handlers = append(handlers, &chainLP{limit: 250})
			clusterOf = append(clusterOf, i%8)
		}
		// Two straggler pairs spanning cluster boundaries keep rollbacks and
		// anti-messages flowing through every GVT cut.
		handlers = append(handlers,
			&stragglerVictim{limit: 350}, &stragglerSender{victim: LPID(chains), n: 340},
			&stragglerVictim{limit: 350}, &stragglerSender{victim: LPID(chains + 2), n: 340},
		)
		clusterOf = append(clusterOf, 0, 7, 3, 5)
		k, err := New(Config{
			NumClusters:     8,
			ClusterOf:       clusterOf,
			GVTPeriodEvents: 64,
			Net:             NetConfig{Latency: 100 * time.Microsecond},
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
}

// TestIdleTerminationIsPrompt: a run whose work ends quickly must not hang
// waiting for GVT rounds — idle clusters request a round and the
// asynchronous protocol concludes GVT = infinity well inside a second.
func TestIdleTerminationIsPrompt(t *testing.T) {
	a := &pingLP{peer: 1, limit: 5, delay: 2, start: true}
	b := &pingLP{peer: 0, limit: 5, delay: 2}
	k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}}, []Handler{a, b})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalGVT != TimeInfinity {
		t.Errorf("final GVT = %d, want infinity", stats.FinalGVT)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("termination took %v, want well under a second", elapsed)
	}
}

// horizonLP drives one stragglerVictim LP by hand on a one-cluster kernel
// (no goroutines): deliver queues an event for it at time at (Kind 1, so
// the handler sends nothing), and execute runs every bundle that is due.
func horizonLP(t *testing.T) (k *Kernel, lp *lpRuntime, v *stragglerVictim, deliver func(at Time, anti bool) Event, execute func()) {
	t.Helper()
	v = &stragglerVictim{}
	k, err := New(Config{NumClusters: 1, ClusterOf: []int{0}}, []Handler{v})
	if err != nil {
		t.Fatal(err)
	}
	lp = k.lps[0]
	deliver = func(at Time, anti bool) Event {
		ev := Event{ID: k.nextEventID(), Sender: NoLP, Receiver: 0, RecvTime: at, Kind: 1, Value: 1, Anti: anti}
		if anti {
			lp.annihilate(ev)
		} else {
			lp.enqueue(ev)
		}
		return ev
	}
	execute = func() {
		for lp.executeNext() > 0 {
		}
	}
	return k, lp, v, deliver, execute
}

// TestHorizonTimeZeroRollback: before anything is committed, a rollback to
// a time-0 bundle is legal (a straggler at time 0, such as an init-time
// event from another process that lands after the LP ran), and it must not
// read the unset horizon as "committed through 0".
func TestHorizonTimeZeroRollback(t *testing.T) {
	_, lp, v, deliver, execute := horizonLP(t)
	c := lp.cluster
	deliver(0, false)
	execute()
	if v.sum != 0 || lp.lvt != 0 || lp.liveRecords() != 1 {
		t.Fatalf("after the time-0 bundle: sum=%d lvt=%d live records=%d", v.sum, lp.lvt, lp.liveRecords())
	}
	if c.fossilCollect(0); c.stats.EventsCommitted != 0 {
		t.Fatalf("fossilCollect(0) committed %d events of the time-0 bundle", c.stats.EventsCommitted)
	}
	lp.rollback(0)
	if lp.liveRecords() != 0 || lp.nextTime() != 0 || lp.lvt != -1 {
		t.Errorf("after rollback to 0: live records=%d next=%d lvt=%d, want 0, 0, -1",
			lp.liveRecords(), lp.nextTime(), lp.lvt)
	}
}

// TestHorizonArrivalAfterFullRollback: once a rollback has undone every
// bundle the LP still holds, lvt stands at the cluster's collected GVT
// minus one, so a message below that GVT fails at its arrival instead of
// being queued and executed below GVT.
func TestHorizonArrivalAfterFullRollback(t *testing.T) {
	for _, anti := range []bool{false, true} {
		t.Run(fmt.Sprintf("anti=%v", anti), func(t *testing.T) {
			k, lp, _, deliver, execute := horizonLP(t)
			c := lp.cluster
			deliver(1, false)
			deliver(2, false)
			execute()
			c.fossilCollect(2) // commits the bundle at 1
			deliver(2, false)  // straggler: rolls back the only bundle left
			if lp.liveRecords() != 0 || c.fossilAt != 2 || lp.lvt != 1 {
				t.Errorf("after the full rollback: live records=%d fossilAt=%d lvt=%d, want 0, 2, 1",
					lp.liveRecords(), c.fossilAt, lp.lvt)
			}
			// The message names the arrival: its ID is the next one
			// horizonLP's deliver mints.
			want := fmt.Sprintf("LP 0 received a message at 1, below the GVT 2 its cluster 0 collected at (lvt 1, GVT view -1): event %d from LP %d, anti=%v, route epoch 0",
				atomic.LoadUint64(&k.eventID)+1, NoLP, anti)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, want) {
					t.Errorf("arrival at the horizon: recovered %q, want %q", msg, want)
				}
			}()
			deliver(1, anti)
			t.Errorf("arrival at the horizon was accepted; pending=%d", len(lp.pending))
		})
	}
}

// TestHorizonArrivalBelowCollectedGVT: fossil collection does not touch the
// LPs, so after it commits an LP's newest bundle the LP's lvt lags the
// cluster's collected GVT. A forged arrival between the two must still fail
// at its arrival, and one at the collected GVT itself, which GVT allows,
// must not.
func TestHorizonArrivalBelowCollectedGVT(t *testing.T) {
	for _, anti := range []bool{false, true} {
		t.Run(fmt.Sprintf("anti=%v", anti), func(t *testing.T) {
			k, lp, _, deliver, execute := horizonLP(t)
			c := lp.cluster
			deliver(1, false)
			execute()
			c.fossilCollect(5) // commits the bundle at 1; lvt stays 1
			if lp.liveRecords() != 0 || c.fossilAt != 5 || lp.lvt != 1 || c.stats.EventsCommitted != 1 {
				t.Fatalf("after the collection: live records=%d fossilAt=%d lvt=%d committed=%d, want 0, 5, 1, 1",
					lp.liveRecords(), c.fossilAt, lp.lvt, c.stats.EventsCommitted)
			}
			deliver(5, anti) // at the collected GVT: legal
			want := fmt.Sprintf("LP 0 received a message at 3, below the GVT 5 its cluster 0 collected at (lvt 1, GVT view -1): event %d from LP %d, anti=%v, route epoch 0",
				atomic.LoadUint64(&k.eventID)+1, NoLP, anti)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, want) {
					t.Errorf("arrival below the collected GVT: recovered %q, want %q", msg, want)
				}
			}()
			deliver(3, anti)
			t.Errorf("arrival below the collected GVT was accepted; pending=%d", len(lp.pending))
		})
	}
}

// checkLedgerBalanced fails the test unless, for each color, everything the
// transit ledger counted sent (events and migration payloads) was also
// counted received: after termination nothing may be left in transit. It
// returns the per-color sent totals.
func checkLedgerBalanced(t *testing.T, k *Kernel, what string) [2]int64 {
	t.Helper()
	var sent, recv [2]int64
	for _, c := range k.clusters {
		for color := range sent {
			sent[color] += atomic.LoadInt64(&c.sentCum[color].n)
			recv[color] += atomic.LoadInt64(&c.recvCum[color].n)
		}
	}
	for color := range sent {
		if sent[color] != recv[color] {
			t.Errorf("%s: color %d counted %d sent but %d received after termination", what, color, sent[color], recv[color])
		}
	}
	return sent
}

// TestGVTStuckCutDumps: a white count that leaked into a cut ack can never be
// matched by a receipt, so wave 1 would wait forever. Once the cut has not
// moved for stuckCutWait the coordinator must panic with the ledger, naming
// the leaking cluster's row, instead of hanging. The wait is backdated; the
// test never sleeps.
func TestGVTStuckCutDumps(t *testing.T) {
	k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}},
		[]Handler{&pingLP{peer: 1}, &pingLP{peer: 0}})
	if err != nil {
		t.Fatal(err)
	}
	// Round 1 is in wave 1 with both acks in; its white color is 0, and
	// cluster 1's ack pinned one white event nobody will ever receive.
	k.round = 1
	k.phase = phaseCut
	k.cutAcks = 2
	k.cutSent[1][0] = 1
	k.cutWatch = cutWatch{acks: 2, recv: 0, since: time.Now().Add(-stuckCutWait - time.Second).UnixNano()}

	msg := func() (msg string) {
		defer func() { msg, _ = recover().(string) }()
		k.coordinate()
		return ""
	}()
	if msg == "" {
		t.Fatal("coordinate returned from a cut stuck past stuckCutWait")
	}
	for _, want := range []string{
		"GVT stuck in the cut of round 1",
		"cluster 1 ledger: cutSent=[1 0] recvCum=[0 0] (local)",
		"cluster 1 history: head=0 len=0 dead=0 fossilAt=-1",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic %q does not contain %q", msg, want)
		}
	}
}

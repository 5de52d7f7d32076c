package timewarp

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// pingLP bounces a counter event back and forth with a peer until the
// counter reaches a limit. State is the number of events seen.
type pingLP struct {
	peer  LPID
	limit int32
	seen  int32
	delay Time
	start bool
}

func (p *pingLP) Init(ctx *Context) {
	if p.start {
		ctx.Send(ctx.Self(), 1, 0, 0)
	}
}

func (p *pingLP) Execute(ctx *Context, now Time, events []Event) {
	for _, ev := range events {
		p.seen++
		if ev.Value < p.limit {
			ctx.Send(p.peer, now+p.delay, 0, ev.Value+1)
		}
	}
}

func (p *pingLP) EncodeState(buf []byte) []byte { return appendI32(buf, p.seen) }
func (p *pingLP) DecodeState(data []byte) error { return decodeI32(data, &p.seen) }

// decodeI32 and decodeI64 decode the one-integer states of the test
// handlers, rejecting any other length.
func decodeI32(data []byte, v *int32) error {
	if len(data) != 4 {
		return fmt.Errorf("state of %d bytes, want 4", len(data))
	}
	*v = int32(binary.LittleEndian.Uint32(data))
	return nil
}

func decodeI64(data []byte, v *int64) error {
	if len(data) != 8 {
		return fmt.Errorf("state of %d bytes, want 8", len(data))
	}
	*v = int64(binary.LittleEndian.Uint64(data))
	return nil
}

// panicLP is a pingLP that panics when it executes the event whose counter
// value is at.
type panicLP struct {
	pingLP
	at int32
}

func (p *panicLP) Execute(ctx *Context, now Time, events []Event) {
	for _, ev := range events {
		if ev.Value == p.at {
			panic(fmt.Sprintf("panicLP: event %d", p.at))
		}
	}
	p.pingLP.Execute(ctx, now, events)
}

// TestClusterPanicFailsRun: a panic on a cluster goroutine, here a
// handler's, ends the run on every cluster and comes back from Run as an
// error that names the cluster and carries the panic text. The test binary
// keeps running.
func TestClusterPanicFailsRun(t *testing.T) {
	k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}}, []Handler{
		&pingLP{peer: 1, limit: 200, delay: 3, start: true},
		&panicLP{pingLP: pingLP{peer: 0, limit: 200, delay: 3}, at: 51},
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "timewarp: cluster 1: panicLP: event 51") {
		t.Fatalf("Run: err = %v, want cluster 1's panic", err)
	}
	if stats.EventsCommitted > 51 {
		t.Errorf("committed %d events, past the panic at event 51", stats.EventsCommitted)
	}
}

func TestPingPongTwoClusters(t *testing.T) {
	a := &pingLP{peer: 1, limit: 200, delay: 3, start: true}
	b := &pingLP{peer: 0, limit: 200, delay: 3}
	k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}}, []Handler{a, b})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 201 events total: values 0..200 delivered alternately.
	if got := stats.EventsCommitted; got != 201 {
		t.Errorf("committed = %d, want 201", got)
	}
	if a.seen+b.seen != 201 {
		t.Errorf("handler state: %d + %d != 201", a.seen, b.seen)
	}
	if stats.FinalGVT != TimeInfinity {
		t.Errorf("final GVT = %d, want infinity", stats.FinalGVT)
	}
	if stats.RemoteMessages == 0 {
		t.Error("no remote messages counted across 2 clusters")
	}
}

func TestSingleClusterNoRollbacks(t *testing.T) {
	a := &pingLP{peer: 1, limit: 100, delay: 2, start: true}
	b := &pingLP{peer: 0, limit: 100, delay: 2}
	k, err := New(Config{NumClusters: 1, ClusterOf: []int{0, 0}}, []Handler{a, b})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rollbacks != 0 {
		t.Errorf("sequential cluster rolled back %d times", stats.Rollbacks)
	}
	if stats.RemoteMessages != 0 {
		t.Errorf("remote messages on one cluster: %d", stats.RemoteMessages)
	}
	if stats.LocalMessages == 0 {
		t.Error("no local messages counted")
	}
}

// fanLP broadcasts to many receivers; used to exercise inbox backpressure.
type fanLP struct {
	targets []LPID
	rounds  int32
	seen    int32
}

func (f *fanLP) Init(ctx *Context) {
	if len(f.targets) > 0 {
		ctx.Send(ctx.Self(), 1, 0, 0)
	}
}

func (f *fanLP) Execute(ctx *Context, now Time, events []Event) {
	for _, ev := range events {
		f.seen++
		if ev.Kind == 0 && ev.Value < f.rounds { // driver tick
			for _, to := range f.targets {
				ctx.Send(to, now+1, 1, ev.Value)
			}
			ctx.Send(ctx.Self(), now+2, 0, ev.Value+1)
		}
	}
}

func (f *fanLP) EncodeState(buf []byte) []byte { return appendI32(buf, f.seen) }
func (f *fanLP) DecodeState(data []byte) error { return decodeI32(data, &f.seen) }

func TestFanOutAcrossClusters(t *testing.T) {
	const nLeaf = 40
	const rounds = 30
	handlers := make([]Handler, nLeaf+1)
	clusterOf := make([]int, nLeaf+1)
	targets := make([]LPID, nLeaf)
	for i := 0; i < nLeaf; i++ {
		targets[i] = LPID(i + 1)
	}
	handlers[0] = &fanLP{targets: targets, rounds: rounds}
	clusterOf[0] = 0
	for i := 1; i <= nLeaf; i++ {
		handlers[i] = &fanLP{rounds: 0}
		clusterOf[i] = i % 4
	}
	k, err := New(Config{NumClusters: 4, ClusterOf: clusterOf, Net: NetConfig{InboxSize: 8}}, handlers)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(rounds + 1 + nLeaf*rounds) // driver ticks + leaf deliveries
	if stats.EventsCommitted != want {
		t.Errorf("committed = %d, want %d", stats.EventsCommitted, want)
	}
}

// stragglerLP forces rollbacks: a slow sender emits events with small
// timestamps after a fast self-driving receiver has raced ahead.
type stragglerVictim struct {
	sum   int64
	limit Time
}

func (v *stragglerVictim) Init(ctx *Context) {
	ctx.Send(ctx.Self(), 1, 0, 0)
}

func (v *stragglerVictim) Execute(ctx *Context, now Time, events []Event) {
	for _, ev := range events {
		v.sum += int64(ev.Value) * now
		if ev.Kind == 0 && now < v.limit {
			ctx.Send(ctx.Self(), now+1, 0, 1)
		}
	}
}

func (v *stragglerVictim) EncodeState(buf []byte) []byte { return appendI64(buf, v.sum) }
func (v *stragglerVictim) DecodeState(data []byte) error { return decodeI64(data, &v.sum) }

type stragglerSender struct {
	victim LPID
	n      Time
}

func (s *stragglerSender) Init(ctx *Context) {
	ctx.Send(ctx.Self(), 10, 0, 0)
}

func (s *stragglerSender) Execute(ctx *Context, now Time, events []Event) {
	for _, ev := range events {
		if ev.Kind != 0 {
			continue
		}
		// Send into the victim's near past relative to its racing LVT.
		ctx.Send(s.victim, now+1, 1, 100)
		if now+10 <= s.n {
			ctx.Send(ctx.Self(), now+10, 0, 0)
		}
	}
}

// stragglerSender's state is empty: it derives everything from its events.
func (s *stragglerSender) EncodeState(buf []byte) []byte { return buf }
func (s *stragglerSender) DecodeState(data []byte) error {
	if len(data) != 0 {
		return fmt.Errorf("state of %d bytes, want 0", len(data))
	}
	return nil
}

func TestRollbacksProduceDeterministicState(t *testing.T) {
	run := func() (int64, RunStats) {
		v := &stragglerVictim{limit: 400}
		s := &stragglerSender{victim: 0, n: 390}
		k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}, GVTPeriodEvents: 64}, []Handler{v, s})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := k.Run()
		if err != nil {
			t.Fatal(err)
		}
		return v.sum, stats
	}
	sum1, stats1 := run()
	sum2, _ := run()
	if sum1 != sum2 {
		t.Errorf("final state differs across runs: %d vs %d", sum1, sum2)
	}
	if stats1.EventsProcessed < stats1.EventsCommitted {
		t.Errorf("processed %d < committed %d", stats1.EventsProcessed, stats1.EventsCommitted)
	}
	if stats1.EventsProcessed-stats1.EventsRolledBack != stats1.EventsCommitted {
		t.Errorf("processed-rolledback=%d != committed=%d",
			stats1.EventsProcessed-stats1.EventsRolledBack, stats1.EventsCommitted)
	}
}

// trailLP is a stragglerVictim whose encoded state changes length from
// bundle to bundle: besides the running sum it keeps the sums after its last
// now%5 bundles. The encoding counts the trail, so DecodeState rejects a
// slice of the states log cut at the wrong offsets. reached, when set,
// publishes the latest time it executed.
type trailLP struct {
	stragglerVictim
	trail   []int64
	reached *atomic.Int64
	// midRestores counts decodes of a state with a nonzero sum, i.e.
	// rollbacks that kept some of the history before them.
	midRestores int
}

func (l *trailLP) Execute(ctx *Context, now Time, events []Event) {
	l.stragglerVictim.Execute(ctx, now, events)
	l.trail = append(l.trail, l.sum)
	if keep := int(now % 5); len(l.trail) > keep {
		l.trail = append(l.trail[:0], l.trail[len(l.trail)-keep:]...)
	}
	if l.reached != nil {
		l.reached.Store(now)
	}
}

func (l *trailLP) EncodeState(buf []byte) []byte {
	buf = appendI64(appendI64(buf, l.sum), int64(len(l.trail)))
	for _, v := range l.trail {
		buf = appendI64(buf, v)
	}
	return buf
}

func (l *trailLP) DecodeState(data []byte) error {
	if len(data) < 16 || uint64(len(data)-16) != 8*binary.LittleEndian.Uint64(data[8:]) {
		return fmt.Errorf("trailLP: state of %d bytes", len(data))
	}
	l.sum = int64(binary.LittleEndian.Uint64(data))
	l.trail = l.trail[:0]
	for data = data[16:]; len(data) > 0; data = data[8:] {
		l.trail = append(l.trail, int64(binary.LittleEndian.Uint64(data)))
	}
	if l.sum != 0 {
		l.midRestores++
	}
	return nil
}

// gatedSender is a stragglerSender that, before its first send (a straggler
// for time 11), waits until victimAt reports a time past until.
type gatedSender struct {
	stragglerSender
	victimAt *atomic.Int64
	until    Time
}

func (s *gatedSender) Execute(ctx *Context, now Time, events []Event) {
	for s.victimAt != nil && now == 10 && s.victimAt.Load() <= s.until {
		runtime.Gosched()
	}
	s.stragglerSender.Execute(ctx, now, events)
}

// TestStatesLogMidHistoryRollback drives the per-LP states log, whose
// entries differ in length, through rollbacks into the middle of the history
// and the fossil collections around them. Each subtest compares the
// committed state with a run that never rolls back and requires the log to
// be empty once everything is committed.
func TestStatesLogMidHistoryRollback(t *testing.T) {
	// run: the victim races past time 50 while the sender, on another
	// cluster, holds its straggler for time 11. GVT cannot pass the sender's
	// time 10 meanwhile, so the bundle at 10 is still in the history and the
	// rollback lands after it. The reference runs both LPs on one cluster.
	t.Run("run", func(t *testing.T) {
		run := func(clusters int, gated bool) (*trailLP, RunStats) {
			v := &trailLP{stragglerVictim: stragglerVictim{limit: 400}}
			s := &gatedSender{stragglerSender: stragglerSender{victim: 0, n: 390}, until: 50}
			if gated {
				v.reached = new(atomic.Int64)
				s.victimAt = v.reached
			}
			k, err := New(Config{NumClusters: clusters, ClusterOf: []int{0, clusters - 1}, GVTPeriodEvents: 16}, []Handler{v, s})
			if err != nil {
				t.Fatal(err)
			}
			stats, err := k.Run()
			if err != nil {
				t.Fatal(err)
			}
			for _, lp := range k.lps {
				if len(lp.states) != 0 {
					t.Errorf("%d clusters: LP %d keeps %d bytes of saved state after Run", clusters, lp.id, len(lp.states))
				}
			}
			return v, stats
		}
		want, wantStats := run(1, false)
		if wantStats.Rollbacks != 0 {
			t.Fatalf("one-cluster reference rolled back %d times", wantStats.Rollbacks)
		}
		got, stats := run(2, true)
		if stats.Rollbacks == 0 || got.midRestores == 0 {
			t.Fatalf("no rollback into the middle of the history: rollbacks=%d mid-history restores=%d", stats.Rollbacks, got.midRestores)
		}
		if got.sum != want.sum || !slices.Equal(got.trail, want.trail) || stats.EventsCommitted != wantStats.EventsCommitted {
			t.Errorf("committed state sum=%d trail=%v events=%d, rollback-free run sum=%d trail=%v events=%d",
				got.sum, got.trail, stats.EventsCommitted, want.sum, want.trail, wantStats.EventsCommitted)
		}
	})

	// by-hand: when a running kernel fossil-collects is up to its GVT rounds,
	// so the offsets a partial collection rebases are tested on one LP driven
	// directly. It executes through time 40, commits below 20 and executes on
	// through 50, appending over the logs' vacated tails. A straggler for 25
	// then rolls back into the rebased logs, and one for 24, queued before
	// anything re-executes, to the bundle the first rollback left last. The
	// reference has both events queued before it executes anything. Every
	// rolled-back bundle sent one event, so the two rollbacks send 26 + 1
	// anti-messages.
	t.Run("by-hand", func(t *testing.T) {
		// The one case runs under the cancellation policy's name, as
		// it did while the kernel also had lazy cancellation.
		t.Run("aggressive", func(t *testing.T) {
			drive := func(rollback bool) *trailLP {
				v := &trailLP{stragglerVictim: stragglerVictim{limit: 60}}
				k, err := New(Config{NumClusters: 1, ClusterOf: []int{0}}, []Handler{v})
				if err != nil {
					t.Fatal(err)
				}
				lp, c := k.lps[0], k.clusters[0]
				v.Init(&Context{lp: lp, now: -1, inInit: true})
				c.drainLocal()
				late := []Event{
					{ID: k.nextEventID(), Sender: NoLP, RecvTime: 25, Kind: 1, Value: 7},
					{ID: k.nextEventID(), Sender: NoLP, RecvTime: 24, Kind: 1, Value: 9},
				}
				execute := func(through Time) {
					for lp.lvt < through && lp.executeNext() > 0 {
						c.drainLocal()
					}
					checkLogs(t, lp)
				}
				if !rollback {
					for _, ev := range late {
						lp.enqueue(ev)
					}
				}
				execute(40)
				if rollback {
					lp.fossilCollect(20)
					// Bundles 20..40 are left, one event in and one sent
					// each, rebased to the start of every log.
					if len(lp.processed) != 21 || len(lp.inLog) != 21 || len(lp.outLog) != 21 {
						t.Fatalf("after committing below 20: %d bundles, %d input events, %d sends; want 21 each",
							len(lp.processed), len(lp.inLog), len(lp.outLog))
					}
					for i, b := range lp.processed {
						if b.time != Time(20+i) || b.evAt != i || b.sentAt != i {
							t.Fatalf("bundle %d after the rebase: %+v, want time %d at offsets %d", i, b, 20+i, i)
						}
					}
				}
				execute(50)
				if rollback {
					for _, ev := range late {
						lp.enqueue(ev)
						c.drainLocal()
					}
				}
				execute(TimeInfinity)
				lp.fossilCollect(TimeInfinity)
				if len(lp.states) != 0 || len(lp.inLog) != 0 || len(lp.outLog) != 0 {
					t.Errorf("rollback=%v: %d bytes of saved state, %d input events, %d sends after committing everything",
						rollback, len(lp.states), len(lp.inLog), len(lp.outLog))
				}
				var wantRollbacks, wantAnti uint64
				if rollback {
					wantRollbacks, wantAnti = 2, 27
				}
				if c.stats.Rollbacks != wantRollbacks || c.stats.AntiMessages != wantAnti {
					t.Errorf("rollback=%v: %d rollbacks, %d anti-messages, want %d, %d",
						rollback, c.stats.Rollbacks, c.stats.AntiMessages, wantRollbacks, wantAnti)
				}
				return v
			}
			want, got := drive(false), drive(true)
			if got.midRestores != 2 {
				t.Errorf("%d mid-history restores, want 2", got.midRestores)
			}
			if got.sum != want.sum || !slices.Equal(got.trail, want.trail) {
				t.Errorf("committed state sum=%d trail=%v, rollback-free sum=%d trail=%v", got.sum, got.trail, want.sum, want.trail)
			}
		})
	})
}

// checkLogs asserts the shape every LP history keeps: the first bundle's
// shares start each log, the offsets never decrease, and each bundle's
// input events and sends carry its time.
func checkLogs(t *testing.T, lp *lpRuntime) {
	t.Helper()
	for i, b := range lp.processed {
		evEnd, sentEnd := len(lp.inLog), len(lp.outLog)
		if i+1 < len(lp.processed) {
			evEnd, sentEnd = lp.processed[i+1].evAt, lp.processed[i+1].sentAt
		}
		if i == 0 && (b.evAt != 0 || b.sentAt != 0 || b.stateAt != 0) {
			t.Fatalf("first bundle %+v does not start the logs", b)
		}
		if b.evAt >= evEnd || b.sentAt > sentEnd {
			t.Fatalf("bundle %d %+v: offsets out of order (input ends %d, sends end %d)", i, b, evEnd, sentEnd)
		}
		for _, ev := range lp.inLog[b.evAt:evEnd] {
			if ev.RecvTime != b.time {
				t.Fatalf("bundle %d at %d holds an input event for %d", i, b.time, ev.RecvTime)
			}
		}
		for _, ev := range lp.outLog[b.sentAt:sentEnd] {
			if ev.SendTime != b.time {
				t.Fatalf("bundle %d at %d holds a send from %d", i, b.time, ev.SendTime)
			}
		}
	}
}

// TestHistoryCycleAllocatesNothing: once an LP's logs and the cluster's
// queues have grown to their working size, executing a bundle and
// committing the one before it allocates nothing.
func TestHistoryCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	v := &stragglerVictim{limit: TimeInfinity - 1}
	k, err := New(Config{NumClusters: 1, ClusterOf: []int{0}}, []Handler{v})
	if err != nil {
		t.Fatal(err)
	}
	lp, c := k.lps[0], k.clusters[0]
	v.Init(&Context{lp: lp, now: -1, inInit: true})
	c.drainLocal()
	c.schedule(lp)
	cycle := func() {
		if n, _ := c.executeOne(c.horizon()); n != 1 {
			t.Fatalf("executed %d events, want 1", n)
		}
		c.drainLocal()
		c.fossilCollect(lp.lvt)
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Errorf("execute → fossil-collect cycle allocates %.2f times, want 0", allocs)
	}
	if len(lp.processed) != 1 || c.stats.EventsCommitted != uint64(lp.lvt-1) {
		t.Errorf("after the cycles: %d bundles held, %d events committed through %d", len(lp.processed), c.stats.EventsCommitted, lp.lvt)
	}
}

func TestConfigErrors(t *testing.T) {
	h := []Handler{&pingLP{}, &pingLP{}}
	cases := []Config{
		{NumClusters: 0, ClusterOf: []int{0, 0}},
		{NumClusters: 2, ClusterOf: []int{0}},
		{NumClusters: 2, ClusterOf: []int{0, 5}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg, h); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{NumClusters: 1, ClusterOf: nil}, nil); err == nil {
		t.Error("no LPs accepted")
	}
	if _, err := New(Config{NumClusters: 1, ClusterOf: []int{0, 0}}, []Handler{&pingLP{}, nil}); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestKernelRunsOnce(t *testing.T) {
	a := &pingLP{peer: 0, limit: 1, delay: 1, start: true}
	k, err := New(Config{NumClusters: 1, ClusterOf: []int{0}}, []Handler{a})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(); err == nil {
		t.Error("second Run accepted")
	}
}

func TestEventHeapOrdering(t *testing.T) {
	h := &eventHeap{}
	evs := []Event{
		{ID: 3, RecvTime: 10, Sender: 2},
		{ID: 1, RecvTime: 5, Sender: 9},
		{ID: 2, RecvTime: 10, Sender: 1},
		{ID: 4, RecvTime: 5, Sender: 9},
	}
	for _, ev := range evs {
		h.push(ev)
	}
	got := make([]uint64, 0, 4)
	for len(*h) > 0 {
		got = append(got, h.pop().ID)
	}
	want := []uint64{1, 4, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("heap order %v, want %v", got, want)
		}
	}
}

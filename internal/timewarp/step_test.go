package timewarp

import (
	"sync/atomic"
	"testing"
)

// stepLP is a probe for cluster.step: it counts its bundles, optionally runs
// a hook after each, chains itself one time unit forward up to limit, sends
// to peer (when not -1) one unit after every bundle before peerUntil (or
// limit when peerUntil is 0), and preloads itself with one event at each
// time 1..preload from Init.
type stepLP struct {
	limit     Time
	peer      LPID
	peerUntil Time
	preload   Time
	chain     bool
	execs     int
	after     func(n int)
}

func (l *stepLP) Init(ctx *Context) {
	if l.chain {
		ctx.Send(ctx.Self(), 1, 0, 0)
	}
	for t := Time(1); t <= l.preload; t++ {
		ctx.Send(ctx.Self(), t, 1, 0)
	}
}

func (l *stepLP) Execute(ctx *Context, now Time, events []Event) {
	l.execs++
	if l.chain && now < l.limit {
		ctx.Send(ctx.Self(), now+1, 0, 0)
	}
	until := l.peerUntil
	if until == 0 {
		until = l.limit
	}
	if l.peer >= 0 && now < until {
		ctx.Send(l.peer, now+1, 2, 0)
	}
	if l.after != nil {
		l.after(l.execs)
	}
}

func (l *stepLP) EncodeState(buf []byte) []byte { return appendI64(buf, int64(l.execs)) }
func (l *stepLP) DecodeState(data []byte) error {
	var v int64
	err := decodeI64(data, &v)
	l.execs = int(v)
	return err
}

// newStepKernel builds a kernel over hs and brings it to the state the
// cluster loops start from, without starting them, so the test drives
// cluster.step itself.
func newStepKernel(t *testing.T, cfg Config, hs ...Handler) *Kernel {
	t.Helper()
	if cfg.GVTPeriodEvents == 0 {
		cfg.GVTPeriodEvents = 1 << 30
	}
	k, err := New(cfg, hs)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.initRun(); err != nil {
		t.Fatal(err)
	}
	return k
}

// TestStepPass is the case matrix of one pass of the cluster loop
// (cluster.step), driven on step directly from the test goroutine: no
// cluster goroutine runs and nothing sleeps. S06, the publish that skips an
// unchanged next-work time, is part of TestPublishProgressWakesStalledCluster.
//
//	S01  no mail: a pass runs passBundles bundles
//	S02  mail posted after bundle 1 ends the pass after that bundle
//	S03  a stall mid-pass reports busy; a stall at bundle 0 reports stalled
//	S04  k=1 never reads the progress floor and never rolls back
//	S05  eventsSinceGVT counts every bundle of the pass
//	S07  a held batch whose destination advances past it is flushed after
//	     the next bundle, not at the next pass
func TestStepPass(t *testing.T) {
	t.Run("S01", func(t *testing.T) {
		lp := &stepLP{limit: 10 * passBundles, peer: -1, chain: true}
		k := newStepKernel(t, Config{NumClusters: 1, ClusterOf: []int{0}}, lp)
		if got := k.clusters[0].step(); got != stepBusy {
			t.Fatalf("step = %d, want busy", got)
		}
		if lp.execs != passBundles {
			t.Fatalf("one pass ran %d bundles, want passBundles = %d", lp.execs, passBundles)
		}
	})

	t.Run("S02", func(t *testing.T) {
		lp := &stepLP{limit: 10 * passBundles, peer: -1, chain: true}
		k := newStepKernel(t, Config{NumClusters: 1, ClusterOf: []int{0}}, lp)
		c := k.clusters[0]
		lp.after = func(n int) {
			if n == 1 {
				c.mail.postCtrl(ctrlWake)
			}
		}
		if got := c.step(); got != stepBusy {
			t.Fatalf("step = %d, want busy", got)
		}
		if lp.execs != 1 {
			t.Fatalf("mail posted after bundle 1: the pass ran %d bundles, want 1", lp.execs)
		}
		// The next pass drains the mail at its start and runs a full pass.
		c.step()
		if want := 1 + passBundles; lp.execs != want {
			t.Fatalf("after the second pass: %d bundles, want %d", lp.execs, want)
		}
	})

	t.Run("S03", func(t *testing.T) {
		// Both chains start at 1, so the floor is 1 and cluster 0's horizon
		// is 1 + w. Cluster 1 never steps and cluster 0 publishes only at
		// the end of a pass, so the floor stays 1 throughout: the pass runs
		// times 1..1+w and stalls at 2+w.
		w := Time(passBundles / 2)
		a := &stepLP{limit: 10 * passBundles, peer: -1, chain: true}
		b := &stepLP{limit: 10 * passBundles, peer: -1, chain: true}
		k := newStepKernel(t, Config{NumClusters: 2, ClusterOf: []int{0, 1}, OptimismWindow: w}, a, b)
		c := k.clusters[0]
		if got := c.step(); got != stepBusy {
			t.Fatalf("stall after %d bundles: step = %d, want busy", a.execs, got)
		}
		if want := int(w) + 1; a.execs != want {
			t.Fatalf("pass ran %d bundles before the horizon, want %d", a.execs, want)
		}
		if got := c.step(); got != stepStalled {
			t.Fatalf("stall at bundle 0: step = %d, want stalled", got)
		}
		if want := int(w) + 1; a.execs != want {
			t.Fatalf("a stalled pass ran bundles: %d, want %d", a.execs, want)
		}
		if got, want := atomic.LoadInt64(&k.published[0].t), 2+w; got != want {
			t.Fatalf("published next work %d, want %d", got, want)
		}
		if c.stats.Stalls != 0 {
			t.Fatalf("step counted %d stalls; only run's park counts one", c.stats.Stalls)
		}
	})

	t.Run("S04", func(t *testing.T) {
		// LP 0 chains and sends to LP 1 one unit ahead; LP 1 holds an
		// event at every time from Init. A pass that did not deliver LP 0's
		// send before its next bundle would let LP 1 run that time first
		// and roll back when the send arrived.
		const limit = 6 * passBundles
		a := &stepLP{limit: limit, peer: 1, chain: true}
		b := &stepLP{limit: limit, peer: -1, preload: limit}
		k := newStepKernel(t, Config{NumClusters: 1, ClusterOf: []int{0, 0}, OptimismWindow: 1}, a, b)
		c := k.clusters[0]
		for i := 0; ; i++ {
			// A zero floor would put every time above 1 beyond the window:
			// k=1 must not look.
			atomic.StoreInt64(&k.published[0].t, 0)
			r := c.step()
			if r == stepIdle {
				break
			}
			if r == stepStalled {
				t.Fatalf("pass %d stalled at k=1", i)
			}
			if i > 10*limit {
				t.Fatal("k=1 did not go idle")
			}
		}
		if a.execs != limit || b.execs != limit {
			t.Fatalf("bundles %d/%d, want %d each", a.execs, b.execs, limit)
		}
		if c.stats.Rollbacks != 0 || c.stats.EventsRolledBack != 0 {
			t.Fatalf("k=1 rolled back: %d rollbacks, %d events", c.stats.Rollbacks, c.stats.EventsRolledBack)
		}
		if c.stats.Stalls != 0 {
			t.Fatalf("k=1 stalled %d times", c.stats.Stalls)
		}
	})

	t.Run("S05", func(t *testing.T) {
		lp := &stepLP{limit: 10 * passBundles, peer: -1, chain: true}
		k := newStepKernel(t, Config{NumClusters: 1, ClusterOf: []int{0}}, lp)
		c := k.clusters[0]
		c.step()
		if c.eventsSinceGVT != passBundles {
			t.Fatalf("eventsSinceGVT = %d after a pass of %d one-event bundles", c.eventsSinceGVT, passBundles)
		}
		if atomic.LoadInt32(&k.gvtFlag) != 0 {
			t.Fatal("GVT requested below GVTPeriodEvents")
		}

		// With the period at one pass, the pass's sum reaches it: the
		// counter resets and a round is requested.
		lp = &stepLP{limit: 10 * passBundles, peer: -1, chain: true}
		k = newStepKernel(t, Config{NumClusters: 1, ClusterOf: []int{0}, GVTPeriodEvents: passBundles}, lp)
		c = k.clusters[0]
		c.step()
		if c.eventsSinceGVT != 0 || atomic.LoadInt32(&k.gvtFlag) != 1 {
			t.Fatalf("after %d events: eventsSinceGVT = %d, gvtFlag = %d; want 0 and a request",
				lp.execs, c.eventsSinceGVT, atomic.LoadInt32(&k.gvtFlag))
		}
	})

	t.Run("S07", func(t *testing.T) {
		// LP 1 on cluster 1 holds work from time 1, so LP 0's one send, at
		// time 2 from bundle 1, is not urgent and stays in the outbox. After
		// bundle 2 cluster 1 publishes 100: the batch is now a straggler
		// there and must leave before bundle 3, not wait out the pass.
		a := &stepLP{limit: 10 * passBundles, peer: 1, peerUntil: 2, chain: true}
		b := &stepLP{limit: 10 * passBundles, peer: -1, preload: 10 * passBundles}
		k := newStepKernel(t, Config{NumClusters: 2, ClusterOf: []int{0, 1}}, a, b)
		c := k.clusters[0]
		held := -1
		a.after = func(n int) {
			switch n {
			case 2:
				held = len(c.out[1].buf)
				k.publishProgress(1, 100)
			case 3:
				if got := len(c.out[1].buf); got != 0 {
					t.Errorf("bundle 3 ran with %d events held for a destination past them", got)
				}
			}
		}
		c.step()
		if held != 1 {
			t.Fatalf("outbox held %d events after bundle 2, want the one non-urgent send", held)
		}
		if a.execs < 3 {
			t.Fatalf("the pass ran %d bundles, want at least 3", a.execs)
		}
		if atomic.LoadInt32(&k.clusters[1].mail.flag) == 0 {
			t.Error("cluster 1's mailbox is empty after the flush")
		}
	})
}

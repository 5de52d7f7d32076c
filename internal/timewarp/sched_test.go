package timewarp

import (
	"math/rand"
	"sort"
	"testing"
)

// TestSchedQueue checks the bucketed scheduler against a sorted reference
// under seeded random interleavings of push and pop: every pushed (t, lp)
// pops exactly once, each pop returns an entry at the reference minimum
// time, and len and min agree with the reference throughout. The time
// generators cover a few distinct times (the gate-level shape), all-distinct
// times, pushes below the current minimum (what rollbacks and stragglers
// produce) and times that share a cache slot.
func TestSchedQueue(t *testing.T) {
	lps := make([]*lpRuntime, 16)
	for i := range lps {
		lps[i] = &lpRuntime{id: LPID(i)}
	}
	for _, tc := range []struct {
		name string
		// next returns the time of a push, given the last popped time.
		next func(r *rand.Rand, now Time) Time
	}{
		{"few-times", func(r *rand.Rand, now Time) Time { return now + Time(r.Intn(4)) }},
		{"distinct-times", func(r *rand.Rand, now Time) Time { return now + 1 + r.Int63n(1<<40) }},
		{"below-min", func(r *rand.Rand, now Time) Time {
			if r.Intn(4) == 0 {
				return now - Time(r.Intn(6))
			}
			return now + Time(r.Intn(6))
		}},
		{"cache-collisions", func(r *rand.Rand, now Time) Time {
			return now + Time(r.Intn(3))*schedCacheSize + Time(r.Intn(2))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				r := rand.New(rand.NewSource(seed))
				var q schedQueue
				var ref []schedEntry // sorted by t
				now := Time(1000)
				pops := 0
				check := func(step int) {
					t.Helper()
					if q.len() != len(ref) {
						t.Fatalf("seed %d step %d: len = %d, reference holds %d", seed, step, q.len(), len(ref))
					}
					if len(ref) > 0 && q.min() != ref[0].t {
						t.Fatalf("seed %d step %d: min = %d, reference minimum %d", seed, step, q.min(), ref[0].t)
					}
				}
				pop := func(step int) Time {
					t.Helper()
					e := q.pop()
					if e.t != ref[0].t {
						t.Fatalf("seed %d step %d: popped t=%d, reference minimum %d", seed, step, e.t, ref[0].t)
					}
					i := 0
					for i < len(ref) && ref[i].t == e.t && ref[i].lp != e.lp {
						i++
					}
					if i == len(ref) || ref[i].t != e.t {
						t.Fatalf("seed %d step %d: popped (t=%d, lp %d), which is not queued", seed, step, e.t, e.lp.id)
					}
					ref = append(ref[:i], ref[i+1:]...)
					pops++
					return e.t
				}
				for step := 0; step < 3000; step++ {
					if len(ref) == 0 || r.Intn(100) < 55 {
						e := schedEntry{t: tc.next(r, now), lp: lps[r.Intn(len(lps))]}
						q.push(e)
						i := sort.Search(len(ref), func(i int) bool { return ref[i].t > e.t })
						ref = append(ref, schedEntry{})
						copy(ref[i+1:], ref[i:])
						ref[i] = e
					} else {
						now = pop(step)
					}
					check(step)
				}
				// Drain: with no further pushes the popped times never
				// decrease, and the queue ends empty.
				last := Time(-1 << 62)
				for step := 0; len(ref) > 0; step++ {
					got := pop(step)
					if got < last {
						t.Fatalf("seed %d drain step %d: popped %d after %d", seed, step, got, last)
					}
					last = got
					check(step)
				}
				if q.len() != 0 {
					t.Fatalf("seed %d: len = %d after the reference drained", seed, q.len())
				}
				if pops == 0 {
					t.Fatalf("seed %d: nothing popped", seed)
				}
			}
		})
	}
}

// BenchmarkSched times one scheduler step, a pop and then a push of the
// popped LP at t + delay, on a queue of 6,000 entries: spread over 4
// distinct times (few-6000, the shape gate-level runs produce) or over 6,000
// (distinct-6000, where no two entries share a bucket). It uses only the
// push and pop methods, so the same benchmark runs on any scheduler behind
// cluster.sched.
func BenchmarkSched(b *testing.B) {
	for _, row := range []struct {
		name  string
		times Time
	}{{"few-6000", 4}, {"distinct-6000", 6000}} {
		b.Run(row.name, func(b *testing.B) {
			var c cluster
			lp := &lpRuntime{}
			for i := 0; i < 6000; i++ {
				c.sched.push(schedEntry{t: Time(i) % row.times, lp: lp})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := c.sched.pop()
				c.sched.push(schedEntry{t: e.t + row.times, lp: e.lp})
			}
		})
	}
}

// BenchmarkHotPaths guards the allocation behavior of the inner loops that
// dominate the partitioner's and both simulators' run time: the k-way
// refinement loop of the multilevel partitioner (internal/core), the event
// loop of the sequential oracle (internal/seqsim) and the event/rollback
// machinery of the Time Warp kernel (internal/timewarp).
// Every sub-benchmark reports allocations; regressions show up as allocs/op
// jumps, not just ns/op noise.
package repro

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/logicsim"
	"repro/internal/partition"
	"repro/internal/seqsim"
	"repro/internal/timewarp"
)

// hotPathCircuit is the shared mid-size circuit: big enough that the
// refinement and rollback loops dominate, small enough for -bench '.' runs
// to stay in seconds.
func hotPathCircuit(b *testing.B) *circuit.Circuit {
	b.Helper()
	return circuit.MustGenerate(circuit.GenSpec{
		Name:      "hotpaths",
		Inputs:    48,
		Gates:     6000,
		Outputs:   16,
		FlipFlops: 300,
		Seed:      17,
	})
}

// BenchmarkHotPaths/refine-* exercises the full multilevel pass (coarsen,
// initial partition, per-level refinement) under each refiner; the greedy
// and FM variants are the partitioner's hot paths.
func BenchmarkHotPaths(b *testing.B) {
	c := hotPathCircuit(b)

	for _, r := range []core.Refiner{core.GreedyRefine, core.FMRefine} {
		b.Run(fmt.Sprintf("refine-%s", r), func(b *testing.B) {
			m := &core.Multilevel{Opts: core.Options{Seed: 1, Refiner: r}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Partition(c, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// seqsim: the sequential oracle, the denominator of every speedup. The
	// bench ladder's allocs_per_event counts only the parallel run, so these
	// rows are what guards the oracle's allocations.
	seqCfg := seqsim.Config{Cycles: 20, StimulusSeed: 1}
	for _, row := range []struct {
		name string
		run  func() (events uint64, err error)
	}{
		{"seqsim", func() (uint64, error) { r, err := seqsim.Run(c, seqCfg); return r.Events, err }},
		{"seqsim-vec", func() (uint64, error) { r, err := seqsim.RunVec(c, seqCfg); return r.Events, err }},
	} {
		b.Run(row.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			var events uint64
			for i := 0; i < b.N; i++ {
				var err error
				if events, err = row.run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}

	// rollback-heavy: a random partition maximizes the cut, so nearly every
	// signal change crosses clusters and stragglers (and therefore rollbacks
	// and anti-messages) dominate the run. Both cancellation policies are
	// covered because they stress different oldSends paths.
	small, err := circuit.NewBenchmark("s9234", 0.08)
	if err != nil {
		b.Fatal(err)
	}
	a, err := partition.Random{Seed: 3}.Partition(small, 6)
	if err != nil {
		b.Fatal(err)
	}
	for _, vectors := range []bool{false, true} {
		for _, lazy := range []bool{false, true} {
			name := "rollback-aggressive"
			if lazy {
				name = "rollback-lazy"
			}
			if vectors {
				// The vectored rows roll back 128 packed planes per gate
				// instead of a handful of bytes; the alloc guard holds the
				// states log and payload recycling to the same steady-state
				// as the scalar rows.
				name = "vec-" + name
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				var rollbacks uint64
				for i := 0; i < b.N; i++ {
					res, err := logicsim.Run(small, a, logicsim.Config{
						Cycles:           6,
						StimulusSeed:     1,
						LazyCancellation: lazy,
						Vectors:          vectors,
					})
					if err != nil {
						b.Fatal(err)
					}
					rollbacks = res.Stats.Rollbacks
				}
				b.ReportMetric(float64(rollbacks), "rollbacks")
				if vectors {
					b.ReportMetric(float64(circuit.W)*float64(b.N)/b.Elapsed().Seconds(), "scenarios/s")
				}
			})
		}
	}
}

// tokenRingLP forwards a token one step around a ring of LPs, with a per-LP
// hop delay so the tokens desynchronize and every cluster keeps executable
// work queued. With the ring laid out round-robin across clusters every hop
// is a remote message, so a run is a throughput stress of the inter-cluster
// transport (route, transit accounting, mailbox handoff, delivery) with
// trivial handler work.
type tokenRingLP struct {
	next  timewarp.LPID
	delay timewarp.Time
	limit timewarp.Time
	seen  int64
}

func (r *tokenRingLP) Init(ctx *timewarp.Context) {
	ctx.Send(ctx.Self(), r.delay, 0, 0)
}

func (r *tokenRingLP) Execute(ctx *timewarp.Context, now timewarp.Time, events []timewarp.Event) {
	for range events {
		r.seen++
		if now < r.limit {
			ctx.Send(r.next, now+r.delay, 0, 0)
		}
	}
}

func (r *tokenRingLP) EncodeState(buf []byte) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(r.seen))
}

func (r *tokenRingLP) DecodeState(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("tokenRingLP: state of %d bytes, want 8", len(data))
	}
	r.seen = int64(binary.LittleEndian.Uint64(data))
	return nil
}

// payloadRingLP is the token ring with every hop carrying a full wide payload
// block (both planes nonzero), so each remote message takes the widened wire
// path: payload flag set, 16 extra bytes encoded, decoded, and recycled
// through the event pool. It benchmarks the transport cost of vectored-mode
// traffic against the plain ring's.
type payloadRingLP struct {
	next  timewarp.LPID
	delay timewarp.Time
	limit timewarp.Time
	seen  int64
	acc   uint64
}

func (r *payloadRingLP) Init(ctx *timewarp.Context) {
	ctx.SendP(ctx.Self(), r.delay, 0, 0, timewarp.Payload{P0: 1, P1: ^uint64(1)})
}

func (r *payloadRingLP) Execute(ctx *timewarp.Context, now timewarp.Time, events []timewarp.Event) {
	for _, ev := range events {
		r.seen++
		r.acc += ev.Pay.P0
		if now < r.limit {
			ctx.SendP(r.next, now+r.delay, 0, 0, timewarp.Payload{P0: ev.Pay.P0 + 1, P1: ^(ev.Pay.P0 + 1)})
		}
	}
}

func (r *payloadRingLP) EncodeState(buf []byte) []byte {
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(buf, uint64(r.seen)), r.acc)
}

func (r *payloadRingLP) DecodeState(data []byte) error {
	if len(data) != 16 {
		return fmt.Errorf("payloadRingLP: state of %d bytes, want 16", len(data))
	}
	r.seen, r.acc = int64(binary.LittleEndian.Uint64(data)), binary.LittleEndian.Uint64(data[8:])
	return nil
}

// BenchmarkTransport measures the remote-message path of the Time Warp
// kernel: a token ring striped across clusters (one token per LP, per-LP hop
// delays) where every send crosses a cluster boundary and clusters stay
// busy. ns/msg is the per-remote-message transport cost (routing, transit
// accounting, inter-cluster handoff, delivery), the quantity the batched
// mailbox transport amortizes; allocs/op guards the path against
// regressions.
func BenchmarkTransport(b *testing.B) {
	for _, tc := range []struct {
		name     string
		clusters int
		lps      int
		payload  bool
	}{
		{"ring-2x16", 2, 16, false},
		{"ring-4x32", 4, 32, false},
		{"ring-8x64", 8, 64, false},
		// The pay- rows send the same rings with a full wide payload on every
		// hop: the delta over the plain rows is the wire cost of vectored
		// traffic (16 extra bytes and the flag branch per remote message).
		{"pay-ring-4x32", 4, 32, true},
		{"pay-ring-8x64", 8, 64, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			const horizon = 40000
			b.ReportAllocs()
			b.ResetTimer()
			var msgs uint64
			for i := 0; i < b.N; i++ {
				handlers := make([]timewarp.Handler, tc.lps)
				clusterOf := make([]int, tc.lps)
				for j := 0; j < tc.lps; j++ {
					if tc.payload {
						handlers[j] = &payloadRingLP{
							next:  timewarp.LPID((j + 1) % tc.lps),
							delay: timewarp.Time(1 + j%5),
							limit: horizon,
						}
					} else {
						handlers[j] = &tokenRingLP{
							next:  timewarp.LPID((j + 1) % tc.lps),
							delay: timewarp.Time(1 + j%5),
							limit: horizon,
						}
					}
					clusterOf[j] = j % tc.clusters
				}
				k, err := timewarp.New(timewarp.Config{
					NumClusters: tc.clusters,
					ClusterOf:   clusterOf,
				}, handlers)
				if err != nil {
					b.Fatal(err)
				}
				stats, err := k.Run()
				if err != nil {
					b.Fatal(err)
				}
				if stats.RemoteMessages == 0 {
					b.Fatal("transport benchmark sent no remote messages")
				}
				msgs = stats.RemoteMessages
				b.ReportMetric(float64(stats.Rollbacks), "rollbacks")
			}
			// Normalize to per-remote-message cost so configurations are
			// comparable (the count is virtual-time deterministic: every
			// hop is remote, so it is identical across runs and kernels).
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*int(msgs)), "ns/msg")
		})
	}
}

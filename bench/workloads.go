package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/logicsim"
	"repro/internal/partition"
	"repro/internal/seqsim"
)

// optimismCycles mirrors parsim's -window default at the seed commit. It is
// a workload parameter: a PR that changes parsim's default does not change
// what the benchmark runs.
const optimismCycles = 0.12

// workload is one frozen row of the benchmark: the whole user pipeline
// (generate → partition → simulate → verify) at fixed parameters. Every
// knob not listed here is left zero so the kernel's defaults apply, and no
// workload models network cost (NetSendBusy/NetLatency stay zero).
type workload struct {
	Name        string `json:"name"`
	Why         string `json:"why"`
	Circuit     string `json:"circuit"`
	Partitioner string `json:"partitioner"` // multilevel, random, topological
	K           int    `json:"k"`
	Transport   string `json:"transport"` // mem, tcp
	Grain       int    `json:"grain"`
	Cycles      int    `json:"cycles"`
	Vectors     bool   `json:"vectors"`

	HotspotFraction       float64 `json:"hotspot_fraction"` // 0 = uniform stimulus
	Dynamic               bool    `json:"dynamic"`
	RebalancePeriodRounds int     `json:"rebalance_period_rounds"`
	RebalanceImbalance    float64 `json:"rebalance_imbalance"`
	GVTPeriodEvents       int     `json:"gvt_period_events"`

	// Contrast names a workload that differs from this one only in its
	// partitioner and whose remote-message fraction this one must exceed
	// (the tracked partition-quality contrast).
	Contrast string `json:"contrast,omitempty"`
}

// workloads is the frozen set. Scale is 1 everywhere; cycles are sized so one
// parallel run takes between a quarter of a second and two seconds on the
// 2-core reference host.
var workloads = []workload{
	{
		Name: "k1-g0", Circuit: "s9234", Partitioner: "multilevel", K: 1, Transport: "mem", Cycles: 300,
		Why: "Time Warp with nothing to roll back or send: state saving, LTSF scheduling and fossil collection against seqsim; single-threaded, lowest noise; transport changes must not move it",
	},
	{
		Name: "mem-k2-g0", Circuit: "s9234", Partitioner: "multilevel", K: 2, Transport: "mem", Cycles: 100,
		Why: "pure kernel cost at k = core count: mailboxes, GVT, rollback and window stalls dominate; the workload a kernel-overhead optimisation must win on",
	},
	{
		Name: "mem-k2-g2000", Circuit: "s9234", Partitioner: "multilevel", K: 2, Transport: "mem", Grain: 2000, Cycles: 60,
		Why: "paper-calibrated heavyweight LPs: gate execution dominates and kernel overhead is a small share; where parallelism should pay and a kernel change should move little",
	},
	{
		Name: "mem-k2-random-g0", Circuit: "s9234", Partitioner: "random", K: 2, Transport: "mem", Cycles: 100, Contrast: "mem-k2-g0",
		Why: "same kernel, about half the edges cut: several times the remote messages and more rollbacks than mem-k2-g0; a local-path gain that costs the remote path shows here",
	},
	{
		Name: "tcp-k2-g0", Circuit: "s9234", Partitioner: "multilevel", K: 2, Transport: "tcp", Cycles: 100,
		Why: "the events of mem-k2-g0 through the wire codec, loopback sockets, writer lanes and heartbeats; the only workload a transport or codec change should move",
	},
	{
		Name: "vec-k2-g0", Circuit: "s15850", Partitioner: "multilevel", K: 2, Transport: "mem", Cycles: 6, Vectors: true,
		Why: "64 lanes on the largest circuit: EvalVec, wide payloads, 128-byte snapshots, the biggest working set and set-up; where state-saving and payload changes show most",
	},
	{
		Name: "dyn-hotspot-k2-g2000", Circuit: "s9234", Partitioner: "topological", K: 2, Transport: "mem", Grain: 2000, Cycles: 100,
		HotspotFraction: 0.15, Dynamic: true, RebalancePeriodRounds: 2, RebalanceImbalance: 1.0, GVTPeriodEvents: 1024,
		Why: "the only workload that runs load rounds, core.Rebalance, routing-table rewrites and LP migration; guards route.go, migrate.go and rebalance.go against silent regressions",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// partitioner builds the workload's partitioner from the benchmark seed.
func (w workload) partitioner(seed int64) (partition.Partitioner, error) {
	switch w.Partitioner {
	case "multilevel":
		return core.New(seed), nil
	case "random":
		return partition.Random{Seed: seed}, nil
	case "topological":
		return partition.Topological{}, nil
	}
	return nil, fmt.Errorf("workload %s: unknown partitioner %q", w.Name, w.Partitioner)
}

// simConfig is the parallel run's configuration: parsim's flag defaults at
// the seed commit (window 0.12, aggressive cancellation) plus the workload's
// own knobs. The seed feeds stimulus and rebalance order.
func (w workload) simConfig(seed int64) logicsim.Config {
	return logicsim.Config{
		Cycles:                w.Cycles,
		StimulusSeed:          seed,
		Grain:                 w.Grain,
		OptimismCycles:        optimismCycles,
		Vectors:               w.Vectors,
		Hotspot:               w.HotspotFraction > 0,
		HotspotFraction:       w.HotspotFraction,
		DynamicRebalance:      w.Dynamic,
		RebalancePeriodRounds: w.RebalancePeriodRounds,
		RebalanceImbalance:    w.RebalanceImbalance,
		RebalanceSeed:         seed,
		GVTPeriodEvents:       w.GVTPeriodEvents,
	}
}

// seqConfig is the oracle's configuration for the same stimulus.
func (w workload) seqConfig(seed int64) seqsim.Config {
	return seqsim.Config{
		Cycles:          w.Cycles,
		StimulusSeed:    seed,
		Hotspot:         w.HotspotFraction > 0,
		HotspotFraction: w.HotspotFraction,
	}
}

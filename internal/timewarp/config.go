package timewarp

import (
	"errors"
	"fmt"
	"time"
)

// Validation sentinels. Config.Validate (and New, which calls it) wrap these
// with the offending values, so callers can test categories with errors.Is
// while the message still names the bad field.
var (
	// ErrBadClusters rejects a run with no clusters.
	ErrBadClusters = errors.New("timewarp: need at least one cluster")
	// ErrBadAssignment rejects a ClusterOf that is the wrong length or maps
	// an LP outside [0, NumClusters).
	ErrBadAssignment = errors.New("timewarp: bad LP assignment")
	// ErrBadTransport rejects a transport that cannot host the
	// configuration: more nodes than clusters, or dynamic balancing over
	// more than one node.
	ErrBadTransport = errors.New("timewarp: transport cannot host this configuration")
	// ErrProtoMismatch rejects a TCP mesh handshake whose peer speaks a
	// different wire-protocol version (or is not a timewarp peer at all).
	// The error text names both sides' values.
	ErrProtoMismatch = errors.New("timewarp: wire-protocol mismatch")
	// ErrConfigMismatch rejects a TCP mesh handshake whose peer was launched
	// with a different configuration (mesh size, cluster/LP counts, or any
	// determinism-affecting knob folded into the config digest). The error
	// text names both sides' values.
	ErrConfigMismatch = errors.New("timewarp: configuration mismatch between mesh nodes")
	// ErrPeerDown marks a run aborted because a mesh peer died, went silent
	// past the detection bound, or sent a corrupt frame. Every surviving
	// node's Run returns an error wrapping it that names the failed peer.
	ErrPeerDown = errors.New("timewarp: mesh peer failure")
)

// NetConfig groups the communication knobs of a run: the transport the
// clusters talk over and the backpressure/wire-model parameters the flush
// policy uses.
type NetConfig struct {
	// Transport is the communication fabric between clusters. Nil selects
	// the in-memory transport (every cluster is a goroutine of this
	// process); a TCPTransport splits the clusters across OS processes.
	Transport Transport
	// SendBusy / RecvBusy burn this many iterations of CPU work per
	// inter-cluster message at the sender / receiver, modeling the per-
	// message protocol overhead of the paper's fast-ethernet LAN. The cost
	// is charged per event at batch flush/delivery time (one busy call of
	// n×cost per batch). Zero disables the model.
	SendBusy int
	RecvBusy int
	// Latency is the modeled one-way wall-clock delivery delay of an
	// inter-cluster batch. Events become visible to the receiving cluster
	// only after this delay, reproducing the straggler dynamics of a
	// LAN-connected Time Warp. A GVT round's cut cannot close while such a
	// batch is on the modeled wire (it counts as received only once
	// delivered), so GVT latency grows with Latency exactly as on a real
	// LAN, but clusters keep executing while the cut waits. Zero disables
	// the model.
	Latency time.Duration
	// InboxSize is the per-cluster mailbox capacity in events: a batch
	// flush is refused (and retried by the sender) while the destination
	// holds this many undrained events, except that an empty mailbox
	// accepts any single batch so progress never deadlocks on a capacity
	// smaller than one batch. Default 8192.
	InboxSize int
}

// DynamicConfig groups the dynamic load-balancing knobs of a run.
type DynamicConfig struct {
	// Rebalance, when non-nil, enables dynamic load balancing: every
	// PeriodRounds GVT rounds in which GVT advanced, the kernel collects a
	// LoadSnapshot (per-LP committed events and the observed send matrix
	// since the previous snapshot, plus the smoothed committed load) and
	// calls this function from the coordinator's goroutine. A non-nil return is the new
	// LP→cluster assignment; LPs whose entry changed are migrated via the
	// GVT-synchronized protocol in migrate.go. Returning nil declines (e.g.
	// the imbalance is below a caller threshold). The snapshot's slices are
	// reused by the kernel and must not be retained. LPs migrate within one
	// process only: New refuses Rebalance over a transport that spans more
	// than one node. A return of the wrong length, or naming a cluster out
	// of range, fails the run (Run returns the error).
	Rebalance func(*LoadSnapshot) []int
	// PeriodRounds is the number of GVT-advancing rounds between load
	// snapshots when Rebalance is set. Default 4.
	PeriodRounds int
}

// Config parameterizes a Time Warp run.
type Config struct {
	// NumClusters is the number of simulation nodes. Each models one
	// workstation-level parallel process of the paper's setup: a goroutine
	// of this process under the in-memory transport, possibly hosted by
	// another OS process under a multi-process transport.
	NumClusters int
	// ClusterOf maps every LP (by index) to its cluster; this is the
	// partition assignment under study.
	ClusterOf []int
	// GVTPeriodEvents requests a GVT round after a cluster has executed
	// this many events since it last took part in a round. Default 4096.
	GVTPeriodEvents int
	// OptimismWindow bounds optimistic execution: a cluster does not
	// execute bundles beyond the progress floor (the minimum next work time
	// the clusters publish) + OptimismWindow virtual time units, which caps
	// how far lightly-communicating nodes drift ahead (and so how deep
	// stragglers cut). Zero leaves optimism unbounded, Time Warp's default.
	OptimismWindow Time

	// Net groups the transport selection and communication knobs.
	Net NetConfig
	// Dynamic groups the dynamic load-balancing knobs.
	Dynamic DynamicConfig
}

// Validate checks the explicitly set fields of the configuration. Zero
// values that have a default (GVTPeriodEvents, InboxSize, PeriodRounds) are
// not errors; New fills them in. The
// ClusterOf length is checked against the handler count by New, which knows
// it; Validate checks each entry's range. Errors wrap the sentinel Err*
// values above.
func (cfg *Config) Validate() error {
	if cfg.NumClusters < 1 {
		return fmt.Errorf("%w, got %d", ErrBadClusters, cfg.NumClusters)
	}
	for lp, c := range cfg.ClusterOf {
		if c < 0 || c >= cfg.NumClusters {
			return fmt.Errorf("%w: LP %d assigned to cluster %d, want [0,%d)", ErrBadAssignment, lp, c, cfg.NumClusters)
		}
	}
	return nil
}

// setDefaults validates cfg against the LP count and fills in defaults.
func (cfg *Config) setDefaults(numLPs int) error {
	if len(cfg.ClusterOf) != numLPs {
		return fmt.Errorf("%w: ClusterOf covers %d LPs, have %d", ErrBadAssignment, len(cfg.ClusterOf), numLPs)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.GVTPeriodEvents <= 0 {
		cfg.GVTPeriodEvents = 4096
	}
	if cfg.Net.InboxSize <= 0 {
		cfg.Net.InboxSize = 8192
	}
	if cfg.Dynamic.PeriodRounds <= 0 {
		cfg.Dynamic.PeriodRounds = 4
	}
	return nil
}

// Package timewarp is an optimistic parallel discrete event simulation
// kernel implementing the Time Warp mechanism (Jefferson's virtual time). It
// is the in-process equivalent of the WARPED kernel used by the paper:
// logical processes (LPs) are grouped into clusters, one goroutine per
// cluster models one workstation-level simulation process, and clusters
// exchange timestamped event messages. Each cluster keeps one history log
// for all its LPs, in execution order: a record per processed bundle,
// linked to the same LP's previous record, indexing the bundle's input
// events, sends and saved state in three cluster-wide logs (cluster.go). A
// straggler rolls the LP back along its chain of records, and every send
// the rolled-back bundles made becomes an anti-message at once (aggressive
// cancellation).
//
// Inter-cluster transport is batched: a cluster accumulates remote events in
// per-destination outboxes and flushes each as one batch into the
// destination's double-buffered, mutex-swapped mailbox, so the per-event
// remote cost is an append and a copy rather than a channel operation plus
// atomic bookkeeping. An adaptive flush policy (size threshold, urgency
// against the destination's published progress, idle flush) bounds how long
// a batch can sit; intra-cluster messages take a zero-synchronization local
// queue on the owning goroutine. See transport.go for the full policy and
// its GVT-soundness argument.
//
// The communication seam between processes is an explicit Transport: the
// kernel delivers to the clusters of its own process directly and hands the
// transport only traffic for other nodes. The default in-memory transport
// has no other node and is what a single-process run uses; NewTCPTransport
// instead splits one simulation across several OS processes. Every process
// runs the same kernel over the same configuration, hosts the contiguous
// share of clusters assigned to its node index, and exchanges
// length-prefixed binary frames (wire.go) carrying event batches and GVT
// control waves over a full mesh of TCP connections. The two-cut transit
// ledger spans the sockets unchanged: a batch counts as received only when
// its frame has been decoded into the receiver's mailbox and taken out of
// it, and the cut acks pin per-color sent counters while mirror frames
// mirror received ones, so a cut closes only after every frame under it has
// landed. See transport_api.go for the seam, ctrl.go for the control
// messages and transport_tcp.go for the mesh.
//
// Events carry, besides the int32 application value, a fixed-size wide
// Payload block (two uint64 planes) the kernel never interprets: it is how
// the bit-parallel logic simulator ships 64 scenarios per message. On the
// wire, events are size-bearing — a flag bit selects the wide frame and a
// zero payload is omitted entirely — so applications that never set a
// payload produce byte-identical traffic to the pre-payload format, and the
// codec rejects truncated or length-inconsistent wide frames like any other
// malformed frame.
//
// GVT (global virtual time) is computed by an asynchronous Mattern-style
// two-cut protocol rather than a stop-the-world barrier: every *batch* is
// stamped with its sender's round color and counted (by length) in the
// sender's cumulative per-color sent counter and, once taken out of the
// mailbox, in the receiver's received counter; a round's first wave turns
// all clusters red and waits (without stopping anyone) for the previous
// color's received counts to catch up with its sent counts, and the second
// wave collects min(local pending work —
// including events still buffered in outboxes and the local queue — and the
// minimum receive time flushed since the cut) from each cluster. GVT is the
// minimum over those reports; it bounds rollback, drives per-cluster fossil
// collection, and detects termination (GVT = infinity) — all while the
// clusters keep executing events. Control traffic (cut/report/load/wake)
// rides the same mailboxes as a bitmask immune to data backpressure. See
// Kernel in kernel.go for the full protocol walkthrough.
//
// LPs process events in timestamp bundles: all events for one LP that share
// a receive time are executed together, and a late arrival for an
// already-executed timestamp rolls the LP back to just before that
// timestamp. This matches the deterministic timestep semantics of the
// sequential oracle in internal/seqsim.
//
// The LP→cluster mapping is a versioned routing table owned by the kernel,
// not a frozen copy of the configuration: when Config.Dynamic.Rebalance is
// set, the kernel periodically snapshots each LP's observed load (an extra
// control wave on the same mailboxes) and migrates LPs between clusters at
// observed-GVT advance. Dynamic balancing runs in one process only: New
// refuses it over a transport that spans several. Migration payloads are accounted exactly like
// batches in flight, and events routed under a stale table epoch are
// forwarded by whichever cluster receives them, so the GVT protocol's
// invariants hold unchanged while the placement moves. See route.go and
// migrate.go.
package timewarp

import (
	"math"

	"repro/internal/minheap"
)

// Time is virtual (simulation) time.
type Time = int64

// TimeInfinity is the virtual time after every event.
const TimeInfinity Time = math.MaxInt64

// LPID identifies a logical process within a simulation.
type LPID int32

// NoLP is the nil LP id; it appears as the sender of kernel-internal events.
const NoLP LPID = -1

// Control kinds, posted into a cluster's mailbox as a bitmask (mailbox.ctrl)
// rather than as events: they carry no payload, they only make an idle
// cluster probe the kernel's round atomics (checkGVT) and its migration
// mailboxes (checkMigrate) promptly. Posting a control bit cannot fail on a
// full mailbox, so the GVT control plane is immune to data backpressure.
const (
	ctrlCut    uint8 = 1 << iota // wave 1: a GVT round opened; join it (turn red)
	ctrlReport                   // wave 2: the cut closed; report the local minimum
	ctrlLoad                     // load round: capture per-LP activity counters
	ctrlWake                     // plain wakeup: look at the migration mailboxes
)

// Payload is the fixed-size wide payload block of an event: two uint64
// planes the kernel never interprets. The vectored logic simulator packs the
// val/unknown planes of 64 scenarios into it (see internal/circuit.VecValue);
// other applications are free to use it as 16 opaque bytes. A zero Payload
// means "no payload": the wire codec omits it entirely (one flag bit selects
// the wide frame), so scalar-mode traffic stays byte-identical to the
// pre-payload format. Payloads live inline in events — the cluster's input
// and send logs keep them through rollback and fossil collection like any other
// field, and the transit ledger is unchanged because the unit in flight is
// still the event.
//
//kernelvet:wire
type Payload struct {
	P0 uint64
	P1 uint64
}

// Event is a timestamped message between LPs. Events are value types: the
// kernel copies them freely between queues and clusters, and the TCP
// transport moves them between processes by plain copy (wire.go) — the
// //kernelvet:wire annotation has the analyzers enforce the flatness that
// relies on. Transport metadata (GVT round color, modeled-wire deadline)
// lives on the batch, not the event — see batchHdr in transport.go.
//
//kernelvet:wire
type Event struct {
	// ID is unique among all events of a run; an anti-message carries the
	// ID of the positive message it annihilates.
	ID       uint64
	Sender   LPID
	Receiver LPID
	SendTime Time
	RecvTime Time
	// Anti marks an anti-message (annihilator).
	Anti bool
	// Kind and Value are application payload; the kernel does not
	// interpret them.
	Kind  int32
	Value int32
	// Pay is the optional wide payload block (zero when unused; see
	// Payload).
	Pay Payload
}

// eventHeap is a min-heap of events ordered by eventLess.
type eventHeap []Event

func (h *eventHeap) push(ev Event) { minheap.Push((*[]Event)(h), ev, eventLess) }

func (h *eventHeap) pop() Event { return minheap.Pop((*[]Event)(h), eventLess) }

// eventLess orders events by receive time, then sender, then ID, so bundle
// assembly is deterministic.
func eventLess(a, b *Event) bool {
	if a.RecvTime != b.RecvTime {
		return a.RecvTime < b.RecvTime
	}
	if a.Sender != b.Sender {
		return a.Sender < b.Sender
	}
	return a.ID < b.ID
}

// Package repro reproduces "Study of a Multilevel Approach to Partitioning
// for Parallel Logic Simulation" (Subramanian, Rao, Wilsey; IPPS/SPDP 2000).
//
// The implementation lives under internal/:
//
//   - internal/circuit: gate-level circuit model, ISCAS'89 .bench I/O,
//     synthetic benchmark generators (s5378/s9234/s15850 equivalents), and
//     bit-parallel gate evaluation: VecValue packs 64 independent scenarios
//     into two uint64 planes (val/unknown, so three-valued X logic
//     survives) and EvalVec evaluates any gate over all 64 lanes
//     branch-free;
//
//   - internal/partition: partitioner interface, quality metrics, the five
//     baseline algorithms (Random, Topological, DFS, Cluster, Cone), and
//     RuntimeGraph, the observed LP-communication graph the kernel measures
//     at run time (vertex weights = committed events, edge weights =
//     observed sends);
//
//   - internal/core: the paper's multilevel partitioning algorithm
//     (fanout coarsening, concurrency-preserving initial partitioning,
//     greedy k-way refinement; an FM refiner and heavy-edge/activity
//     coarsening for ablations). Graph levels are CSR arrays and the
//     refiners share one reusable scratch (stamped connectivity, FM gain
//     buckets), keeping the refinement inner loops allocation-free. The
//     same machinery backs core.Rebalance, which refines an existing
//     assignment against a RuntimeGraph with bounded churn for dynamic
//     load balancing;
//
//   - internal/timewarp: an optimistic parallel discrete event simulation
//     kernel (Time Warp) with clusters, rollback with aggressive
//     cancellation (a rolled-back bundle's sends become anti-messages at
//     once), fossil collection, a configurable LAN model, and an optimism
//     window. Each cluster goroutine runs its loop in passes
//     (cluster.step): the housekeeping once (cluster 0's GVT coordinator
//     step, the mailbox drain, the flush triggers, the GVT and migration
//     probes, the optimism-window horizon), then up to passBundles (16)
//     bundles, delivering local messages and re-checking the flush
//     triggers after each and stopping early on an empty scheduler, a
//     window stall or mail; fossil collection, the GVT request count and
//     the progress publish (stored only when it changed) follow once per
//     pass, and the loop itself (cluster.run) only waits between passes.
//     Inter-cluster transport is batched: per-destination outboxes flush
//     whole batches into double-buffered, mutex-swapped mailboxes under an
//     adaptive policy (size threshold, urgency against the destination's
//     published progress, idle flush), so the per-event remote cost is an
//     append and a copy, and intra-cluster messages take a
//     zero-synchronization local queue. GVT is an asynchronous
//     Mattern-style two-cut protocol — batches carry their sender's round
//     color and are counted by length in one per-cluster, per-color
//     transit ledger (cumulative sent and received counts) that every
//     transport shares, a cut that stops draining fails the run with that
//     ledger instead of hanging, unflushed buffers are folded into their
//     owner's GVT report, and control bits ride the mailboxes immune to
//     data backpressure — so clusters never stop executing for a GVT
//     round. A panic on a cluster goroutine comes back from Run as an
//     error naming the cluster. The LP→cluster mapping is a versioned
//     routing table the kernel rewrites mid-run: dynamic rebalancing, in
//     one process only, snapshots per-LP load (EWMA-smoothed across
//     rounds) in an extra control wave and migrates LPs by pointer at
//     observed-GVT advance, with stale-route forwarding and batch-like
//     transit accounting of the migration payload keeping every cut
//     sound. Every control message has one decoder and one effect in the
//     kernel, which delivers to its own clusters directly; the pluggable
//     Transport is only the pipe to other nodes. The in-memory default
//     has none, while NewTCPTransport runs one simulation as N OS
//     processes exchanging length-prefixed binary frames (events and GVT
//     waves) over a loopback-or-LAN mesh, with the same ledger held across
//     the sockets (acks pin sent counts, mirror frames carry received
//     ones). Events carry an opaque fixed-size wide payload block (two uint64 planes; on the
//     wire flag-selected and omitted when zero, so payload-free traffic is
//     byte-identical to the pre-payload format) that the vectored logic
//     simulator fills with 64 packed scenarios per message. Event queues
//     use non-boxing heaps, scheduler pushes are deduplicated per LP, and
//     each cluster keeps the history of all its LPs in one append-only
//     log in execution order: a record per bundle (LP id, time, a link to
//     the same LP's previous live record, offsets into three flat logs of
//     input events with payloads inline, sends and saved states, a dead
//     flag). Rollback walks one LP's chain of records and marks them
//     dead; fossil collection advances one head pointer over dead records
//     and live ones below GVT, stopping at the first live record at or
//     after it, touches no LP and compacts by copy-down; migration carries
//     an LP's uncommitted records to the tail of its new home's log.
//
//     Failure semantics of the TCP mesh: connections open with a versioned
//     hello (magic, wire-protocol version, topology counts, and an FNV-1a
//     digest of every determinism-affecting configuration knob) — skewed
//     builds or diverging configs are rejected on both sides as
//     ErrProtoMismatch/ErrConfigMismatch naming both values, the acceptor
//     answering with an abort frame so the dialer learns the reason. At
//     run time idle lanes carry heartbeats and every read is
//     deadline-bounded, so a peer silent past PeerTimeout is declared
//     dead; a node turning fatal broadcasts an abort frame (origin +
//     reason) that survivors relay, so every process exits within the
//     detection bound with an error wrapping ErrPeerDown and naming the
//     node at fault — never a hung end-of-run exchange. Dials retry under
//     jittered backoff inside DialTimeout and the accept window is
//     equally bounded. cmd/parsim maps the classes to exit codes
//     (0 success, 2 handshake rejection, 3 peer failure, 1 other) and a
//     deterministic FaultPlan (seeded, frame-indexed drops, truncations,
//     corruptions, stalls, refused dials) drives the chaos matrix that
//     proves transient faults complete bit-identical to the oracle and
//     permanent ones fail every node loudly;
//
//   - internal/analyzers: the kernel-invariant analyzer suite behind
//     cmd/kernelvet — a self-contained go/analysis-style framework
//     (go list loader, call graph, annotation parser, analysistest
//     harness) and six analyzers driven by the //kernelvet: vocabulary:
//     atomics
//     (fields accessed via sync/atomic anywhere must be atomic
//     everywhere), ownership (//kernelvet:owner fields only touched from
//     their //kernelvet:goroutine domain's call tree), determinism
//     (//kernelvet:deterministic call trees free of wall clocks, global
//     rand, map iteration, select, and goroutine spawns), noalloc
//     (//kernelvet:noalloc functions cross-checked against the
//     compiler's escape analysis, plus appends to fresh slices, which
//     allocate without an escape message), directives (the vocabulary
//     itself: placement, arity, reason-bearing allows), and wiresafe
//     (//kernelvet:wire types stay flat, which is what lets the TCP
//     transport encode them field by field). Mutex-guarded fields carry a
//     plain "guarded by mu" comment; `go test -race` is their check. CI
//     runs `go run ./cmd/kernelvet ./...` (with -json and a GitHub
//     problem matcher available), and cmd/kernelvet's
//     TestRepositoryIsKernelvetClean runs the same analyzer list under
//     `go test ./...`;
//
//   - internal/smoketest: the `go build && run` harness behind the cmd/
//     and examples/ entry-point smoke tests;
//
//   - internal/seqsim: the sequential event-driven simulator used as the
//     baseline and correctness oracle: one simulator generic over the value
//     type, run scalar (Run, the one-lane case) or vectored (RunVec, 64
//     lanes per run); its Lanes table is all the two modes do differently;
//
//   - internal/logicsim: gate-level logic simulation on the Time Warp
//     kernel, with one gate LP generic over the value type. Config.Vectors
//     instantiates it on packed values — signal events carry the planes in
//     the kernel's wide payload block, one committed event advances 64
//     scenarios, and lane s is bit-identical to a scalar run with
//     StimulusSeed+s (rollbacks, in-process migration and TCP transport
//     included);
//
//   - internal/experiments: harnesses regenerating every table and figure
//     of the paper's evaluation.
//
// cmd/experiments regenerates the paper's Tables 1-2 and Figures 4-6 plus
// the supporting linearity, quality, and ablation studies. The benchmark of
// record is bench/ (bash bench/run.sh): oracle-verified workloads on the
// real kernel, compared against a parent commit. hotpaths_bench_test.go
// guards the allocation behavior of the refinement, oracle and rollback
// inner loops and the cost of the remote-message path.
package repro

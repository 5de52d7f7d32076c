package timewarp

// Transport is the pipe between this process and the other nodes of a
// multi-process run. The kernel keeps every cross-cluster effect to itself:
// it delivers batches and control messages to the clusters of this process
// directly (kernel.push, kernel.sendCtrl), and hands the transport only
// traffic for a cluster on another node — an event batch, or a control
// message already encoded as its frame (ctrl.go, wire.go). A transport never
// interprets control traffic; its receive side hands control frames back to
// the kernel (decodeCtrl, applyCtrl). What remains a transport's own is the
// fabric's lifecycle, the node topology, the mirror of local clusters'
// progress and received counters, and the init-quiescence probe. The GVT
// transit ledger (cluster.sentCum/recvCum, Kernel.cutSent) is the kernel's,
// the same for every transport: a transport only carries a remote cluster's
// received counters into its shell on this node. Two implementations exist:
//
//   - memTransport (the default): one process, every cluster local, so push,
//     ctrl and publish are never needed.
//   - TCPTransport: the clusters are partitioned over N OS processes
//     ("nodes") connected by a TCP mesh; frames travel on one FIFO lane per
//     peer.
//
// The interface is deliberately unexported-method-only: a transport is
// trusted kernel code (it feeds GVT accounting), so implementations live in
// this package and external callers only select one via
// NetConfig.Transport.
//
// Ownership note for every implementation: push, ctrl, publish and abort are
// called from cluster goroutines (ctrl also from the coordinator, push and
// publish also from Run's goroutine during initialization); bind from New;
// start/initQuiet/finishRun only from Run's goroutine.
//
// Failure semantics: a transport must never hang the kernel on a dead peer.
// start fails (rather than blocks) when the fabric cannot be completed
// within its window; a mid-run fatal — peer death, corrupt frame, received
// abort, a local cluster's fault (abort) — sets the kernel's done flag so
// every cluster loop exits, and finishRun returns the first fatal error,
// wrapping ErrPeerDown / ErrProtoMismatch / ErrConfigMismatch and naming the
// peer at fault. See TCPTransport for the concrete handshake/heartbeat/abort
// protocol.
type Transport interface {
	// bind attaches the transport to its kernel. New calls it exactly once,
	// before any other method.
	bind(k *Kernel) error
	// start opens the fabric (connections, receive goroutines). Run calls
	// it before handler initialization so init-time sends can flow.
	start() error
	// finishRun runs after every local cluster exited: a multi-process
	// transport exchanges FIN markers so all in-flight frames are applied
	// before Run commits final state, the same exchange GatherSum makes
	// afterwards. It returns the first fatal transport error, if any.
	finishRun() error

	// nodes returns the number of cooperating OS processes.
	nodes() int
	// localCluster reports whether cluster id runs in this process.
	localCluster(id int) bool

	// push sends one flushed batch toward remote cluster dst. False means
	// backpressure: the batch stays in the sender's outbox and is retried
	// (flushDst's contract).
	push(dst int, events []Event, hdr batchHdr) bool
	// ctrl sends one encoded control frame toward remote cluster dst's
	// node, or to every other node when dst is otherNodes. It never refuses:
	// control traffic is immune to data backpressure.
	ctrl(dst int, frame []byte)
	// publish mirrors every local cluster's next work time (already
	// recorded by the kernel) and cumulative received counters to the other
	// nodes. Kernel.publish calls it only when some of them changed.
	publish()

	// initQuiet reports whether initialization traffic has settled: all
	// init-time sends have left this process's buffers (the in-memory
	// transport can additionally see that they were delivered).
	initQuiet() bool
	// abort tears the fabric down after a local cluster faulted (Run
	// returns err), so the other nodes stop instead of waiting on this one.
	abort(err error)
}

// memTransport is the in-memory fabric: one process, every cluster a
// goroutine, and the kernel's own mailboxes and ledger.
type memTransport struct {
	k *Kernel
}

func (t *memTransport) bind(k *Kernel) error  { t.k = k; return nil }
func (t *memTransport) start() error          { return nil }
func (t *memTransport) finishRun() error      { return nil }
func (t *memTransport) nodes() int            { return 1 }
func (t *memTransport) localCluster(int) bool { return true }

// Every cluster is local, so the kernel never sends anything through here.
func (t *memTransport) push(int, []Event, batchHdr) bool {
	panic("timewarp: in-memory transport asked to push to a remote cluster")
}
func (t *memTransport) ctrl(int, []byte) {
	panic("timewarp: in-memory transport asked to send to a remote node")
}
func (t *memTransport) publish()    {}
func (t *memTransport) abort(error) {}

// initQuiet: initialization is quiescent when the ledger balances — every
// flushed init batch has been drained into an LP queue.
func (t *memTransport) initQuiet() bool {
	return t.k.inTransit() == 0
}

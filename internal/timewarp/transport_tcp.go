package timewarp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// TCPTransport partitions a kernel's clusters over N OS processes ("nodes")
// connected by a full TCP mesh, one simulation spanning them all.
//
// Every node runs the same New(cfg, handlers) with the same configuration —
// the kernel is replicated, but only the clusters mapped to this node (a
// contiguous block: cluster c lives on node c*N/NumClusters) get goroutines
// and own their LPs. The kernel sends this transport only traffic for
// clusters on other nodes: event batches, and control messages it already
// encoded (ctrl.go), which the receiving node hands back to its kernel
// (decodeCtrl, applyCtrl). The transport itself mirrors each local
// cluster's published progress and cumulative received counters into the
// other nodes' shells of that cluster, the received side of the kernel's
// wave-1 drain — see cluster.sentCum for the soundness argument.
//
// Per peer there is one connection and one outbound lane: a byte buffer of
// already-encoded frames under a mutex, drained by a writer goroutine
// (double-buffer swap, like the kernel's mailboxes). Keeping data and control
// in one FIFO preserves the ordering the protocol relies on — an ackCut
// precedes any red flush's counter effects — while backpressure applies only
// to event batches: control frames always append, data frames are refused
// (flushDst retries) once more than InboxSize events are queued and the lane
// is non-empty.
//
// Failure semantics (the paper's cluster-of-workstations case, where links
// stall and processes die): every connection opens with a versioned,
// config-digesting handshake — mismatched builds or configurations are
// rejected at connect time (ErrProtoMismatch, ErrConfigMismatch), never
// discovered as diverged results. Mid-run, idle lanes carry heartbeats
// (HeartbeatEvery) and every read has a deadline (PeerTimeout), so a killed
// or wedged peer is detected within PeerTimeout; any fatal error broadcasts
// a frameAbort naming the origin and reason, so the whole mesh tears down
// within one detection bound and every node's Run returns an error wrapping
// ErrPeerDown that names the peer at fault — the end-of-run exchanges can
// never hang on a dead peer.
type TCPTransport struct {
	opt TCPOptions
	k   *Kernel

	nodeOf []int // cluster id -> hosting node
	ln     net.Listener
	peers  []*tcpPeer // by node id; peers[opt.Node] == nil

	closing  int32
	started  bool
	finished int32        // set once finishRun completed cleanly (atomic)
	err      atomic.Value // first fatal error (type error)
	errOnce  sync.Once

	closeOnce sync.Once

	readWG  sync.WaitGroup
	writeWG sync.WaitGroup

	// The end-of-run exchanges (see exchange): got[x][j] is node j's part
	// of exchange x, nil until its frame was applied.
	xMu   sync.Mutex
	xCond *sync.Cond
	got   [2][][]uint64 // guarded by xMu
}

// The end-of-run exchanges, in the order a run makes them. A node's FIN is
// its last frame of the run proper, so once it is applied every earlier
// frame from that node is too; it carries no values. A sum frame carries
// the node's GatherSum contribution.
const (
	xFin = iota
	xSum
)

var xName = [2]string{"FIN", "GatherSum contribution"}

// exchangeFuse bounds an end-of-run exchange's wait for a peer that is
// alive (heartbeating) but never sends its part. Tests shorten it.
var exchangeFuse = 30 * time.Second

// TCPOptions configure NewTCPTransport.
type TCPOptions struct {
	// Node is this process's index into Peers.
	Node int
	// Peers lists every node's listen address (host:port), index = node id.
	// All processes must pass identical lists.
	Peers []string
	// Listener optionally supplies the pre-bound listener for Peers[Node]
	// (tests bind port 0 first to learn free ports); nil listens on
	// Peers[Node].
	Listener net.Listener
	// DialTimeout bounds how long start retries dialing each lower-numbered
	// peer (their listeners may not be up yet) and, mirrored on the accept
	// side, how long this node waits for every higher-numbered peer to dial
	// in. A peer that misses the window fails the run loudly (ErrPeerDown)
	// instead of wedging start. Default 10s.
	DialTimeout time.Duration
	// HeartbeatEvery is the idle-lane heartbeat interval: a writer that has
	// sent nothing for this long emits a one-byte heartbeat frame so the
	// peer's failure detector sees a live connection even when the
	// simulation is quiet. Default 1s; negative disables heartbeats (and
	// with them PeerTimeout must be disabled too).
	HeartbeatEvery time.Duration
	// PeerTimeout is the failure-detection bound: a connection that
	// delivers no frame (heartbeats included) for this long is declared
	// dead and the whole run aborts, every node returning an error naming
	// the silent peer. Must be at least twice HeartbeatEvery. Default
	// 5×HeartbeatEvery; negative disables detection.
	PeerTimeout time.Duration
	// ConfigTag is an application-level fingerprint of everything beyond
	// the kernel's own knobs that must agree across nodes for a
	// deterministic run (stimulus seed, circuit identity, vector mode, …).
	// It is folded into the handshake config digest, so mismatched tags are
	// rejected at connect time with ErrConfigMismatch.
	ConfigTag uint64
	// Fault optionally scripts deterministic fault injection under this
	// node's outbound traffic (chaos testing; see FaultPlan). Nil injects
	// nothing.
	Fault *FaultPlan
	// MeshUp, when set, is called once every handshake has completed and
	// the lanes are running, before this node's handlers send their first
	// event.
	MeshUp func()
}

// tcpPeer is one mesh connection plus its outbound lane.
type tcpPeer struct {
	node int
	conn net.Conn
	br   *bufio.Reader // handed from the handshake to the read goroutine

	mu sync.Mutex
	// buf holds encoded frames awaiting the writer (the single FIFO lane);
	// scratch is the drained buffer handed back at the next swap.
	buf        []byte // guarded by mu
	scratch    []byte // guarded by mu
	dataEvents int    // guarded by mu
	// writing is 1 while the writer goroutine holds swapped-out frames it
	// has not flushed yet (see drained).
	writing int32
	// pubDirty asks the writer to append fresh mirror frames on its next
	// cycle (conflated: many marks, one frame per local cluster).
	pubDirty int32
	wake     chan struct{} // cap 1
	// pubBuf is the writer-owned scratch for conflated mirror frames.
	pubBuf []byte
	// evs is the reader-owned decode buffer for event batches; the mailbox
	// copies what it accepts, so one buffer serves every batch.
	evs []Event
}

func (p *tcpPeer) wakeWriter() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// handOff wakes the writer after frames were appended to the lane. On the
// lane's empty→pending transition it also yields the processor once: when
// every cluster goroutine is runnable, the woken writer would otherwise sit
// in this goroutine's run queue until the scheduler preempts the caller
// (milliseconds), and the batch would reach its peer late enough to cause
// rollbacks there. A lane that already held frames has a writer on its way.
func (p *tcpPeer) handOff(wasEmpty bool) {
	p.wakeWriter()
	if wasEmpty {
		runtime.Gosched()
	}
}

// drained reports whether the lane is empty and the writer holds no frames
// it has not flushed yet.
func (p *tcpPeer) drained() bool {
	p.mu.Lock()
	pending := len(p.buf) > 0
	p.mu.Unlock()
	return !pending && atomic.LoadInt32(&p.writing) == 0
}

// enqueue appends a pre-encoded control frame to the outbound lane. It never
// refuses: backpressure applies only to event batches, which push encodes
// into the lane in place.
func (p *tcpPeer) enqueue(frame []byte) {
	p.mu.Lock()
	wasEmpty := len(p.buf) == 0
	p.buf = append(p.buf, frame...)
	p.mu.Unlock()
	p.handOff(wasEmpty)
}

// NewTCPTransport builds the multi-process fabric. Pass it via
// timewarp.Config.Net.Transport (or logicsim.Config.Transport); the kernel
// binds and starts it. After Run returns, use GatherSum for cross-node
// reductions, then Close.
func NewTCPTransport(opt TCPOptions) (*TCPTransport, error) {
	if len(opt.Peers) == 0 {
		return nil, fmt.Errorf("%w: no peers", ErrBadTransport)
	}
	if opt.Node < 0 || opt.Node >= len(opt.Peers) {
		return nil, fmt.Errorf("%w: node %d of %d peers", ErrBadTransport, opt.Node, len(opt.Peers))
	}
	if opt.DialTimeout <= 0 {
		opt.DialTimeout = 10 * time.Second
	}
	if opt.HeartbeatEvery == 0 {
		opt.HeartbeatEvery = time.Second
	}
	if opt.HeartbeatEvery < 0 {
		opt.HeartbeatEvery = 0
	}
	if opt.PeerTimeout == 0 {
		opt.PeerTimeout = 5 * opt.HeartbeatEvery
	}
	if opt.PeerTimeout < 0 {
		opt.PeerTimeout = 0
	}
	if opt.PeerTimeout > 0 && opt.HeartbeatEvery == 0 {
		return nil, fmt.Errorf("%w: PeerTimeout %v with heartbeats disabled would kill every idle healthy link", ErrBadTransport, opt.PeerTimeout)
	}
	if opt.PeerTimeout > 0 && opt.PeerTimeout < 2*opt.HeartbeatEvery {
		return nil, fmt.Errorf("%w: PeerTimeout %v below twice HeartbeatEvery %v", ErrBadTransport, opt.PeerTimeout, opt.HeartbeatEvery)
	}
	t := &TCPTransport{opt: opt, ln: opt.Listener}
	t.xCond = sync.NewCond(&t.xMu)
	return t, nil
}

func (t *TCPTransport) bind(k *Kernel) error {
	if t.k != nil {
		return fmt.Errorf("%w: transport already bound to a kernel", ErrBadTransport)
	}
	n := len(t.opt.Peers)
	if n > k.cfg.NumClusters {
		return fmt.Errorf("%w: %d nodes need at least %d clusters, have %d", ErrBadTransport, n, n, k.cfg.NumClusters)
	}
	t.k = k
	t.nodeOf = make([]int, k.cfg.NumClusters)
	for c := range t.nodeOf {
		t.nodeOf[c] = c * n / k.cfg.NumClusters
	}
	for x := range t.got {
		t.got[x] = make([][]uint64, n)
	}
	t.peers = make([]*tcpPeer, n)
	return nil
}

func (t *TCPTransport) nodes() int { return len(t.opt.Peers) }

func (t *TCPTransport) localCluster(id int) bool { return t.nodeOf[id] == t.opt.Node }

// --- Handshake ---
//
// Every connection opens with a two-way versioned hello (wireHello): the
// dialer sends its hello under a write deadline, the acceptor validates it
// and replies with its own, and both sides reject any disagreement — wrong
// magic or protocol version (ErrProtoMismatch), different mesh topology or
// config digest (ErrConfigMismatch) — naming both sides' values. A rejecting
// acceptor sends a frameAbort before closing so the dialer learns *why*
// instead of retrying a hopeless handshake. Handshake failures split into
// permanent (mismatch, duplicate or out-of-range node id: fail the run now)
// and transient (truncation, timeouts, stray non-hello connections: the
// acceptor keeps accepting, the dialer backs off and retries inside
// DialTimeout).

// abortError is a mesh abort as an error: who originally failed, a code
// mapping back to a sentinel, and the originator's reason text. It is built
// both from a received frameAbort and when relaying one, so blame propagates
// unchanged across the mesh.
type abortError struct {
	origin int
	code   uint8
	reason string
}

func (e *abortError) Error() string {
	return fmt.Sprintf("run aborted by node %d: %s", e.origin, e.reason)
}

func (e *abortError) Unwrap() error {
	switch e.code {
	case abortCodeProto:
		return ErrProtoMismatch
	case abortCodeConfig:
		return ErrConfigMismatch
	default:
		return ErrPeerDown
	}
}

// FNV-1a, used for the handshake config digest.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// configDigest fingerprints every config knob that affects the distributed
// run's event ordering or wire traffic. Two nodes whose digests differ would
// silently diverge (or misparse each other's frames), so the handshake
// rejects them up front. The digest deliberately folds in TCPOptions.ConfigTag
// so applications can extend it with their own determinism-relevant inputs.
func (t *TCPTransport) configDigest() uint64 {
	h := uint64(fnvOffset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= fnvPrime64
		}
	}
	cfg := &t.k.cfg
	mix(uint64(len(t.opt.Peers)))
	mix(uint64(cfg.NumClusters))
	mix(uint64(len(t.k.lps)))
	mix(uint64(cfg.GVTPeriodEvents))
	mix(uint64(cfg.OptimismWindow))
	mix(uint64(cfg.Net.InboxSize))
	mix(uint64(cfg.Net.SendBusy))
	mix(uint64(cfg.Net.RecvBusy))
	mix(uint64(cfg.Net.Latency))
	mix(t.opt.ConfigTag)
	return h
}

// helloLocal is this node's side of the handshake.
func (t *TCPTransport) helloLocal() wireHello {
	return wireHello{
		magic:    helloMagic,
		proto:    protoVersion,
		node:     int32(t.opt.Node),
		nodes:    int32(len(t.opt.Peers)),
		clusters: int32(t.k.cfg.NumClusters),
		lps:      int32(len(t.k.lps)),
		digest:   t.configDigest(),
	}
}

// parseHello decodes a peer's hello body and validates it against ours,
// naming both sides' values in the error. A well-formed frameHello with the
// wrong body size is a peer from before (or after) this handshake format —
// a version problem, not a stray connection.
func parseHello(body []byte, local wireHello) (wireHello, error) {
	r := wireReader{b: body}
	h := r.hello()
	switch {
	case r.done() != nil:
		return h, fmt.Errorf("%w: hello body %d bytes, want %d (mismatched peer build?)", ErrProtoMismatch, len(body), wireHelloSize)
	case h.magic != local.magic:
		return h, fmt.Errorf("%w: magic %#x, want %#x (not a timewarp mesh peer?)", ErrProtoMismatch, h.magic, local.magic)
	case h.proto != local.proto:
		return h, fmt.Errorf("%w: peer speaks wire protocol v%d, this node v%d", ErrProtoMismatch, h.proto, local.proto)
	case h.nodes != local.nodes:
		return h, fmt.Errorf("%w: peer meshes %d nodes, this node %d", ErrConfigMismatch, h.nodes, local.nodes)
	case h.clusters != local.clusters:
		return h, fmt.Errorf("%w: peer runs %d clusters, this node %d", ErrConfigMismatch, h.clusters, local.clusters)
	case h.lps != local.lps:
		return h, fmt.Errorf("%w: peer hosts %d LPs, this node %d", ErrConfigMismatch, h.lps, local.lps)
	case h.digest != local.digest:
		return h, fmt.Errorf("%w: config digest %#x vs %#x (determinism-affecting knobs, seeds, or workloads differ)", ErrConfigMismatch, h.digest, local.digest)
	}
	return h, nil
}

// parseAbort decodes a frameAbort body into the abort it reports.
func parseAbort(body []byte) (*abortError, error) {
	r := wireReader{b: body}
	hdr := r.abortHdr()
	reason := r.bytes(int(hdr.reasonLen))
	if err := r.done(); err != nil {
		return nil, err
	}
	return &abortError{origin: int(hdr.origin), code: hdr.code, reason: string(reason)}, nil
}

// permanentHandshake reports whether a handshake failure should fail the run
// immediately (as opposed to the retry/keep-accepting transient path).
func permanentHandshake(err error) bool {
	return errors.Is(err, ErrProtoMismatch) || errors.Is(err, ErrConfigMismatch) || errors.Is(err, ErrPeerDown)
}

// abortFrame encodes err as this node's abort frame. A relayed abort keeps
// its originator and code, so every node ends up blaming the root cause,
// not its messenger; any other error is this node's own, classified by the
// sentinel it wraps.
func (t *TCPTransport) abortFrame(err error) []byte {
	origin, code := int32(t.opt.Node), abortCodeFatal
	var ae *abortError
	switch {
	case errors.As(err, &ae):
		origin, code = int32(ae.origin), ae.code
	case errors.Is(err, ErrProtoMismatch):
		code = abortCodeProto
	case errors.Is(err, ErrConfigMismatch):
		code = abortCodeConfig
	}
	return appendAbort(nil, origin, code, err.Error())
}

// newPeer builds the per-connection state once a handshake succeeded,
// interposing the fault plan (if any) on the outbound side. The reader keeps
// the raw connection: faults are scripted on what this node sends.
func (t *TCPTransport) newPeer(node int, conn net.Conn, br *bufio.Reader) *tcpPeer {
	return &tcpPeer{node: node, conn: t.opt.Fault.wrap(conn, node), br: br, wake: make(chan struct{}, 1)}
}

// acceptHandshake runs the accept side of the hello exchange on one inbound
// connection. seen guards against duplicate node ids across connections.
func (t *TCPTransport) acceptHandshake(conn net.Conn, local wireHello, seen []bool) (*tcpPeer, error) {
	conn.SetDeadline(time.Now().Add(t.opt.DialTimeout))
	br := bufio.NewReaderSize(conn, 64<<10)
	typ, body, _, err := readFrame(br, nil)
	if err != nil {
		return nil, fmt.Errorf("reading hello: %w", err) // transient: stray or broken conn
	}
	if typ != frameHello {
		return nil, fmt.Errorf("first frame type %d, want hello", typ) // transient: stray
	}
	h, err := parseHello(body, local)
	from := int(h.node)
	if err == nil && (from <= t.opt.Node || from >= len(t.opt.Peers) || seen[from]) {
		err = fmt.Errorf("%w: hello names node %d (acceptor is node %d of %d, duplicate=%v)",
			ErrConfigMismatch, from, t.opt.Node, len(t.opt.Peers), from >= 0 && from < len(seen) && seen[from])
	}
	if err != nil {
		// Best effort: tell the rejected dialer why, so it fails with the
		// real mismatch instead of a bare connection reset.
		conn.SetWriteDeadline(time.Now().Add(time.Second))
		conn.Write(t.abortFrame(err))
		return nil, err
	}
	// Reply with our own hello so the dialer validates symmetrically.
	if _, err := conn.Write(appendHello(nil, local)); err != nil {
		return nil, fmt.Errorf("hello reply: %w", err) // transient: the dialer gave up
	}
	conn.SetDeadline(time.Time{})
	seen[from] = true
	return t.newPeer(from, conn, br), nil
}

// dialHandshake runs the dial side of the hello exchange: send ours, read
// either the acceptor's hello (validate symmetrically) or its abort frame
// (surface the acceptor's reason).
func (t *TCPTransport) dialHandshake(conn net.Conn, j int, local wireHello) (*tcpPeer, error) {
	conn.SetDeadline(time.Now().Add(t.opt.DialTimeout))
	if _, err := conn.Write(appendHello(nil, local)); err != nil {
		return nil, fmt.Errorf("sending hello: %w", err) // transient
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	typ, body, _, err := readFrame(br, nil)
	if err != nil {
		return nil, fmt.Errorf("reading hello reply: %w", err) // transient: acceptor not ready
	}
	switch typ {
	case frameAbort:
		ae, err := parseAbort(body)
		if err != nil {
			return nil, fmt.Errorf("malformed abort reply: %w", err) // transient
		}
		return nil, ae
	case frameHello:
		h, err := parseHello(body, local)
		if err != nil {
			return nil, err
		}
		if int(h.node) != j {
			return nil, fmt.Errorf("%w: dialed node %d, answered by node %d (peer address lists differ?)", ErrConfigMismatch, j, h.node)
		}
	default:
		return nil, fmt.Errorf("first reply frame type %d, want hello", typ) // transient
	}
	conn.SetDeadline(time.Time{})
	return t.newPeer(j, conn, br), nil
}

// dialPeer dials one lower-numbered peer with jittered exponential backoff
// under DialTimeout, running the handshake on every established connection.
// Exactly one result is sent on out.
func (t *TCPTransport) dialPeer(j int, local wireHello, out chan<- *tcpPeer, errs chan<- error) {
	deadline := time.Now().Add(t.opt.DialTimeout)
	// Seeded per (node, peer) pair: the retry pattern is reproducible, and
	// the jitter still decorrelates distinct dialers hammering one listener.
	rng := rand.New(rand.NewSource(int64(t.opt.Node)<<16 ^ int64(j)))
	backoff := 25 * time.Millisecond
	for {
		var conn net.Conn
		var err error
		if t.opt.Fault.dialRefused(time.Now()) {
			err = errors.New("faultplan: dial refused")
		} else {
			conn, err = net.DialTimeout("tcp", t.opt.Peers[j], time.Second)
		}
		if err == nil {
			var p *tcpPeer
			p, err = t.dialHandshake(conn, j, local)
			if err == nil {
				out <- p
				return
			}
			conn.Close()
			if permanentHandshake(err) {
				errs <- fmt.Errorf("timewarp: node %d dial node %d (%s): %w", t.opt.Node, j, t.opt.Peers[j], err)
				return
			}
		}
		if !time.Now().Before(deadline) {
			errs <- fmt.Errorf("timewarp: node %d dial node %d (%s): %w within %v: %v",
				t.opt.Node, j, t.opt.Peers[j], ErrPeerDown, t.opt.DialTimeout, err)
			return
		}
		time.Sleep(backoff + time.Duration(rng.Int63n(int64(backoff))))
		if backoff < 400*time.Millisecond {
			backoff *= 2
		}
	}
}

// start opens the mesh: every node listens, dials every lower-numbered peer
// (jittered backoff — the peer's process may still be starting), accepts
// from every higher-numbered one, and versions/validates each connection
// with the two-way hello exchange. Returns once all n-1 connections are up,
// or with an error when any handshake fails permanently or the DialTimeout
// window closes with the mesh incomplete — a peer that never shows up fails
// the run, it cannot wedge it.
func (t *TCPTransport) start() error {
	t.started = true
	n := len(t.opt.Peers)
	if n == 1 {
		return nil
	}
	t.opt.Fault.arm(time.Now())
	if t.ln == nil {
		ln, err := net.Listen("tcp", t.opt.Peers[t.opt.Node])
		if err != nil {
			return fmt.Errorf("timewarp: node %d listen: %w", t.opt.Node, err)
		}
		t.ln = ln
	}
	local := t.helloLocal()

	// Accept from every higher-numbered peer. The listener deadline is
	// absolute — strays cannot extend the window — and transient handshake
	// failures (strays, truncated hellos) do not count toward expect.
	expect := n - 1 - t.opt.Node
	type acceptResult struct {
		peers []*tcpPeer
		err   error
	}
	acceptCh := make(chan acceptResult, 1)
	go func() {
		var got []*tcpPeer
		if expect == 0 {
			acceptCh <- acceptResult{}
			return
		}
		if dl, ok := t.ln.(interface{ SetDeadline(time.Time) error }); ok {
			dl.SetDeadline(time.Now().Add(t.opt.DialTimeout))
		}
		seen := make([]bool, n)
		for len(got) < expect {
			conn, err := t.ln.Accept()
			if err != nil {
				var nerr net.Error
				if errors.As(err, &nerr) && nerr.Timeout() {
					err = fmt.Errorf("timewarp: node %d: %w: only %d of %d higher-numbered peers dialed in within %v",
						t.opt.Node, ErrPeerDown, len(got), expect, t.opt.DialTimeout)
				} else {
					err = fmt.Errorf("timewarp: node %d accept: %w", t.opt.Node, err)
				}
				acceptCh <- acceptResult{peers: got, err: err}
				return
			}
			p, herr := t.acceptHandshake(conn, local, seen)
			if herr != nil {
				conn.Close()
				if permanentHandshake(herr) {
					acceptCh <- acceptResult{peers: got, err: fmt.Errorf("timewarp: node %d accept handshake: %w", t.opt.Node, herr)}
					return
				}
				continue // transient: keep accepting, the real peer retries
			}
			got = append(got, p)
		}
		acceptCh <- acceptResult{peers: got}
	}()

	// Dial every lower-numbered peer concurrently. Channels are buffered so
	// every goroutine can deliver its one result even if we bail early.
	dialCh := make(chan *tcpPeer, t.opt.Node)
	dialErrs := make(chan error, t.opt.Node)
	for j := 0; j < t.opt.Node; j++ {
		go t.dialPeer(j, local, dialCh, dialErrs)
	}

	var firstErr error
	for i := 0; i < t.opt.Node; i++ {
		select {
		case p := <-dialCh:
			t.peers[p.node] = p
		case err := <-dialErrs:
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	ar := <-acceptCh
	for _, p := range ar.peers {
		t.peers[p.node] = p
	}
	if ar.err != nil && firstErr == nil {
		firstErr = ar.err
	}
	if firstErr != nil {
		t.Close()
		return firstErr
	}
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		t.readWG.Add(1)
		t.writeWG.Add(1)
		go t.readLoop(p)
		go t.writeLoop(p)
	}
	if t.opt.MeshUp != nil {
		t.opt.MeshUp()
	}
	return nil
}

// fatal records the first fatal transport error, broadcasts an abort frame
// so the rest of the mesh tears down too, and unsticks everything local: the
// kernel's done flag ends cluster loops, the broadcast ends exchange waits.
func (t *TCPTransport) fatal(err error) {
	t.errOnce.Do(func() {
		t.err.Store(err)
		// This node's dying breath, best-effort: the writers run until Close.
		if atomic.LoadInt32(&t.closing) == 0 {
			t.enqueueAll(t.abortFrame(err))
		}
		atomic.StoreInt32(&t.k.done, 1)
		for _, c := range t.k.local {
			c.mail.wake()
		}
		t.xMu.Lock()
		t.xCond.Broadcast()
		t.xMu.Unlock()
	})
}

// abort is a local cluster's fault, handled like any other fatal error.
func (t *TCPTransport) abort(err error) { t.fatal(err) }

// enqueueAll appends frame to every peer's lane.
func (t *TCPTransport) enqueueAll(frame []byte) {
	for _, p := range t.peers {
		if p != nil {
			p.enqueue(frame)
		}
	}
}

// peerFail builds the loud per-peer failure error every surviving node
// returns: it wraps ErrPeerDown and names the failed peer.
func (t *TCPTransport) peerFail(node int, format string, args ...interface{}) error {
	return fmt.Errorf("timewarp: node %d: %w: node %d %s", t.opt.Node, ErrPeerDown, node, fmt.Sprintf(format, args...))
}

func (t *TCPTransport) fatalErr() error {
	if e := t.err.Load(); e != nil {
		return e.(error)
	}
	return nil
}

// writeLoop drains one peer's outbound lane. The swap hands the writer the
// whole accumulated FIFO at once; the conflated mirror frames are appended
// (from writer-owned scratch) after the lane bytes of each cycle. When the
// lane has been idle for HeartbeatEvery, the writer emits a heartbeat frame
// instead, so the peer's failure detector always sees traffic from a live
// node.
func (t *TCPTransport) writeLoop(p *tcpPeer) {
	defer t.writeWG.Done()
	w := bufio.NewWriterSize(p.conn, 64<<10)
	hb := t.opt.HeartbeatEvery
	var hbFrame []byte
	var timerC <-chan time.Time
	if hb > 0 {
		var off int
		hbFrame, off = beginFrame(hbFrame, frameHeartbeat)
		hbFrame = endFrame(hbFrame, off)
		timerC = time.After(hb)
	}
	lastWrite := time.Now()
	for {
		heartbeat := false
		select {
		case <-p.wake:
		case now := <-timerC:
			// Re-armed on every fire (once per HeartbeatEvery per peer —
			// cold). A lane that wrote recently just sleeps out the
			// remainder; an idle one owes the peer proof of life.
			if idle := now.Sub(lastWrite); idle < hb {
				timerC = time.After(hb - idle)
				continue
			}
			timerC = time.After(hb)
			heartbeat = true
		}
		if atomic.LoadInt32(&t.closing) == 1 {
			return
		}
		// A failed write sticks in w, so each Flush reports every write
		// before it.
		wrote := false
		var err error
		for err == nil {
			p.mu.Lock()
			out := p.buf
			p.buf = p.scratch[:0]
			p.scratch = out
			p.dataEvents = 0
			if len(out) > 0 {
				atomic.StoreInt32(&p.writing, 1)
			}
			p.mu.Unlock()
			dirty := atomic.CompareAndSwapInt32(&p.pubDirty, 1, 0)
			if len(out) == 0 && !dirty {
				break
			}
			w.Write(out)
			if dirty {
				p.pubBuf = t.encodeMirrors(p.pubBuf[:0])
				w.Write(p.pubBuf)
			}
			err = w.Flush()
			wrote = true
		}
		if err == nil && heartbeat && !wrote {
			w.Write(hbFrame)
			err = w.Flush()
			wrote = true
		}
		atomic.StoreInt32(&p.writing, 0)
		if err != nil {
			t.fatal(t.peerFail(p.node, "write failed: %v", err))
			return
		}
		if wrote {
			lastWrite = time.Now()
		}
	}
}

// encodeMirrors appends one mirror frame per local cluster, with its
// freshest progress and received counters — the conflated refresh.
func (t *TCPTransport) encodeMirrors(b []byte) []byte {
	for _, c := range t.k.local {
		b = appendMirror(b, wireMirror{
			cluster: int32(c.id),
			next:    atomic.LoadInt64(&t.k.published[c.id].t),
			recv0:   atomic.LoadInt64(&c.recvCum[0].n),
			recv1:   atomic.LoadInt64(&c.recvCum[1].n),
		})
	}
	return b
}

// readLoop decodes and applies one peer's inbound frames. With PeerTimeout
// set, every read carries a deadline: the peer's writer heartbeats idle
// lanes, so a deadline expiry means the peer is dead or wedged — the
// failure detector — and the run aborts naming it. A received abort frame
// surfaces through apply as an *abortError and is adopted as-is, so the
// originator's blame propagates instead of being re-wrapped per hop.
func (t *TCPTransport) readLoop(p *tcpPeer) {
	defer t.readWG.Done()
	var scratch []byte
	for {
		if t.opt.PeerTimeout > 0 {
			p.conn.SetReadDeadline(time.Now().Add(t.opt.PeerTimeout))
		}
		typ, body, s, err := readFrame(p.br, scratch)
		scratch = s
		if err != nil {
			if atomic.LoadInt32(&t.closing) == 1 {
				return
			}
			if errors.Is(err, io.EOF) && t.arrived(xFin, p.node) {
				return // clean shutdown: the peer FINed and closed
			}
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				t.fatal(t.peerFail(p.node, "sent no frame within %v (process dead or wedged)", t.opt.PeerTimeout))
			} else {
				t.fatal(t.peerFail(p.node, "read failed: %v", err))
			}
			return
		}
		if err := t.apply(p, typ, body); err != nil {
			var ae *abortError
			if errors.As(err, &ae) {
				t.fatal(fmt.Errorf("timewarp: node %d: %w", t.opt.Node, err))
			} else {
				t.fatal(t.peerFail(p.node, "sent a bad frame (type %d): %v", typ, err))
			}
			return
		}
	}
}

// arrived reports whether node's part of exchange x was applied.
func (t *TCPTransport) arrived(x, node int) bool {
	t.xMu.Lock()
	defer t.xMu.Unlock()
	return t.got[x][node] != nil
}

// arrive records node's part of exchange x and wakes the exchange's wait.
// A node takes part in each exchange once.
func (t *TCPTransport) arrive(x, node int, vals []uint64) error {
	t.xMu.Lock()
	defer t.xMu.Unlock()
	if t.got[x][node] != nil {
		return fmt.Errorf("second %s", xName[x])
	}
	t.got[x][node] = vals
	t.xCond.Broadcast()
	return nil
}

// apply dispatches one decoded frame. It runs on the peer's read goroutine;
// everything it touches is either an atomic mirror, a mutex-protected queue,
// or the mailbox API — the same synchronization the kernel's in-process
// producers use.
func (t *TCPTransport) apply(p *tcpPeer, typ uint8, body []byte) error {
	k := t.k
	r := wireReader{b: body}
	switch typ {
	case frameBatch:
		dst := int(r.i32())
		hdr := r.batchHdr()
		if r.err != nil {
			return r.err
		}
		if dst < 0 || dst >= len(k.clusters) || !t.localCluster(dst) {
			return fmt.Errorf("batch for cluster %d (not hosted here)", dst)
		}
		// Events are variable-size (payload-bearing events are wider), so the
		// count check is a lower bound; the decode loop + done() reject any
		// body that does not hold exactly hdr.n events.
		n := int(hdr.n)
		if n < 0 || n*eventWireSize > len(r.b) {
			return fmt.Errorf("batch length %d does not match body", hdr.n)
		}
		if cap(p.evs) < n {
			p.evs = make([]Event, n)
		}
		evs := p.evs[:n]
		for i := range evs {
			evs[i] = r.event()
		}
		if err := r.done(); err != nil {
			return err
		}
		t.deliverBatch(k.clusters[dst], evs, hdr)
		return nil
	case frameMirror:
		m := r.mirror()
		if err := r.done(); err != nil {
			return err
		}
		// Only a cluster's owner publishes its progress and counts what it
		// received; a frame naming a cluster hosted here would overwrite the
		// live published entry and the recvCum the wave-1 drain sums.
		if m.cluster < 0 || int(m.cluster) >= len(k.clusters) || k.clusters[m.cluster].here {
			return fmt.Errorf("mirror for cluster %d (hosted here or out of range)", m.cluster)
		}
		shell := k.clusters[m.cluster]
		k.publishProgress(shell.id, m.next)
		atomic.StoreInt64(&shell.recvCum[0].n, m.recv0)
		atomic.StoreInt64(&shell.recvCum[1].n, m.recv1)
		return nil
	case frameFin:
		if err := r.done(); err != nil {
			return err
		}
		return t.arrive(xFin, p.node, []uint64{})
	case frameSum:
		if len(body)%8 != 0 {
			return fmt.Errorf("sum body of %d bytes is not whole words", len(body))
		}
		vals := make([]uint64, len(body)/8)
		for i := range vals {
			vals[i] = r.u64()
		}
		return t.arrive(xSum, p.node, vals)
	case frameHeartbeat:
		// Liveness only; arriving at all is the payload.
		return r.done()
	case frameAbort:
		ae, err := parseAbort(body)
		if err != nil {
			return err
		}
		return ae
	default:
		// Control frames: the kernel decodes and applies them exactly as it
		// applies a message between two clusters of one process.
		m, err := k.decodeCtrl(typ, body)
		if err != nil {
			return err
		}
		k.applyCtrl(m)
		return nil
	}
}

// deliverBatch pushes a decoded batch into its destination mailbox,
// preserving the accept-when-empty rule. The retry loop cannot livelock: the
// consumer drains independently of this goroutine, and once the kernel is
// done no data batch can be in flight (a batch in flight bounds GVT below
// infinity), so the done-flag force push is a failsafe, not a code path a
// correct run exercises.
func (t *TCPTransport) deliverBatch(c *cluster, evs []Event, hdr batchHdr) {
	capEvents := t.k.cfg.Net.InboxSize
	for !c.mail.push(evs, hdr, capEvents) {
		if atomic.LoadInt32(&t.k.done) == 1 {
			capEvents = int(^uint(0) >> 1)
			continue
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// --- Transport interface: data plane ---

func (t *TCPTransport) push(dst int, events []Event, hdr batchHdr) bool {
	p := t.peers[t.nodeOf[dst]]
	n := len(events)
	p.mu.Lock()
	if p.dataEvents > 0 && p.dataEvents+n > t.k.cfg.Net.InboxSize {
		p.mu.Unlock()
		return false
	}
	wasEmpty := len(p.buf) == 0
	var off int
	p.buf, off = beginFrame(p.buf, frameBatch)
	p.buf = appendI32(p.buf, int32(dst))
	p.buf = appendBatchHdr(p.buf, hdr)
	for i := range events {
		p.buf = appendEvent(p.buf, &events[i])
	}
	p.buf = endFrame(p.buf, off)
	p.dataEvents += n
	p.mu.Unlock()
	p.handOff(wasEmpty)
	return true
}

// ctrl enqueues an encoded control frame. Control frames share the lane's
// FIFO with the data but skip its backpressure refusal, which preserves the
// ordering the protocol relies on: an ackCut precedes any red flush's
// counter effects.
func (t *TCPTransport) ctrl(dst int, frame []byte) {
	if dst != otherNodes {
		t.peers[t.nodeOf[dst]].enqueue(frame)
		return
	}
	t.enqueueAll(frame)
}

// publish asks every writer for a mirror refresh. Kernel.publish calls it
// only when a local cluster's progress or received counters changed. The
// refresh is conflated: a dirty flag per peer makes the writer append one
// mirror frame per local cluster, with the freshest values, once per drain
// cycle, so a stalled peer reads one fresh frame, not a backlog of stale
// ones.
func (t *TCPTransport) publish() {
	for _, p := range t.peers {
		if p != nil {
			atomic.StoreInt32(&p.pubDirty, 1)
			p.wakeWriter()
		}
	}
}

// --- Transport interface: lifecycle ---

// initQuiet reports whether this node's init-time sends have left its
// buffers: outbound lanes empty and writers idle. Unlike the in-memory
// transport it cannot see delivery on the peers — inbound init events that
// arrive later are handled by the running clusters as ordinary stragglers
// (white round-1 traffic), which the GVT protocol accounts like any other
// in-flight message.
func (t *TCPTransport) initQuiet() bool {
	if t.fatalErr() != nil {
		// A peer died during init: report quiet so Run proceeds to the
		// cluster loops (which exit immediately on the done flag) and
		// surfaces the error from finishRun, instead of spinning on lanes a
		// dead writer will never drain.
		return true
	}
	for _, p := range t.peers {
		if p != nil && !p.drained() {
			return false
		}
	}
	return true
}

// exchange is the end-of-run pattern FIN and GatherSum share: enqueue
// frame behind everything else on every lane, then wait until every peer's
// part of exchange x has arrived, or for a fatal error. It returns the
// first fatal error, if any.
func (t *TCPTransport) exchange(x int, frame []byte) error {
	if err := t.fatalErr(); err != nil {
		return err
	}
	t.enqueueAll(frame)
	// Backstop, not the failure detector: a peer whose process died is
	// caught within PeerTimeout by its read loop. This fuse catches a peer
	// that is alive (heartbeating) but logically wedged before its frame.
	fuse := time.AfterFunc(exchangeFuse, func() {
		t.xMu.Lock()
		missing := t.missingLocked(x)
		t.xMu.Unlock()
		if len(missing) > 0 {
			t.fatal(fmt.Errorf("timewarp: node %d: %w: no %s from nodes %v within %v", t.opt.Node, ErrPeerDown, xName[x], missing, exchangeFuse))
		}
	})
	defer fuse.Stop()
	t.xMu.Lock()
	for t.fatalErr() == nil && len(t.missingLocked(x)) > 0 {
		t.xCond.Wait()
	}
	t.xMu.Unlock()
	return t.fatalErr()
}

// missingLocked lists the peers whose part of exchange x has not arrived.
func (t *TCPTransport) missingLocked(x int) []int {
	var missing []int
	for node, vals := range t.got[x] {
		if node != t.opt.Node && vals == nil {
			missing = append(missing, node)
		}
	}
	return missing
}

// finishRun is the end-of-run barrier, exchange xFin: FIN travels behind
// everything else on every lane (FIFO ⇒ all earlier frames are applied
// before the peer's FIN lands). Connections stay open for GatherSum; Close
// tears them down.
func (t *TCPTransport) finishRun() error {
	if t.nodes() > 1 {
		b, off := beginFrame(nil, frameFin)
		if err := t.exchange(xFin, endFrame(b, off)); err != nil {
			return err
		}
	}
	atomic.StoreInt32(&t.finished, 1)
	return nil
}

// GatherSum element-wise sums vals across all nodes and returns the total on
// every node. Call it after Run returned on every node (once per run); the
// connections are still up until Close. Callers use it to reassemble global
// counters (committed events, output signatures) from the per-node shares.
// Every node sends its contribution to every peer and adds all n in node
// order; uint64 addition is exact, so every node returns the same total.
func (t *TCPTransport) GatherSum(vals []uint64) ([]uint64, error) {
	if !t.started {
		return nil, fmt.Errorf("%w: GatherSum before Run", ErrBadTransport)
	}
	if t.nodes() > 1 {
		b, off := beginFrame(nil, frameSum)
		for _, v := range vals {
			b = appendU64(b, v)
		}
		if err := t.exchange(xSum, endFrame(b, off)); err != nil {
			return nil, err
		}
	}
	// Every part has arrived and arrive never replaces one, so got is read
	// without the lock.
	total := make([]uint64, len(vals))
	for node := range t.opt.Peers {
		c := vals
		if node != t.opt.Node {
			c = t.got[xSum][node]
		}
		if len(c) != len(vals) {
			return nil, fmt.Errorf("timewarp: GatherSum length mismatch: node %d sent %d values, want %d", node, len(c), len(vals))
		}
		for i, v := range c {
			total[i] += v
		}
	}
	return total, nil
}

// Close tears the mesh down. Safe to call more than once and on a transport
// that never started. Closing a transport whose run is still in flight is
// itself a fatal event: the local clusters stop and the peers hear an abort,
// rather than discovering a silent FIN-barrier hang.
func (t *TCPTransport) Close() error {
	t.closeOnce.Do(t.closeLocked)
	return nil
}

// closeLocked is the one-shot teardown behind Close.
func (t *TCPTransport) closeLocked() {
	if t.started && atomic.LoadInt32(&t.finished) == 0 && t.k != nil && t.fatalErr() == nil {
		t.fatal(fmt.Errorf("timewarp: node %d: transport closed during the run", t.opt.Node))
	}
	// Let the writers drain frames enqueued just before Close — the
	// GatherSum contribution on a healthy shutdown, the abort broadcast on a
	// fatal one — since setting closing would make them exit with bytes still
	// buffered. Bounded either way: a wedged peer cannot hold Close hostage,
	// and an erroring mesh gets a shorter grace.
	grace := 2 * time.Second
	if t.err.Load() != nil {
		grace = 500 * time.Millisecond
	}
	deadline := time.Now().Add(grace)
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		for time.Now().Before(deadline) && !p.drained() {
			p.wakeWriter()
			time.Sleep(time.Millisecond)
		}
	}
	atomic.StoreInt32(&t.closing, 1)
	if t.ln != nil {
		t.ln.Close()
	}
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.conn.Close()
		p.wakeWriter()
	}
	t.readWG.Wait()
	t.writeWG.Wait()
}

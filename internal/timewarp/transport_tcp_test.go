package timewarp

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// tcpNodeResult is one node's share of a loopback run.
type tcpNodeResult struct {
	stats RunStats
	sum   []uint64 // GatherSum over the node's contribution
	err   error
}

// runTCPLoopback runs one simulation as n in-process "nodes", each with its
// own kernel and TCPTransport over 127.0.0.1. mk builds each node's identical
// Config+handlers (fresh per node: the kernel is replicated); contribute
// extracts the node's share of the cross-node reduction after Run (typically
// handler state of local LPs). Every node must produce the same GatherSum
// total, which is returned along with the per-node results.
func runTCPLoopback(t *testing.T, n int, mk func(node int) (Config, []Handler),
	contribute func(k *Kernel, h []Handler) []uint64) ([]tcpNodeResult, []uint64) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	results := make([]tcpNodeResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := &results[i]
			tr, err := NewTCPTransport(TCPOptions{Node: i, Peers: addrs, Listener: lns[i], DialTimeout: 5 * time.Second})
			if err != nil {
				res.err = err
				return
			}
			defer tr.Close()
			cfg, handlers := mk(i)
			cfg.Net.Transport = tr
			k, err := New(cfg, handlers)
			if err != nil {
				res.err = err
				return
			}
			stats, err := k.Run()
			if err != nil {
				res.err = fmt.Errorf("node %d: %w", i, err)
				return
			}
			res.stats = stats
			res.sum, res.err = tr.GatherSum(contribute(k, handlers))
		}(i)
	}
	wg.Wait()
	for i := range results {
		if results[i].err != nil {
			t.Fatalf("node %d: %v", i, results[i].err)
		}
	}
	for i := 1; i < n; i++ {
		if fmt.Sprint(results[i].sum) != fmt.Sprint(results[0].sum) {
			t.Fatalf("GatherSum disagrees across nodes: node 0 %v, node %d %v",
				results[0].sum, i, results[i].sum)
		}
	}
	return results, results[0].sum
}

// pingSeen is a pingLP handler's state, the events it has seen; other
// handlers contribute 0.
func pingSeen(h Handler) uint64 {
	if lp, ok := h.(*pingLP); ok {
		return uint64(lp.seen)
	}
	return 0
}

// TestTCPLoopbackPingPong: the smallest distributed run — two clusters on two
// processes, one ping-pong pair — must commit exactly what the in-memory
// kernel commits, with the transit counters drained on both nodes.
func TestTCPLoopbackPingPong(t *testing.T) {
	mk := func(node int) (Config, []Handler) {
		return Config{NumClusters: 2, ClusterOf: []int{0, 1}, GVTPeriodEvents: 16},
			[]Handler{
				&pingLP{peer: 1, limit: 300, delay: 2, start: true},
				&pingLP{peer: 0, limit: 300, delay: 2},
			}
	}
	contribute := func(k *Kernel, h []Handler) []uint64 {
		var seen uint64
		for i, hh := range h {
			if k.LocalLP(LPID(i)) {
				seen += pingSeen(hh)
			}
		}
		return []uint64{0, seen} // slot 0 filled below with committed
	}
	results, sum := runTCPLoopback(t, 2, mk, func(k *Kernel, h []Handler) []uint64 {
		v := contribute(k, h)
		return v
	})
	var committed uint64
	for _, r := range results {
		committed += r.stats.EventsCommitted
		if r.stats.FinalGVT != TimeInfinity {
			t.Errorf("node did not terminate: GVT=%d", r.stats.FinalGVT)
		}
	}
	if committed != 301 {
		t.Errorf("committed across nodes = %d, want 301", committed)
	}
	if sum[1] != 301 {
		t.Errorf("handler state across nodes = %d, want 301", sum[1])
	}
}

// TestTCPLoopbackStress partitions four clusters over two and over three
// processes with straggler pairs crossing the node boundary, so rollbacks and
// anti-messages travel by socket. Over three, node 1 both dials (node 0) and
// accepts (node 2). Totals must equal the in-memory run bit for bit on every
// node.
func TestTCPLoopbackStress(t *testing.T) {
	for _, n := range []int{2, 3} {
		t.Run(fmt.Sprintf("nodes=%d", n), func(t *testing.T) { testTCPLoopbackStress(t, n) })
	}
}

func testTCPLoopbackStress(t *testing.T, nodes int) {
	build := func() (Config, []Handler) {
		const chains = 6
		handlers := make([]Handler, 0, chains+2)
		clusterOf := make([]int, 0, chains+2)
		for i := 0; i < chains; i++ {
			handlers = append(handlers, &chainLP{limit: 150})
			clusterOf = append(clusterOf, i%4)
		}
		// Victim on node 0's clusters, sender on the last node's: every
		// straggler and its anti-message cascade crosses the socket.
		handlers = append(handlers, &stragglerVictim{limit: 250}, &stragglerSender{victim: LPID(chains), n: 240})
		clusterOf = append(clusterOf, 0, 3)
		return Config{
			NumClusters:     4,
			ClusterOf:       clusterOf,
			GVTPeriodEvents: 32,
		}, handlers
	}
	contribute := func(k *Kernel, h []Handler) []uint64 {
		var sum uint64
		for i, hh := range h {
			if !k.LocalLP(LPID(i)) {
				continue
			}
			switch lp := hh.(type) {
			case *chainLP:
				sum += uint64(lp.reached)
			case *stragglerVictim:
				sum += uint64(lp.sum)
			}
		}
		return []uint64{sum}
	}

	results, sum := runTCPLoopback(t, nodes, func(int) (Config, []Handler) { return build() }, contribute)
	var committed, processed, rolledBack uint64
	for _, r := range results {
		committed += r.stats.EventsCommitted
		processed += r.stats.EventsProcessed
		rolledBack += r.stats.EventsRolledBack
	}
	if processed-rolledBack != committed {
		t.Errorf("commit invariant across nodes: %d - %d != %d", processed, rolledBack, committed)
	}

	// Oracle: the same configuration in one process.
	cfg, handlers := build()
	k, err := New(cfg, handlers)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if committed != stats.EventsCommitted {
		t.Errorf("distributed committed %d, in-memory %d", committed, stats.EventsCommitted)
	}
	memSum := contribute(k, handlers)
	if sum[0] != memSum[0] {
		t.Errorf("distributed handler state %d, in-memory %d", sum[0], memSum[0])
	}
}

// TestTCPLoopbackMigration: an LP cannot migrate between processes, so New
// refuses dynamic balancing over a transport that spans two, before any
// socket opens, and leaves the transport unbound. The same rotation still
// runs in one process.
func TestTCPLoopbackMigration(t *testing.T) {
	build := func(tr Transport, rounds *int32) (*Kernel, error) {
		return New(Config{
			NumClusters:     2,
			ClusterOf:       []int{0, 1},
			GVTPeriodEvents: 16,
			Dynamic: DynamicConfig{
				Rebalance:    rotatingRebalance(2, 2, rounds),
				PeriodRounds: 1,
			},
			Net: NetConfig{Transport: tr},
		}, []Handler{
			&pingLP{peer: 1, limit: 400, delay: 3, start: true},
			&pingLP{peer: 0, limit: 400, delay: 3},
		})
	}
	tr, err := NewTCPTransport(TCPOptions{Node: 0, Peers: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	var rounds int32
	if _, err := build(tr, &rounds); !errors.Is(err, ErrBadTransport) || !strings.Contains(err.Error(), "one process") {
		t.Fatalf("dynamic balancing over 2 nodes: err = %v, want ErrBadTransport naming one process", err)
	}
	if tr.k != nil {
		t.Error("the refused transport was bound to the kernel")
	}

	k, err := build(nil, &rounds)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Migrations == 0 {
		t.Error("no LP migrated in one process")
	}
	if stats.EventsCommitted != 401 {
		t.Errorf("committed %d, want 401", stats.EventsCommitted)
	}
}

// TestTCPTransportValidation: option errors surface as ErrBadTransport.
func TestTCPTransportValidation(t *testing.T) {
	if _, err := NewTCPTransport(TCPOptions{}); !errors.Is(err, ErrBadTransport) {
		t.Errorf("empty peers: err = %v, want ErrBadTransport", err)
	}
	if _, err := NewTCPTransport(TCPOptions{Node: 2, Peers: []string{"a", "b"}}); !errors.Is(err, ErrBadTransport) {
		t.Errorf("node out of range: err = %v, want ErrBadTransport", err)
	}
	// More nodes than clusters cannot be partitioned.
	tr, err := NewTCPTransport(TCPOptions{Node: 0, Peers: []string{"a", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{NumClusters: 2, ClusterOf: []int{0, 1}, Net: NetConfig{Transport: tr}},
		[]Handler{&pingLP{peer: 1}, &pingLP{peer: 0}})
	if !errors.Is(err, ErrBadTransport) {
		t.Errorf("3 nodes over 2 clusters: err = %v, want ErrBadTransport", err)
	}
	// GatherSum before Run is refused.
	tr2, err := NewTCPTransport(TCPOptions{Node: 0, Peers: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr2.GatherSum([]uint64{1}); !errors.Is(err, ErrBadTransport) {
		t.Errorf("GatherSum before Run: err = %v, want ErrBadTransport", err)
	}
}

// TestTCPMirrorFramesRejectHostedClusters: a mirror frame carries a remote
// cluster's published progress and received counters into this node's
// shell of it. A frame naming a cluster this node hosts would overwrite live
// state — its published entry, or the recvCum the wave-1 drain sums — so it
// is a frame error and changes nothing. A frame naming a remote cluster
// still applies.
func TestTCPMirrorFramesRejectHostedClusters(t *testing.T) {
	tr, k := boundTCP(t, NetConfig{})
	hosted, remote := k.clusters[0], k.clusters[1]
	k.publishProgress(hosted.id, 7)
	atomic.StoreInt64(&hosted.recvCum[0].n, 3)
	atomic.StoreInt64(&hosted.recvCum[1].n, 4)
	apply := func(m wireMirror) error {
		typ, body := decodeOneFrame(t, appendMirror(nil, m))
		return tr.apply(nil, typ, body)
	}

	if err := apply(wireMirror{cluster: 0, next: 99, recv0: 90, recv1: 91}); err == nil {
		t.Error("mirror frame naming hosted cluster 0 applied")
	}
	if got := atomic.LoadInt64(&k.published[0].t); got != 7 {
		t.Errorf("hosted cluster's published = %d, want 7", got)
	}
	if r0, r1 := atomic.LoadInt64(&hosted.recvCum[0].n), atomic.LoadInt64(&hosted.recvCum[1].n); r0 != 3 || r1 != 4 {
		t.Errorf("hosted cluster's recvCum = [%d %d], want [3 4]", r0, r1)
	}

	if err := apply(wireMirror{cluster: 1, next: 42, recv0: 5, recv1: 6}); err != nil {
		t.Errorf("mirror frame for remote cluster 1: %v", err)
	}
	if got := atomic.LoadInt64(&k.published[1].t); got != 42 {
		t.Errorf("remote cluster's published = %d, want 42", got)
	}
	if r0, r1 := atomic.LoadInt64(&remote.recvCum[0].n), atomic.LoadInt64(&remote.recvCum[1].n); r0 != 5 || r1 != 6 {
		t.Errorf("remote cluster's recvCum mirror = [%d %d], want [5 6]", r0, r1)
	}
}

// boundTCP returns node 0 of an unstarted two-node TCP transport, bound to a
// two-cluster kernel: cluster 0 is hosted here, cluster 1 on node 1. No
// socket is opened; tests install peers by hand.
func boundTCP(t *testing.T, nc NetConfig) (*TCPTransport, *Kernel) {
	t.Helper()
	tr, err := NewTCPTransport(TCPOptions{Node: 0, Peers: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	nc.Transport = tr
	k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}, Net: nc},
		[]Handler{&pingLP{peer: 1}, &pingLP{peer: 0}})
	if err != nil {
		t.Fatal(err)
	}
	return tr, k
}

// slowConn is a net.Conn stub whose writes take delay and fail once it is
// closed, like a socket torn down under a writer.
type slowConn struct {
	net.Conn
	delay  time.Duration
	mu     sync.Mutex
	buf    []byte
	closed bool
}

func (c *slowConn) Write(b []byte) (int, error) {
	time.Sleep(c.delay)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	c.buf = append(c.buf, b...)
	return len(b), nil
}

func (c *slowConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

// TestTCPCloseDrainsLane: a frame enqueued just before Close — a GatherSum
// contribution, or the abort broadcast of a failing node — still reaches
// the peer, because Close lets the writer drain the lane before it closes
// the connection, even when the write is slow.
func TestTCPCloseDrainsLane(t *testing.T) {
	tr, _ := boundTCP(t, NetConfig{})
	conn := &slowConn{delay: 100 * time.Millisecond}
	p := tr.newPeer(1, conn, nil)
	tr.peers[1] = p
	tr.started = true
	atomic.StoreInt32(&tr.finished, 1)
	tr.writeWG.Add(1)
	go tr.writeLoop(p)
	frame, off := beginFrame(nil, frameSum)
	frame = endFrame(appendU64(frame, 301), off)
	p.enqueue(frame)
	tr.Close()
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if !bytes.Equal(conn.buf, frame) {
		t.Errorf("peer received % x before Close, want % x", conn.buf, frame)
	}
}

// TestTCPInitQuietWaitsForLanes: init is quiet on this node once every lane
// is empty and no writer holds frames it has not flushed; after a fatal
// error it is quiet regardless, since a dead writer never drains.
func TestTCPInitQuietWaitsForLanes(t *testing.T) {
	tr, _ := boundTCP(t, NetConfig{})
	p := tr.newPeer(1, &sinkConn{}, nil)
	tr.peers[1] = p
	steps := []struct {
		name  string
		setup func()
		quiet bool
	}{
		{"idle lane", func() {}, true},
		{"frame queued", func() { p.enqueue(appendReport(nil, wireReport{cluster: 0, min: 3})) }, false},
		{"writer holds frames", func() {
			p.buf = p.buf[:0]
			atomic.StoreInt32(&p.writing, 1)
		}, false},
		{"writer flushed", func() { atomic.StoreInt32(&p.writing, 0) }, true},
		{"fatal with a full lane", func() { tr.fatal(errors.New("peer died")) }, true},
	}
	for _, s := range steps {
		s.setup()
		if got := tr.initQuiet(); got != s.quiet {
			t.Errorf("%s: initQuiet = %v, want %v", s.name, got, s.quiet)
		}
	}
}

// TestTCPPushBackpressure: a lane refuses an event batch once it would hold
// more than InboxSize events, so a slow peer bounds the sender's memory and
// flushDst retries; an empty lane takes any batch, and control frames are
// never refused.
func TestTCPPushBackpressure(t *testing.T) {
	tr, _ := boundTCP(t, NetConfig{InboxSize: 4})
	p := tr.newPeer(1, &sinkConn{}, nil)
	tr.peers[1] = p
	push := func(n int) bool { return tr.push(1, make([]Event, n), batchHdr{n: int32(n)}) }
	if !push(3) {
		t.Fatal("empty lane refused 3 events")
	}
	if push(2) {
		t.Error("lane holding 3 of 4 events took 2 more")
	}
	if !push(1) {
		t.Error("lane holding 3 of 4 events refused the 4th")
	}
	before := len(p.buf)
	tr.ctrl(1, appendReport(nil, wireReport{cluster: 0, min: 3}))
	if len(p.buf) == before {
		t.Error("control frame refused by a full lane")
	}
	p.buf, p.dataEvents = p.buf[:0], 0 // the writer swapped the lane out
	if !push(9) {
		t.Error("empty lane refused a batch larger than InboxSize")
	}
}

// TestAbortFrameForwardsOrigin: one mapping turns an error into an abort
// frame. A relayed abort keeps its originator and code, so a mesh blames
// the root cause rather than the node that passed it on; this node's own
// errors carry its id and the code of the sentinel they wrap.
func TestAbortFrameForwardsOrigin(t *testing.T) {
	tr := &TCPTransport{opt: TCPOptions{Node: 1}}
	relayed := &abortError{origin: 2, code: abortCodeConfig, reason: "digest differs"}
	for _, tc := range []struct {
		name   string
		err    error
		origin int
		code   uint8
	}{
		{"relayed", fmt.Errorf("timewarp: node 1: %w", relayed), 2, abortCodeConfig},
		{"proto", fmt.Errorf("%w: v4 vs v5", ErrProtoMismatch), 1, abortCodeProto},
		{"config", fmt.Errorf("%w: 3 nodes vs 2", ErrConfigMismatch), 1, abortCodeConfig},
		{"fatal", tr.peerFail(0, "read failed"), 1, abortCodeFatal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			typ, body := decodeOneFrame(t, tr.abortFrame(tc.err))
			if typ != frameAbort {
				t.Fatalf("frame type %d, want abort", typ)
			}
			ae, err := parseAbort(body)
			if err != nil {
				t.Fatal(err)
			}
			if ae.origin != tc.origin || ae.code != tc.code || ae.reason != tc.err.Error() {
				t.Errorf("abort = %+v, want origin %d code %d reason %q", *ae, tc.origin, tc.code, tc.err.Error())
			}
		})
	}
}

// TestDeliverBatchForcePushAfterDone: a reader delivering into a full
// mailbox waits for the consumer, but once the kernel is done no consumer
// is coming. The batch must then go in regardless, or the reader goroutine
// (and Close, which waits for it) would hang.
func TestDeliverBatchForcePushAfterDone(t *testing.T) {
	tr, k := boundTCP(t, NetConfig{InboxSize: 1})
	c := k.clusters[0]
	evs := []Event{{ID: 1, Sender: 1, Receiver: 0, RecvTime: 5}}
	if !c.mail.push(evs, batchHdr{n: 1}, 1) {
		t.Fatal("first push into an empty mailbox refused")
	}
	atomic.StoreInt32(&k.done, 1)
	delivered := make(chan struct{})
	go func() {
		tr.deliverBatch(c, evs, batchHdr{n: 1})
		close(delivered)
	}()
	select {
	case <-delivered:
	case <-time.After(5 * time.Second):
		t.Fatal("deliverBatch into a full mailbox still waiting 5s after the kernel was done")
	}
	if got, _, _ := c.mail.take(nil, nil); len(got) != 2 {
		t.Errorf("mailbox holds %d events, want 2", len(got))
	}
}

// TestTCPSingleNode: a one-entry peer list is a degenerate mesh — no sockets,
// but the TCP transport's code path (FIN no-op, local GatherSum). Results must match the plain in-memory transport.
func TestTCPSingleNode(t *testing.T) {
	tr, err := NewTCPTransport(TCPOptions{Node: 0, Peers: []string{"127.0.0.1:0"}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	a := &pingLP{peer: 1, limit: 200, delay: 2, start: true}
	b := &pingLP{peer: 0, limit: 200, delay: 2}
	k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}, Net: NetConfig{Transport: tr}},
		[]Handler{a, b})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.EventsCommitted != 201 || a.seen+b.seen != 201 {
		t.Errorf("committed=%d seen=%d, want 201", stats.EventsCommitted, a.seen+b.seen)
	}
	sum, err := tr.GatherSum([]uint64{uint64(a.seen), uint64(b.seen)})
	if err != nil {
		t.Fatal(err)
	}
	if sum[0]+sum[1] != 201 {
		t.Errorf("GatherSum = %v", sum)
	}
}

// TestConfigDigestCoversEveryTerm is the handshake digest's case matrix.
// D01 pins that identical configs agree; every other case changes one term
// the digest folds in and requires the digest to change with it, so a term
// dropped from configDigest fails its row here instead of letting two
// diverging nodes mesh.
func TestConfigDigestCoversEveryTerm(t *testing.T) {
	base := func() *TCPTransport {
		return &TCPTransport{
			opt: TCPOptions{Peers: []string{"a:1", "b:2"}, ConfigTag: 7},
			k: &Kernel{
				cfg: Config{
					NumClusters: 2, GVTPeriodEvents: 4096, OptimismWindow: 120,
					Net: NetConfig{InboxSize: 64, SendBusy: 10, RecvBusy: 20, Latency: time.Millisecond},
				},
				lps: make([]*lpRuntime, 4),
			},
		}
	}
	want := base().configDigest()
	cases := []struct {
		id, term string
		change   func(tr *TCPTransport)
		differs  bool
	}{
		{"D01", "identical config", func(*TCPTransport) {}, false},
		{"D02", "GVTPeriodEvents", func(tr *TCPTransport) { tr.k.cfg.GVTPeriodEvents++ }, true},
		{"D03", "OptimismWindow", func(tr *TCPTransport) { tr.k.cfg.OptimismWindow++ }, true},
		{"D04", "Net.InboxSize", func(tr *TCPTransport) { tr.k.cfg.Net.InboxSize++ }, true},
		{"D05", "Net.SendBusy", func(tr *TCPTransport) { tr.k.cfg.Net.SendBusy++ }, true},
		{"D06", "Net.RecvBusy", func(tr *TCPTransport) { tr.k.cfg.Net.RecvBusy++ }, true},
		{"D07", "Net.Latency", func(tr *TCPTransport) { tr.k.cfg.Net.Latency++ }, true},
		{"D08", "NumClusters", func(tr *TCPTransport) { tr.k.cfg.NumClusters++ }, true},
		{"D09", "ConfigTag", func(tr *TCPTransport) { tr.opt.ConfigTag++ }, true},
		{"D10", "peer count", func(tr *TCPTransport) { tr.opt.Peers = append(tr.opt.Peers, "c:3") }, true},
		{"D11", "LP count", func(tr *TCPTransport) { tr.k.lps = append(tr.k.lps, nil) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			tr := base()
			tc.change(tr)
			if got := tr.configDigest(); (got != want) != tc.differs {
				t.Errorf("%s %s: digest %#x, base %#x, want differs=%v", tc.id, tc.term, got, want, tc.differs)
			}
		})
	}
}

package timewarp

import (
	"bufio"
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

// --- faultConn unit tests ---

// sinkConn is a net.Conn stub collecting written bytes; only the methods
// faultConn uses are real.
type sinkConn struct {
	net.Conn
	buf    bytes.Buffer
	closed bool
}

func (c *sinkConn) Write(b []byte) (int, error) { return c.buf.Write(b) }
func (c *sinkConn) Close() error                { c.closed = true; return nil }

// testFrames builds a few realistic frames and returns them concatenated
// plus the offset of each frame start.
func testFrames(n int) ([]byte, []int) {
	var b []byte
	var offs []int
	for i := 0; i < n; i++ {
		offs = append(offs, len(b))
		var off int
		b, off = beginFrame(b, frameCtrl)
		b = appendI32(b, int32(i))
		b = appendU8(b, uint8(i))
		b = endFrame(b, off)
	}
	return b, offs
}

// writeChunked pushes b through w in the given repeating chunk sizes, so
// frame boundaries land mid-chunk, mid-header, everywhere.
func writeChunked(w net.Conn, b []byte, sizes []int) (int, error) {
	total := 0
	for i := 0; len(b) > 0; i++ {
		n := sizes[i%len(sizes)]
		if n > len(b) {
			n = len(b)
		}
		w2, err := w.Write(b[:n])
		total += w2
		if err != nil {
			return total, err
		}
		b = b[n:]
	}
	return total, nil
}

func TestFaultConnPassthrough(t *testing.T) {
	for _, sizes := range [][]int{{1}, {2, 3}, {7, 1, 13}, {1 << 10}} {
		sink := &sinkConn{}
		fc := (&FaultPlan{Peer: -1, StallAfterFrames: 1, StallFor: time.Microsecond}).wrap(sink, 0)
		in, _ := testFrames(5)
		if _, err := writeChunked(fc, in, sizes); err != nil {
			t.Fatalf("chunks %v: %v", sizes, err)
		}
		if !bytes.Equal(sink.buf.Bytes(), in) {
			t.Fatalf("chunks %v: output differs from input", sizes)
		}
	}
}

func TestFaultConnDrop(t *testing.T) {
	for _, sizes := range [][]int{{1}, {5, 3}, {1 << 10}} {
		sink := &sinkConn{}
		fc := (&FaultPlan{Peer: -1, DropAfterFrames: 2}).wrap(sink, 0)
		in, offs := testFrames(5)
		_, err := writeChunked(fc, in, sizes)
		if err == nil {
			t.Fatalf("chunks %v: drop fault did not error", sizes)
		}
		if !sink.closed {
			t.Fatalf("chunks %v: conn not closed", sizes)
		}
		// Exactly two full frames made it out.
		if !bytes.Equal(sink.buf.Bytes(), in[:offs[2]]) {
			t.Fatalf("chunks %v: got %d bytes, want %d (2 whole frames)", sizes, sink.buf.Len(), offs[2])
		}
		if _, err := fc.Write([]byte{1}); err == nil {
			t.Fatal("write after scripted death succeeded")
		}
	}
}

func TestFaultConnTruncate(t *testing.T) {
	sink := &sinkConn{}
	fc := (&FaultPlan{Peer: -1, TruncateFrame: 2}).wrap(sink, 0)
	in, offs := testFrames(4)
	if _, err := writeChunked(fc, in, []int{3}); err == nil {
		t.Fatal("truncate fault did not error")
	}
	frameLen := 6 // ctrl frame: type + i32 + u8
	want := offs[1] + 4 + frameLen/2
	if sink.buf.Len() != want {
		t.Fatalf("truncated output %d bytes, want %d (frame 1 + prefix + half of frame 2)", sink.buf.Len(), want)
	}
	// A reader of the stream must hit an unexpected EOF inside frame 2.
	br := bufio.NewReader(bytes.NewReader(sink.buf.Bytes()))
	if _, _, _, err := readFrame(br, nil); err != nil {
		t.Fatalf("frame 1 should survive: %v", err)
	}
	if _, _, _, err := readFrame(br, nil); err == nil {
		t.Fatal("frame 2 decoded despite truncation")
	}
}

func TestFaultConnCorrupt(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		sink := &sinkConn{}
		fc := (&FaultPlan{Peer: -1, Seed: seed, CorruptFrame: 2}).wrap(sink, 0)
		in, _ := testFrames(3)
		if _, err := writeChunked(fc, in, []int{2}); err != nil {
			t.Fatal(err)
		}
		if sink.buf.Len() != len(in) {
			t.Fatalf("corrupt changed length: %d != %d", sink.buf.Len(), len(in))
		}
		br := bufio.NewReader(bytes.NewReader(sink.buf.Bytes()))
		if typ, _, _, err := readFrame(br, nil); err != nil || typ != frameCtrl {
			t.Fatalf("frame 1 damaged: typ=%d err=%v", typ, err)
		}
		typ, _, _, err := readFrame(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		if typ < 0x80 {
			t.Fatalf("seed %d: corrupted type %#x still looks legitimate", seed, typ)
		}
		if typ2, _, _, err := readFrame(br, nil); err != nil || typ2 != frameCtrl {
			t.Fatalf("frame 3 damaged: typ=%d err=%v", typ2, err)
		}
	}
}

// --- chaos harness: in-process nodes over loopback, faults allowed ---

type chaosOpts struct {
	// tweak adjusts one node's TCPOptions (fault plan, heartbeat knobs).
	tweak func(node int, opt *TCPOptions)
	// onTransport observes each node's transport right after construction.
	onTransport func(node int, tr *TCPTransport)
	// preStart runs once the listeners are bound, before any node starts
	// (stray-connection injection).
	preStart func(addrs []string)
	// skipGather skips the GatherSum phase (pointless on failing runs).
	skipGather bool
	// afterRun runs on each node between a successful Run and GatherSum;
	// false skips that node's gather.
	afterRun func(node int) bool
}

// chaosResult is one node's outcome.
type chaosResult struct {
	stats  RunStats
	sum    []uint64
	err    error
	runDur time.Duration // Run call only (detection-bound assertions)
}

// runTCPChaos is runTCPLoopback's failure-tolerant sibling: per-node option
// tweaks, no t.Fatal on node errors — callers assert success or failure
// shape per scenario.
func runTCPChaos(t *testing.T, n int, mk func(node int) (Config, []Handler),
	contribute func(k *Kernel, h []Handler) []uint64, co chaosOpts) []chaosResult {
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
	if co.preStart != nil {
		co.preStart(addrs)
	}
	results := make([]chaosResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res := &results[i]
			opt := TCPOptions{Node: i, Peers: addrs, Listener: lns[i], DialTimeout: 5 * time.Second}
			if co.tweak != nil {
				co.tweak(i, &opt)
			}
			tr, err := NewTCPTransport(opt)
			if err != nil {
				res.err = err
				return
			}
			if co.onTransport != nil {
				co.onTransport(i, tr)
			}
			defer tr.Close()
			cfg, handlers := mk(i)
			cfg.Net.Transport = tr
			k, err := New(cfg, handlers)
			if err != nil {
				res.err = err
				return
			}
			begin := time.Now()
			stats, err := k.Run()
			res.runDur = time.Since(begin)
			if err != nil {
				res.err = err
				return
			}
			res.stats = stats
			if co.afterRun != nil && !co.afterRun(i) {
				return
			}
			if !co.skipGather {
				res.sum, res.err = tr.GatherSum(contribute(k, handlers))
			}
		}(i)
	}
	wg.Wait()
	return results
}

// chaosPing builds a ping ring over nodes clusters, one LP per cluster, and
// a contribute function summing handler state.
func chaosPing(nodes int, limit int32) (func(node int) (Config, []Handler), func(k *Kernel, h []Handler) []uint64) {
	mk := func(int) (Config, []Handler) {
		handlers := make([]Handler, nodes)
		clusterOf := make([]int, nodes)
		for i := range handlers {
			handlers[i] = &pingLP{peer: LPID((i + 1) % nodes), limit: limit, delay: 2, start: i == 0}
			clusterOf[i] = i
		}
		return Config{NumClusters: nodes, ClusterOf: clusterOf, GVTPeriodEvents: 16}, handlers
	}
	contribute := func(k *Kernel, h []Handler) []uint64 {
		var seen uint64
		for i, hh := range h {
			if k.LocalLP(LPID(i)) {
				seen += pingSeen(hh)
			}
		}
		return []uint64{seen}
	}
	return mk, contribute
}

// chaosDetect asserts the permanent-fault contract: every node failed, every
// node's error wraps ErrPeerDown, at least one names the culprit, and
// detection stayed inside bound.
func chaosDetect(t *testing.T, results []chaosResult, culprit string, bound time.Duration) {
	t.Helper()
	named := false
	for i, r := range results {
		if r.err == nil {
			t.Errorf("node %d: no error despite a permanent fault", i)
			continue
		}
		if !errors.Is(r.err, ErrPeerDown) {
			t.Errorf("node %d: error does not wrap ErrPeerDown: %v", i, r.err)
		}
		if strings.Contains(r.err.Error(), culprit) {
			named = true
		}
		if r.runDur > bound {
			t.Errorf("node %d: failed only after %v (bound %v)", i, r.runDur, bound)
		}
	}
	if !named {
		t.Errorf("no node's error names the culprit %q; errors: %v", culprit, chaosErrs(results))
	}
}

func chaosErrs(results []chaosResult) []error {
	errs := make([]error, len(results))
	for i, r := range results {
		errs[i] = r.err
	}
	return errs
}

// chaosOracle asserts the transient-fault contract: the run completed on
// every node and totals are bit-identical to the in-memory oracle.
func chaosOracle(t *testing.T, results []chaosResult, mk func(node int) (Config, []Handler),
	contribute func(k *Kernel, h []Handler) []uint64) {
	t.Helper()
	var committed uint64
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("node %d: %v (transient fault must not fail the run)", i, r.err)
		}
		committed += r.stats.EventsCommitted
	}
	cfg, handlers := mk(0)
	k, err := New(cfg, handlers)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if committed != stats.EventsCommitted {
		t.Errorf("distributed committed %d, oracle %d", committed, stats.EventsCommitted)
	}
	oracleSum := contribute(k, handlers)
	for i, r := range results {
		if fmt.Sprint(r.sum) != fmt.Sprint(oracleSum) {
			t.Errorf("node %d GatherSum %v, oracle %v", i, r.sum, oracleSum)
		}
	}
}

// fastDetect gives chaos meshes a tight failure detector.
func fastDetect(opt *TCPOptions) {
	opt.HeartbeatEvery = 50 * time.Millisecond
	opt.PeerTimeout = 400 * time.Millisecond
}

// --- chaos matrix: permanent faults fail every node loudly ---

func TestTCPChaosDropPeer(t *testing.T) {
	mk, contribute := chaosPing(3, 100000)
	results := runTCPChaos(t, 3, mk, contribute, chaosOpts{
		tweak: func(node int, opt *TCPOptions) {
			fastDetect(opt)
			if node == 1 {
				opt.Fault = &FaultPlan{Peer: -1, DropAfterFrames: 30}
			}
		},
		skipGather: true,
	})
	chaosDetect(t, results, "node 1", 30*time.Second)
}

func TestTCPChaosTruncateFrame(t *testing.T) {
	mk, contribute := chaosPing(2, 100000)
	results := runTCPChaos(t, 2, mk, contribute, chaosOpts{
		tweak: func(node int, opt *TCPOptions) {
			fastDetect(opt)
			if node == 1 {
				opt.Fault = &FaultPlan{Peer: 0, TruncateFrame: 25}
			}
		},
		skipGather: true,
	})
	chaosDetect(t, results, "node 1", 30*time.Second)
}

func TestTCPChaosCorruptFrame(t *testing.T) {
	mk, contribute := chaosPing(2, 100000)
	results := runTCPChaos(t, 2, mk, contribute, chaosOpts{
		tweak: func(node int, opt *TCPOptions) {
			fastDetect(opt)
			if node == 1 {
				opt.Fault = &FaultPlan{Peer: 0, Seed: 7, CorruptFrame: 25}
			}
		},
		skipGather: true,
	})
	chaosDetect(t, results, "node 1", 30*time.Second)
	// The victim's own error must say what node 1 did.
	if err := results[0].err; err == nil || !strings.Contains(err.Error(), "bad frame") {
		t.Errorf("node 0 error should blame a bad frame: %v", err)
	}
}

// TestTCPChaosStallPermanent wedges node 1's writer for far longer than
// PeerTimeout: the silent-peer path. No abort frame can help node 0 (the
// faulty lane is the one toward it), so only the heartbeat/read-deadline
// detector unblocks it — within the bound, while the stall still holds.
func TestTCPChaosStallPermanent(t *testing.T) {
	const stall = 3 * time.Second
	mk, contribute := chaosPing(2, 100000)
	results := runTCPChaos(t, 2, mk, contribute, chaosOpts{
		tweak: func(node int, opt *TCPOptions) {
			fastDetect(opt) // PeerTimeout 400ms ≪ stall
			if node == 1 {
				opt.Fault = &FaultPlan{Peer: 0, StallAfterFrames: 20, StallFor: stall}
			}
		},
		skipGather: true,
	})
	if err := results[0].err; err == nil || !errors.Is(err, ErrPeerDown) {
		t.Fatalf("node 0: want ErrPeerDown from the failure detector, got %v", err)
	}
	if !strings.Contains(results[0].err.Error(), "no frame") {
		t.Errorf("node 0 should report a silent peer: %v", results[0].err)
	}
	// Detection must beat the stall's natural end by a wide margin.
	if results[0].runDur > stall-500*time.Millisecond {
		t.Errorf("node 0 detected the stall only after %v; the detector (bound 400ms) should not wait out the %v stall",
			results[0].runDur, stall)
	}
}

// TestTCPChaosDoubleFault drops two lanes at once: abort frames race local
// fatals on every node. Run under -race; the only contract is that every
// node fails loudly and nothing deadlocks.
func TestTCPChaosDoubleFault(t *testing.T) {
	mk, contribute := chaosPing(3, 100000)
	results := runTCPChaos(t, 3, mk, contribute, chaosOpts{
		tweak: func(node int, opt *TCPOptions) {
			fastDetect(opt)
			if node == 1 || node == 2 {
				opt.Fault = &FaultPlan{Peer: -1, DropAfterFrames: 25}
			}
		},
		skipGather: true,
	})
	for i, r := range results {
		if r.err == nil {
			t.Errorf("node %d: no error despite two dropped lanes", i)
		} else if !errors.Is(r.err, ErrPeerDown) {
			t.Errorf("node %d: error does not wrap ErrPeerDown: %v", i, r.err)
		}
	}
}

// TestTCPChaosClusterPanic: a handler on node 1 panics. Node 1's Run
// returns the panic as its own error, naming the cluster, and aborts the
// mesh, so node 0 fails at once with ErrPeerDown and the same text instead
// of waiting out its failure detector.
func TestTCPChaosClusterPanic(t *testing.T) {
	ring, contribute := chaosPing(2, 100000)
	mk := func(node int) (Config, []Handler) {
		cfg, handlers := ring(node)
		if node == 1 {
			handlers[1] = &panicLP{pingLP: *handlers[1].(*pingLP), at: 501}
		}
		return cfg, handlers
	}
	results := runTCPChaos(t, 2, mk, contribute, chaosOpts{skipGather: true})
	const text = "timewarp: cluster 1: panicLP: event 501"
	if err := results[1].err; err == nil || !strings.Contains(err.Error(), text) {
		t.Errorf("node 1: err = %v, want its cluster's panic", err)
	}
	if err := results[0].err; err == nil || !errors.Is(err, ErrPeerDown) || !strings.Contains(err.Error(), text) {
		t.Errorf("node 0: err = %v, want ErrPeerDown carrying node 1's panic", err)
	}
}

// --- chaos matrix: transient faults complete bit-identical to the oracle ---

// TestTCPHeartbeatKeepsIdleMesh: a healthy mesh that sends nothing for three
// PeerTimeouts between Run and GatherSum stays up, because its writers
// heartbeat idle lanes. Without heartbeats every read deadline would expire
// and the gather fail.
func TestTCPHeartbeatKeepsIdleMesh(t *testing.T) {
	mk, contribute := chaosPing(2, 200)
	results := runTCPChaos(t, 2, mk, contribute, chaosOpts{
		tweak: func(_ int, opt *TCPOptions) { fastDetect(opt) },
		afterRun: func(int) bool {
			time.Sleep(1200 * time.Millisecond)
			return true
		},
	})
	chaosOracle(t, results, mk, contribute)
}

// TestTCPExchangeFuseNamesMissingNode: node 1 finishes its run but never
// gathers, while its lanes stay up and heartbeat. Node 0's GatherSum must
// not wait forever: the exchange fuse fails it with ErrPeerDown naming node
// 1, and node 1 itself ends cleanly.
func TestTCPExchangeFuseNamesMissingNode(t *testing.T) {
	defer func(d time.Duration) { exchangeFuse = d }(exchangeFuse)
	exchangeFuse = 300 * time.Millisecond
	mk, contribute := chaosPing(2, 200)
	var node0 atomic.Pointer[TCPTransport]
	results := runTCPChaos(t, 2, mk, contribute, chaosOpts{
		onTransport: func(node int, tr *TCPTransport) {
			if node == 0 {
				node0.Store(tr)
			}
		},
		afterRun: func(node int) bool {
			if node == 0 {
				return true
			}
			// Node 1 stays up, its lanes heartbeating, until node 0 failed.
			for end := time.Now().Add(10 * time.Second); node0.Load().fatalErr() == nil && time.Now().Before(end); {
				time.Sleep(10 * time.Millisecond)
			}
			return false
		},
	})
	err := results[0].err
	if !errors.Is(err, ErrPeerDown) || !strings.Contains(err.Error(), "no GatherSum contribution from nodes [1]") {
		t.Errorf("node 0: err = %v, want ErrPeerDown naming node 1's missing contribution", err)
	}
	if results[1].err != nil {
		t.Errorf("node 1: %v", results[1].err)
	}
}

func TestTCPChaosStallTransient(t *testing.T) {
	mk, contribute := chaosPing(2, 2000)
	results := runTCPChaos(t, 2, mk, contribute, chaosOpts{
		tweak: func(node int, opt *TCPOptions) {
			// PeerTimeout 1s comfortably above the 150ms stall.
			opt.HeartbeatEvery = 200 * time.Millisecond
			opt.PeerTimeout = time.Second
			if node == 1 {
				opt.Fault = &FaultPlan{Peer: 0, StallAfterFrames: 20, StallFor: 150 * time.Millisecond}
			}
		},
	})
	chaosOracle(t, results, mk, contribute)
}

func TestTCPChaosRefuseDial(t *testing.T) {
	mk, contribute := chaosPing(2, 2000)
	results := runTCPChaos(t, 2, mk, contribute, chaosOpts{
		tweak: func(node int, opt *TCPOptions) {
			if node == 1 {
				// Refusal well inside the 5s DialTimeout: the jittered
				// backoff loop must absorb it and the run completes.
				opt.Fault = &FaultPlan{Peer: -1, RefuseDialFor: 700 * time.Millisecond}
			}
		},
	})
	chaosOracle(t, results, mk, contribute)
}

// TestTCPChaosStrayConnection aims garbage at node 0's listener before and
// while the mesh forms: stray connections are transient accept-side events,
// tolerated without counting toward the expected peers.
func TestTCPChaosStrayConnection(t *testing.T) {
	mk, contribute := chaosPing(2, 1000)
	var strayAddr string
	results := runTCPChaos(t, 2, mk, contribute, chaosOpts{
		preStart: func(addrs []string) { strayAddr = addrs[0] },
		tweak: func(node int, opt *TCPOptions) {
			if node == 1 {
				// Give the strays time to land before the real dial.
				opt.Fault = &FaultPlan{Peer: -1, RefuseDialFor: 300 * time.Millisecond}
			}
		},
		onTransport: func(node int, tr *TCPTransport) {
			if node != 0 {
				return
			}
			go func() {
				// A connection that sends garbage, and one that dials and
				// hangs up without a word.
				if c, err := net.Dial("tcp", strayAddr); err == nil {
					c.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
					c.Close()
				}
				if c, err := net.Dial("tcp", strayAddr); err == nil {
					c.Close()
				}
			}()
		},
	})
	chaosOracle(t, results, mk, contribute)
}

// --- handshake rejection ---

func TestTCPHandshakeConfigMismatch(t *testing.T) {
	mk, contribute := chaosPing(2, 1000)
	results := runTCPChaos(t, 2, mk, contribute, chaosOpts{
		tweak: func(node int, opt *TCPOptions) {
			opt.DialTimeout = 2 * time.Second
			opt.ConfigTag = uint64(node) // nodes disagree on the app config
		},
		skipGather: true,
	})
	for i, r := range results {
		if r.err == nil || !errors.Is(r.err, ErrConfigMismatch) {
			t.Errorf("node %d: want ErrConfigMismatch, got %v", i, r.err)
		}
	}
	// The error must name both digests.
	if err := results[0].err; err != nil && !strings.Contains(err.Error(), "digest") {
		t.Errorf("mismatch error does not name the digests: %v", err)
	}
}

// TestTCPHandshakeVersionSkew speaks to a real transport from a hand-rolled
// peer with the wrong protocol version, in both directions.
func TestTCPHandshakeVersionSkew(t *testing.T) {
	skewed := func(node int32) []byte {
		return appendHello(nil, wireHello{magic: helloMagic, proto: protoVersion + 7,
			node: node, nodes: 2, clusters: 2, lps: 2, digest: 1})
	}

	t.Run("acceptor-rejects", func(t *testing.T) {
		// Real transport is node 0; the skewed peer dials it.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTCPTransport(TCPOptions{Node: 0, Peers: []string{ln.Addr().String(), "127.0.0.1:1"},
			Listener: ln, DialTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		cfg := Config{NumClusters: 2, ClusterOf: []int{0, 1}}
		cfg.Net.Transport = tr
		k, err := New(cfg, []Handler{&pingLP{peer: 1, limit: 10, start: true}, &pingLP{peer: 0, limit: 10}})
		if err != nil {
			t.Fatal(err)
		}
		runErr := make(chan error, 1)
		go func() {
			_, err := k.Run()
			runErr <- err
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(skewed(1)); err != nil {
			t.Fatal(err)
		}
		// The acceptor must reply with an abort naming the version problem.
		br := bufio.NewReader(conn)
		typ, body, _, err := readFrame(br, nil)
		if err != nil {
			t.Fatalf("no abort reply: %v", err)
		}
		if typ != frameAbort {
			t.Fatalf("reply frame type %d, want frameAbort", typ)
		}
		r := wireReader{b: body}
		hdr := r.abortHdr()
		reason := string(r.bytes(int(hdr.reasonLen)))
		if hdr.code != abortCodeProto {
			t.Errorf("abort code %d, want abortCodeProto; reason %q", hdr.code, reason)
		}
		if !strings.Contains(reason, "protocol") {
			t.Errorf("abort reason does not explain the version skew: %q", reason)
		}
		if err := <-runErr; err == nil || !errors.Is(err, ErrProtoMismatch) {
			t.Fatalf("Run: want ErrProtoMismatch, got %v", err)
		}
	})

	t.Run("dialer-rejects", func(t *testing.T) {
		// Real transport is node 1; the skewed peer listens as node 0.
		peerLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer peerLn.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			conn, err := peerLn.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			if _, _, _, err := readFrame(br, nil); err != nil {
				return
			}
			conn.Write(skewed(0))
			// Hold the conn open so the dialer reads the reply.
			time.Sleep(time.Second)
		}()
		tr, err := NewTCPTransport(TCPOptions{Node: 1, Peers: []string{peerLn.Addr().String(), ln.Addr().String()},
			Listener: ln, DialTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		cfg := Config{NumClusters: 2, ClusterOf: []int{0, 1}}
		cfg.Net.Transport = tr
		k, err := New(cfg, []Handler{&pingLP{peer: 1, limit: 10, start: true}, &pingLP{peer: 0, limit: 10}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.Run(); err == nil || !errors.Is(err, ErrProtoMismatch) {
			t.Fatalf("Run: want ErrProtoMismatch, got %v", err)
		}
	})
}

// --- accept-side deadline: a missing peer fails start instead of wedging ---

func TestTCPAcceptMissingPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTCPTransport(TCPOptions{Node: 0, Peers: []string{ln.Addr().String(), "127.0.0.1:1"},
		Listener: ln, DialTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := Config{NumClusters: 2, ClusterOf: []int{0, 1}}
	cfg.Net.Transport = tr
	k, err := New(cfg, []Handler{&pingLP{peer: 1, limit: 10, start: true}, &pingLP{peer: 0, limit: 10}})
	if err != nil {
		t.Fatal(err)
	}
	runErr := make(chan error, 1)
	go func() {
		_, err := k.Run()
		runErr <- err
	}()
	select {
	case err = <-runErr:
	case <-time.After(10 * time.Second):
		t.Fatal("start still wedged after 10s; the accept deadline should end it near 500ms")
	}
	if err == nil || !errors.Is(err, ErrPeerDown) {
		t.Fatalf("Run with a never-dialing peer: want ErrPeerDown, got %v", err)
	}
	if !strings.Contains(err.Error(), "0 of 1") {
		t.Errorf("error should count the missing peers: %v", err)
	}
}

// --- teardown edges ---

// TestTCPCloseDuringRun closes node 0's transport mid-run: its own Run must
// return an error (not hang), and node 1 must hear the abort.
func TestTCPCloseDuringRun(t *testing.T) {
	mk, contribute := chaosPing(2, 100000)
	var mu sync.Mutex
	trs := make(map[int]*TCPTransport)
	done := make(chan struct{})
	defer close(done)
	results := runTCPChaos(t, 2, mk, contribute, chaosOpts{
		tweak: func(node int, opt *TCPOptions) { fastDetect(opt) },
		onTransport: func(node int, tr *TCPTransport) {
			mu.Lock()
			trs[node] = tr
			mu.Unlock()
			if node == 0 {
				go func() {
					select {
					case <-time.After(150 * time.Millisecond):
						mu.Lock()
						t0 := trs[0]
						mu.Unlock()
						t0.Close()
					case <-done:
					}
				}()
			}
		},
		skipGather: true,
	})
	if results[0].err == nil {
		t.Error("node 0: Close during the run did not fail Run")
	} else if !strings.Contains(results[0].err.Error(), "closed during the run") {
		t.Errorf("node 0: unexpected error: %v", results[0].err)
	}
	if results[1].err == nil {
		t.Error("node 1: surviving node did not fail after the peer closed")
	} else if !errors.Is(results[1].err, ErrPeerDown) {
		t.Errorf("node 1: error does not wrap ErrPeerDown: %v", results[1].err)
	}
	for i, r := range results {
		if r.runDur > 30*time.Second {
			t.Errorf("node %d: teardown took %v", i, r.runDur)
		}
	}
}

// TestTCPDoubleClose: Close is idempotent after a healthy run and after a
// failed start.
func TestTCPDoubleClose(t *testing.T) {
	mk, contribute := chaosPing(2, 200)
	var mu sync.Mutex
	var trs []*TCPTransport
	results := runTCPChaos(t, 2, mk, contribute, chaosOpts{
		onTransport: func(node int, tr *TCPTransport) {
			mu.Lock()
			trs = append(trs, tr)
			mu.Unlock()
		},
	})
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("node %d: %v", i, r.err)
		}
	}
	for _, tr := range trs {
		// Once already via the harness defer; twice more here.
		if err := tr.Close(); err != nil {
			t.Errorf("second Close: %v", err)
		}
		if err := tr.Close(); err != nil {
			t.Errorf("third Close: %v", err)
		}
	}
}

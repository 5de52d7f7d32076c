package timewarp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// decodeOneFrame runs b through the framing layer and returns the type and
// body, failing the test on any framing error.
func decodeOneFrame(t *testing.T, b []byte) (uint8, []byte) {
	t.Helper()
	typ, body, _, err := readFrame(bufio.NewReader(bytes.NewReader(b)), nil)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	return typ, body
}

// TestWireRoundTrip: every frame-level codec must reproduce its struct
// exactly, with the decoder consuming the whole body (done() == nil). Negative
// and high-bit values are included so sign extension and endianness mistakes
// cannot hide.
func TestWireRoundTrip(t *testing.T) {
	t.Run("event", func(t *testing.T) {
		for _, in := range []Event{
			{},
			{ID: 1<<63 + 7, Sender: -1, Receiver: 2_000_000_000, SendTime: -5, RecvTime: TimeInfinity, Kind: -9, Value: 1 << 30, Anti: true},
			{ID: 42, Sender: 3, Receiver: 4, SendTime: 10, RecvTime: 20, Kind: 1, Value: -2},
		} {
			b := appendEvent(nil, &in)
			// Payload-free events keep the exact pre-payload frame size:
			// scalar-mode traffic is byte-identical to the old format.
			if len(b) != eventWireSize {
				t.Fatalf("encoded event is %d bytes, want %d", len(b), eventWireSize)
			}
			r := &wireReader{b: b}
			out := r.event()
			if err := r.done(); err != nil {
				t.Fatal(err)
			}
			if out != in {
				t.Fatalf("event round trip: got %+v, want %+v", out, in)
			}
		}
	})
	t.Run("event with payload", func(t *testing.T) {
		for _, in := range []Event{
			{ID: 9, Sender: 1, Receiver: 2, SendTime: 3, RecvTime: 4, Kind: 0, Pay: Payload{P0: 0xDEADBEEFCAFEF00D, P1: 1}},
			{ID: 10, Sender: -1, Receiver: 0, RecvTime: TimeInfinity, Anti: true, Pay: Payload{P0: ^uint64(0), P1: ^uint64(0)}},
		} {
			b := appendEvent(nil, &in)
			if len(b) != eventWireSize+payloadWireSize {
				t.Fatalf("encoded payload event is %d bytes, want %d", len(b), eventWireSize+payloadWireSize)
			}
			r := &wireReader{b: b}
			out := r.event()
			if err := r.done(); err != nil {
				t.Fatal(err)
			}
			if out != in {
				t.Fatalf("payload event round trip: got %+v, want %+v", out, in)
			}
			// A truncated payload (flag set, planes cut short) must be
			// rejected, never silently decoded as zero.
			rt := &wireReader{b: b[:len(b)-1]}
			rt.event()
			if rt.done() == nil {
				t.Fatal("truncated payload accepted")
			}
		}
	})
	t.Run("batchHdr", func(t *testing.T) {
		in := batchHdr{n: 1 << 20, color: 1, dueNano: -12345}
		b := appendBatchHdr(nil, in)
		if len(b) != batchHdrWireSize {
			t.Fatalf("encoded batchHdr is %d bytes, want %d", len(b), batchHdrWireSize)
		}
		r := &wireReader{b: b}
		out := r.batchHdr()
		if err := r.done(); err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("batchHdr round trip: got %+v, want %+v", out, in)
		}
	})
	t.Run("coord", func(t *testing.T) {
		in := wireCoord{round: 7, reportRound: 6, gvt: -1, done: 1, bits: ctrlCut | ctrlWake}
		typ, body := decodeOneFrame(t, appendCoord(nil, in))
		if typ != frameCoord {
			t.Fatalf("frame type %d, want coord", typ)
		}
		r := &wireReader{b: body}
		out := r.coord()
		if err := r.done(); err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("coord round trip: got %+v, want %+v", out, in)
		}
	})
	t.Run("mirror", func(t *testing.T) {
		in := wireMirror{cluster: 3, next: -7, recv0: 1 << 40, recv1: 17}
		b := appendMirror(nil, in)
		if len(b) != 33 {
			t.Fatalf("mirror frame is %d bytes, want 33", len(b))
		}
		typ, body := decodeOneFrame(t, b)
		if typ != frameMirror {
			t.Fatalf("frame type %d, want mirror", typ)
		}
		r := &wireReader{b: body}
		out := r.mirror()
		if err := r.done(); err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("mirror round trip: got %+v, want %+v", out, in)
		}
	})
	t.Run("ackCut", func(t *testing.T) {
		in := wireAckCut{cluster: 2, sent0: 99, sent1: 1<<50 + 1}
		typ, body := decodeOneFrame(t, appendAckCut(nil, in))
		if typ != frameAckCut {
			t.Fatalf("frame type %d, want ackCut", typ)
		}
		r := &wireReader{b: body}
		out := r.ackCut()
		if err := r.done(); err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("ackCut round trip: got %+v, want %+v", out, in)
		}
	})
	t.Run("report", func(t *testing.T) {
		in := wireReport{cluster: 1, min: TimeInfinity}
		typ, body := decodeOneFrame(t, appendReport(nil, in))
		if typ != frameReport {
			t.Fatalf("frame type %d, want report", typ)
		}
		r := &wireReader{b: body}
		out := r.report()
		if err := r.done(); err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("report round trip: got %+v, want %+v", out, in)
		}
	})
	t.Run("hello", func(t *testing.T) {
		in := wireHello{magic: helloMagic, proto: protoVersion, node: 3, nodes: 4, clusters: 8, lps: 100, digest: 0xDEADBEEFCAFEF00D}
		b := appendHello(nil, in)
		typ, body := decodeOneFrame(t, b)
		if typ != frameHello {
			t.Fatalf("frame type %d, want hello", typ)
		}
		if len(body) != wireHelloSize {
			t.Fatalf("hello body is %d bytes, want wireHelloSize=%d", len(body), wireHelloSize)
		}
		r := &wireReader{b: body}
		out := r.hello()
		if err := r.done(); err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Fatalf("hello round trip: got %+v, want %+v", out, in)
		}
	})
	t.Run("abort", func(t *testing.T) {
		for _, reason := range []string{"", "node 2: mesh peer failure", strings.Repeat("x", maxAbortReason+50)} {
			b := appendAbort(nil, 2, abortCodeConfig, reason)
			typ, body := decodeOneFrame(t, b)
			if typ != frameAbort {
				t.Fatalf("frame type %d, want abort", typ)
			}
			r := &wireReader{b: body}
			hdr := r.abortHdr()
			got := string(r.bytes(int(hdr.reasonLen)))
			if err := r.done(); err != nil {
				t.Fatal(err)
			}
			if hdr.origin != 2 || hdr.code != abortCodeConfig {
				t.Fatalf("abort header round trip: %+v", hdr)
			}
			want := reason
			if len(want) > maxAbortReason {
				want = want[:maxAbortReason] // encoder truncates oversized reasons
			}
			if got != want {
				t.Fatalf("abort reason round trip: got %d bytes, want %d", len(got), len(want))
			}
		}
	})
}

// TestWireFrameRejection: the framing layer and the decoders must reject
// truncated and corrupt input with errors, never a panic, a hang, or a
// silently misparsed value.
func TestWireFrameRejection(t *testing.T) {
	read := func(b []byte) error {
		_, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(b)), nil)
		return err
	}
	t.Run("empty stream is clean EOF", func(t *testing.T) {
		if err := read(nil); err != io.EOF {
			t.Fatalf("err = %v, want io.EOF", err)
		}
	})
	t.Run("partial length prefix", func(t *testing.T) {
		if err := read([]byte{1, 0}); err != io.ErrUnexpectedEOF {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("zero-length frame", func(t *testing.T) {
		err := read([]byte{0, 0, 0, 0})
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("err = %v, want length out of range", err)
		}
	})
	t.Run("oversized length prefix", func(t *testing.T) {
		b := appendU32(nil, maxFrameLen+1)
		err := read(b)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("err = %v, want length out of range", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		b := appendU32(nil, 10)
		b = append(b, frameCoord, 1, 2, 3) // promises 10 bytes, delivers 4
		if err := read(b); err != io.ErrUnexpectedEOF {
			t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
		}
	})
	t.Run("truncated struct saturates", func(t *testing.T) {
		r := &wireReader{b: []byte{1, 2, 3}} // coord needs 34 bytes
		c := r.coord()
		if r.done() == nil {
			t.Fatal("truncated coord body accepted")
		}
		if c.gvt != 0 || c.done != 0 || c.bits != 0 {
			t.Fatalf("saturated reads returned nonzero: %+v", c)
		}
	})
	t.Run("trailing bytes rejected", func(t *testing.T) {
		b := appendReport(nil, wireReport{cluster: 1, min: 2})
		// Extend the body by one byte and patch the length prefix to match.
		b = append(b, 0xFF)
		b[0]++
		_, body := decodeOneFrame(t, b)
		r := &wireReader{b: body}
		r.report()
		err := r.done()
		if err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Fatalf("err = %v, want trailing-bytes rejection", err)
		}
	})
	t.Run("negative bytes count", func(t *testing.T) {
		r := &wireReader{b: []byte{1, 2, 3, 4}}
		if got := r.bytes(-1); got != nil || r.done() == nil {
			t.Fatal("negative bytes() length accepted")
		}
	})
	t.Run("truncated hello", func(t *testing.T) {
		b := appendHello(nil, wireHello{magic: helloMagic, proto: protoVersion, node: 1, nodes: 2, clusters: 2, lps: 2, digest: 9})
		// A v1-era short hello: cut the body and patch the prefix. The decoder
		// must saturate and fail done(), which the handshake maps to
		// ErrProtoMismatch.
		short := b[:4+5]
		binary.LittleEndian.PutUint32(short[:4], 5)
		_, body := decodeOneFrame(t, short)
		r := &wireReader{b: body}
		r.hello()
		if r.done() == nil {
			t.Fatal("truncated hello accepted")
		}
	})
	t.Run("abort negative reason length", func(t *testing.T) {
		var b []byte
		var off int
		b, off = beginFrame(b, frameAbort)
		b = appendI32(b, 1)
		b = appendU8(b, abortCodeFatal)
		b = appendI32(b, -5)
		b = endFrame(b, off)
		_, body := decodeOneFrame(t, b)
		r := &wireReader{b: body}
		r.abortHdr()
		if r.done() == nil {
			t.Fatal("negative abort reason length accepted")
		}
	})
	t.Run("abort reason length beyond cap", func(t *testing.T) {
		var b []byte
		var off int
		b, off = beginFrame(b, frameAbort)
		b = appendI32(b, 1)
		b = appendU8(b, abortCodeFatal)
		b = appendI32(b, maxAbortReason+1)
		b = endFrame(b, off)
		_, body := decodeOneFrame(t, b)
		r := &wireReader{b: body}
		r.abortHdr()
		if r.done() == nil {
			t.Fatal("abort reason length beyond cap accepted")
		}
	})
}

// fuzzFrameStream decodes a byte stream exactly as readLoop does — framing
// layer, then the per-type decoder — asserting that nothing panics and that
// every accepted control frame re-encodes to the identical body. Control
// frames go through the kernel's own decodeCtrl; the transport-only frames
// mirror apply. It returns the first framing or decode error, or nil when
// every frame decoded and the stream ended cleanly.
func fuzzFrameStream(t *testing.T, data []byte) error {
	k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}},
		[]Handler{&pingLP{peer: 1}, &pingLP{peer: 0}})
	if err != nil {
		t.Fatal(err)
	}
	var first error
	note := func(err error) {
		if first == nil {
			first = err
		}
	}
	br := bufio.NewReader(bytes.NewReader(data))
	var scratch []byte
	for {
		typ, body, s, err := readFrame(br, scratch)
		scratch = s
		if err != nil {
			if err != io.EOF {
				note(err)
			}
			return first
		}
		r := &wireReader{b: body}
		switch typ {
		case frameHello:
			r.hello()
		case frameHeartbeat, frameFin:
			// No body.
		case frameAbort:
			hdr := r.abortHdr()
			r.bytes(int(hdr.reasonLen))
		case frameBatch:
			r.i32()
			hdr := r.batchHdr()
			// Mirror apply(): events are variable-size, so the count check is
			// a lower bound and the decode loop + done() do the real check.
			if r.err != nil || hdr.n < 0 || int(hdr.n)*eventWireSize > len(r.b) {
				note(fmt.Errorf("batch of %d events in a %d-byte body", hdr.n, len(r.b)))
				continue
			}
			for i := int32(0); i < hdr.n; i++ {
				r.event()
			}
		case frameMirror:
			r.mirror()
		case frameSum:
			// Mirror apply(): the body is whole words, nothing else.
			if len(r.b)%8 != 0 {
				note(fmt.Errorf("sum body of %d bytes", len(r.b)))
				continue
			}
			for len(r.b) > 0 {
				r.u64()
			}
		default:
			m, err := k.decodeCtrl(typ, body)
			if err != nil {
				note(err)
				continue
			}
			// encode∘decode is the identity on accepted control frames.
			if re := m.appendFrame(nil); !bytes.Equal(re[5:], body) {
				t.Fatalf("frame type %d re-encodes to % x, received % x", typ, re[5:], body)
			}
			continue
		}
		if err := r.done(); err != nil {
			note(err)
		}
	}
}

// FuzzWireFrame feeds arbitrary byte streams through the full inbound decode
// path. The properties: no panic, no out-of-bounds access, and accepted
// control frames re-encode byte-identically.
func FuzzWireFrame(f *testing.F) {
	var seed []byte
	seed = appendCoord(seed, wireCoord{round: 1, reportRound: 1, gvt: 5, bits: ctrlCut})
	seed = appendMirror(seed, wireMirror{cluster: 1, next: 12, recv0: 3, recv1: 4})
	seed = appendAckCut(seed, wireAckCut{cluster: 0, sent0: 3, sent1: 4})
	seed = appendReport(seed, wireReport{cluster: 1, min: 77})
	req := ctrlMsg{typ: frameReqGVT}
	seed = req.appendFrame(seed)
	f.Add(seed)
	var batch []byte
	var off int
	batch, off = beginFrame(batch, frameBatch)
	batch = appendI32(batch, 0)
	batch = appendBatchHdr(batch, batchHdr{n: 1, color: 1})
	batch = appendEvent(batch, &Event{ID: 7, Sender: 1, RecvTime: 9})
	batch = endFrame(batch, off)
	f.Add(batch)
	var hs []byte
	hs = appendHello(hs, wireHello{magic: helloMagic, proto: protoVersion, node: 0, nodes: 2, clusters: 2, lps: 2, digest: 7})
	hs = appendAbort(hs, 1, abortCodeProto, "wire-protocol mismatch")
	hs, off = beginFrame(hs, frameHeartbeat)
	hs = endFrame(hs, off)
	f.Add(hs)
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) { fuzzFrameStream(t, data) })
}

// fuzzEventRoundTrip: any prefix that decodes as one (variable-size) event
// re-encodes to a canonical form which then round-trips exactly. (The raw
// bytes need not round-trip — the flags byte has dead bits, and an encoded
// all-zero payload decodes to the same Event as an absent one.) A body too
// short for the fields it promises — including a set payload flag with
// truncated planes — must fail the decode, never misparse; that decode
// error is returned.
func fuzzEventRoundTrip(t *testing.T, data []byte) error {
	r := &wireReader{b: data}
	ev := r.event()
	if r.err != nil {
		return r.err // truncated input: rejection is the correct outcome
	}
	b := appendEvent(nil, &ev)
	r2 := &wireReader{b: b}
	ev2 := r2.event()
	if r2.done() != nil || ev2 != ev {
		t.Fatalf("event round trip: %+v vs %+v", ev, ev2)
	}
	return nil
}

// FuzzWireEvent fuzzes the event codec through decode → encode → decode.
func FuzzWireEvent(f *testing.F) {
	f.Add(appendEvent(nil, &Event{ID: 1, Sender: 0, Receiver: 1, SendTime: 2, RecvTime: 3, Kind: 4, Value: 5}))
	f.Add(appendEvent(nil, &Event{ID: 1 << 62, Sender: -1, Receiver: 0, RecvTime: TimeInfinity, Anti: true}))
	f.Add(appendEvent(nil, &Event{ID: 2, Sender: 1, Receiver: 0, RecvTime: 8, Pay: Payload{P0: 0xABCD, P1: 0x1234}}))
	f.Fuzz(func(t *testing.T, data []byte) { fuzzEventRoundTrip(t, data) })
}

// corpusRejects names the corpus entries that are malformed on purpose.
// TestWireFuzzCorpus requires exactly these to fail decoding: every other
// entry must decode, so a wire-format change that leaves the committed
// corpus stale fails the test instead of quietly fuzzing from rejected
// inputs.
var corpusRejects = map[string]bool{
	"FuzzWireFrame/seed_abort_overrun":           true,
	"FuzzWireFrame/seed_ack_load":                true,
	"FuzzWireFrame/seed_batch_truncated_payload": true,
	"FuzzWireFrame/seed_hello_truncated":         true,
	"FuzzWireFrame/seed_retired":                 true,
	"FuzzWireFrame/seed_retired_v4":              true,
	"FuzzWireFrame/seed_truncated":               true,
}

// TestWireFuzzCorpus replays the checked-in fuzz corpus under plain `go test`,
// so CI exercises every regression input without the -fuzz flag.
func TestWireFuzzCorpus(t *testing.T) {
	for name, fn := range map[string]func(*testing.T, []byte) error{
		"FuzzWireFrame": fuzzFrameStream,
		"FuzzWireEvent": fuzzEventRoundTrip,
	} {
		dir := filepath.Join("testdata", "fuzz", name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("reading corpus %s (regenerate with WIRE_CORPUS=1): %v", dir, err)
		}
		if len(entries) == 0 {
			t.Fatalf("corpus %s is empty", dir)
		}
		for _, e := range entries {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitN(string(raw), "\n", 2)
			if len(lines) != 2 || !strings.HasPrefix(lines[0], "go test fuzz v1") {
				t.Fatalf("%s/%s is not a v1 corpus file", dir, e.Name())
			}
			var data []byte
			if _, err := fmt.Sscanf(strings.TrimSpace(lines[1]), "[]byte(%q)", &data); err != nil {
				t.Fatalf("%s/%s: %v", dir, e.Name(), err)
			}
			entry := name + "/" + e.Name()
			t.Run(entry, func(t *testing.T) {
				err := fn(t, data)
				switch {
				case corpusRejects[entry] && err == nil:
					t.Fatal("malformed entry decoded without error")
				case !corpusRejects[entry] && err != nil:
					t.Fatalf("entry no longer decodes (regenerate with WIRE_CORPUS=1): %v", err)
				}
			})
		}
	}
}

// TestGenerateWireCorpus writes the seed corpus under testdata/fuzz when
// WIRE_CORPUS=1 is set. The files are committed; regenerate after changing the
// wire format.
func TestGenerateWireCorpus(t *testing.T) {
	if os.Getenv("WIRE_CORPUS") == "" {
		t.Skip("set WIRE_CORPUS=1 to regenerate the seed corpus")
	}
	write := func(fuzzer, name string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", fuzzer)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var stream []byte
	stream = appendCoord(stream, wireCoord{round: 2, reportRound: 1, gvt: 40, bits: ctrlReport})
	stream = appendMirror(stream, wireMirror{cluster: 1, next: 60, recv0: 10, recv1: 2})
	stream = appendAckCut(stream, wireAckCut{cluster: 1, sent0: 10, sent1: 2})
	stream = appendReport(stream, wireReport{cluster: 1, min: 55})
	req := ctrlMsg{typ: frameReqGVT}
	stream = req.appendFrame(stream)
	write("FuzzWireFrame", "seed_control", stream)

	// Retired frames, each with the body it had in protocol version 3. A
	// load-round ack: cluster 1, two LPs' committed counts and end offsets,
	// then three send-matrix rows.
	ack, off := beginFrame(nil, frameAckLoad)
	ack = appendI32(ack, 1)
	ack = appendI32(ack, 2)
	for _, row := range [][3]int64{{0, 12, 1}, {1, 7, 3}} { // LP, committed, edge end
		ack = appendI32(ack, int32(row[0]))
		ack = appendU64(ack, uint64(row[1]))
		ack = appendI32(ack, int32(row[2]))
	}
	ack = appendI32(ack, 3)
	for _, e := range [][2]int64{{1, 12}, {0, 6}, {1, 1}} {
		ack = appendI32(ack, int32(e[0]))
		ack = appendU64(ack, uint64(e[1]))
	}
	write("FuzzWireFrame", "seed_ack_load", endFrame(ack, off))
	// An order (cluster 1: move LP 1 to cluster 0), a payload (cluster 0,
	// color 1, three bytes) and a route (LP 1 to cluster 0).
	var retired []byte
	for _, f := range []struct {
		typ  uint8
		body []byte
	}{
		{frameOrder, appendI32(appendI32(appendI32(nil, 1), 1), 0)},
		{framePayload, append(appendI32(nil, 0), 1, 1, 2, 3)},
		{frameRoute, appendI32(appendI32(nil, 1), 0)},
	} {
		retired, off = beginFrame(retired, f.typ)
		retired = endFrame(append(retired, f.body...), off)
	}
	write("FuzzWireFrame", "seed_retired", retired)
	// Frames retired in protocol version 5, with their version-4 bodies: a
	// counts frame (cluster 1, received 10 and 2) and a sum reply (two words).
	retired = nil
	for _, f := range []struct {
		typ  uint8
		body []byte
	}{
		{frameCounts, appendI64(appendI64(appendI32(nil, 1), 10), 2)},
		{frameSumReply, appendU64(appendU64(appendI32(nil, 2), 301), 7)},
	} {
		retired, off = beginFrame(retired, f.typ)
		retired = endFrame(append(retired, f.body...), off)
	}
	write("FuzzWireFrame", "seed_retired_v4", retired)

	// The end of a run: FIN, then a GatherSum contribution of two words.
	end, off := beginFrame(nil, frameFin)
	end = endFrame(end, off)
	end, off = beginFrame(end, frameSum)
	end = endFrame(appendU64(appendU64(end, 301), 7), off)
	write("FuzzWireFrame", "seed_end_of_run", end)

	var batch []byte
	batch, off = beginFrame(batch, frameBatch)
	batch = appendI32(batch, 1)
	batch = appendBatchHdr(batch, batchHdr{n: 2, color: 0, dueNano: 0})
	batch = appendEvent(batch, &Event{ID: 1, Sender: 0, Receiver: 1, SendTime: 1, RecvTime: 5, Value: 3})
	batch = appendEvent(batch, &Event{ID: 2, Sender: 0, Receiver: 1, SendTime: 1, RecvTime: 6, Anti: true})
	batch = endFrame(batch, off)
	write("FuzzWireFrame", "seed_batch", batch)

	// A batch mixing plain and payload-bearing (wide) events: the widened
	// frame format the vectored simulator ships.
	var vbatch []byte
	vbatch, off = beginFrame(vbatch, frameBatch)
	vbatch = appendI32(vbatch, 0)
	vbatch = appendBatchHdr(vbatch, batchHdr{n: 2, color: 1, dueNano: 0})
	vbatch = appendEvent(vbatch, &Event{ID: 3, Sender: 1, Receiver: 0, SendTime: 2, RecvTime: 7, Pay: Payload{P0: 0x0123456789ABCDEF, P1: 0xFEDCBA9876543210}})
	vbatch = appendEvent(vbatch, &Event{ID: 4, Sender: 1, Receiver: 0, SendTime: 2, RecvTime: 8, Value: 1})
	vbatch = endFrame(vbatch, off)
	write("FuzzWireFrame", "seed_batch_payload", vbatch)

	// A batch whose event sets the payload flag but whose body is cut short
	// of the planes: must be rejected by the decode loop, not misparsed.
	cut := append([]byte(nil), vbatch...)
	cut = cut[:len(cut)-eventWireSize-payloadWireSize+3]
	binary.LittleEndian.PutUint32(cut[:4], uint32(len(cut)-4))
	write("FuzzWireFrame", "seed_batch_truncated_payload", cut)

	var trunc []byte
	trunc = appendU32(trunc, 50)
	trunc = append(trunc, frameCoord, 1, 2, 3)
	write("FuzzWireFrame", "seed_truncated", trunc)

	// Handshake and failure frames: a well-formed hello, an abort with a
	// reason, and a bare heartbeat, as one stream.
	var hshake []byte
	hshake = appendHello(hshake, wireHello{magic: helloMagic, proto: protoVersion, node: 1, nodes: 2, clusters: 4, lps: 8, digest: 0x1234567890ABCDEF})
	hshake = appendAbort(hshake, 0, abortCodeFatal, "node 0: mesh peer failure: node 1 sent no frame within 500ms")
	hshake, off = beginFrame(hshake, frameHeartbeat)
	hshake = endFrame(hshake, off)
	write("FuzzWireFrame", "seed_handshake", hshake)

	// A version-skewed hello: well-framed, wrong proto. The stream decoder
	// accepts the frame shape; rejection is the handshake's job.
	write("FuzzWireFrame", "seed_hello_skewed",
		appendHello(nil, wireHello{magic: helloMagic, proto: protoVersion + 1, node: 0, nodes: 2, clusters: 2, lps: 2, digest: 1}))

	// A truncated hello, as a v1 peer (whose hello was a bare node id) would
	// send: 4-byte body, patched prefix.
	oldHello := appendHello(nil, wireHello{magic: helloMagic, proto: protoVersion, node: 1, nodes: 2, clusters: 2, lps: 2, digest: 1})
	oldHello = oldHello[:4+1+4]
	binary.LittleEndian.PutUint32(oldHello[:4], 5)
	write("FuzzWireFrame", "seed_hello_truncated", oldHello)

	// An abort whose reason length overruns both the cap and the body.
	var badAbort []byte
	badAbort, off = beginFrame(badAbort, frameAbort)
	badAbort = appendI32(badAbort, 1)
	badAbort = appendU8(badAbort, abortCodeFatal)
	badAbort = appendI32(badAbort, maxAbortReason+9)
	badAbort = endFrame(badAbort, off)
	write("FuzzWireFrame", "seed_abort_overrun", badAbort)

	write("FuzzWireEvent", "seed_plain",
		appendEvent(nil, &Event{ID: 3, Sender: 1, Receiver: 0, SendTime: 4, RecvTime: 9, Kind: 2, Value: -7}))
	write("FuzzWireEvent", "seed_anti",
		appendEvent(nil, &Event{ID: 1 << 40, Sender: -1, Receiver: 2, SendTime: 0, RecvTime: TimeInfinity, Anti: true}))
	write("FuzzWireEvent", "seed_payload",
		appendEvent(nil, &Event{ID: 5, Sender: 2, Receiver: 1, SendTime: 3, RecvTime: 11, Pay: Payload{P0: ^uint64(0), P1: 0xA5A5A5A5A5A5A5A5}}))
}

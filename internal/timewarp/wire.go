package timewarp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Wire format of the TCP transport.
//
// Every frame is [u32 body length][u8 frame type][body], all integers
// little-endian. Bodies are fixed layouts of flat values — no varints, no
// reflection, no per-frame allocation on the encode side (frames append into
// the per-peer outbound buffer). Every struct that crosses the wire carries a
// //kernelvet:wire annotation, and the wiresafe analyzer proves it contains
// only fixed-size scalar fields, so "encode" and "decode" are field-by-field
// copies that cannot drag pointers, lengths, or platform-dependent sizes onto
// the wire.
//
// Decoding is defensive: the frame length is capped (maxFrameLen), every read
// goes through wireReader, which saturates on truncation instead of
// panicking, and decoders reject bodies with trailing bytes. A corrupt or
// truncated frame therefore surfaces as an error from the transport, never as
// an out-of-bounds access or a silently misparsed event.

// Frame types. The hello frame opens every connection (versioned handshake,
// see wireHello); fin is the last frame a node sends for the run proper, and
// only its sum frame, GatherSum's contribution, may follow. A mirror frame
// refreshes a remote cluster's progress and received counters. Heartbeat
// frames keep idle lanes visibly alive for the peer-failure detector; an
// abort frame is a node's dying breath, telling the mesh why it is tearing
// down. Retired frames — frameCtrl, frameCounts (folded into the mirror
// frame), the four dynamic-balancing frames (frameAckLoad, frameOrder,
// framePayload, frameRoute) and frameSumReply (GatherSum is all-to-all) —
// are sent by no node and rejected by receivers, but their numbers stay
// taken. New types are appended — renumbering existing ones is a
// wire-protocol break and must bump protoVersion.
const (
	frameHello uint8 = 1 + iota
	frameBatch
	frameCtrl // retired
	frameMirror
	frameCounts // retired
	frameCoord
	frameReqGVT
	frameAckCut
	frameReport
	frameAckLoad // retired
	frameOrder   // retired
	framePayload // retired
	frameRoute   // retired
	frameFin
	frameSum
	frameSumReply // retired
	frameHeartbeat
	frameAbort
)

// maxFrameLen caps a frame body. The largest legitimate frames are event
// batches (bounded by InboxSize events); 64 MiB is orders of magnitude above
// them, so anything larger is a corrupt length prefix, rejected before any
// allocation.
const maxFrameLen = 64 << 20

// helloMagic opens every wireHello. A connection whose first frame does not
// carry it is not a timewarp mesh peer (a port scanner, a stray client, a
// mesh from a different deployment) and is rejected before anything else is
// decoded. "TWMP": Time Warp Mesh Protocol.
const helloMagic uint32 = 0x54574d50

// protoVersion is the wire-protocol version carried in every hello. Bump it
// on any frame-layout or frame-numbering change; peers with different
// versions refuse to mesh (ErrProtoMismatch) instead of misparsing each
// other. Version 1 was the bare node-id hello; version 2 added the
// versioned handshake itself plus heartbeat and abort frames; version 3
// dropped the per-LP rollback and remote-send counters from migration
// payloads and load acks; version 4 retired the load-ack, order, payload and
// route frames and the load round in the coord frame, since LPs no longer
// migrate between processes; version 5 merged the progress and counts frames
// into one mirror frame and made GatherSum all-to-all, retiring the counts
// and sum-reply frames and dropping the sender and count fields of the sum
// frame.
const protoVersion uint16 = 5

// maxAbortReason caps the reason string carried by a frameAbort. Reasons are
// human-readable error text; anything longer is truncated at encode time,
// and a decoded length above the cap marks the frame corrupt.
const maxAbortReason = 1 << 12

// eventWireSize is the encoded size of one payload-free Event: ID(8) +
// Sender(4) + Receiver(4) + SendTime(8) + RecvTime(8) + Kind(4) + Value(4) +
// flags(1). An event with a nonzero Payload sets eventFlagPayload in the
// flags byte and is followed by payloadWireSize extra bytes, so events are
// variable-size on the wire and eventWireSize is the minimum. A scalar-mode
// run never carries a payload, so its frames are byte-identical to the
// pre-payload format.
const eventWireSize = 41

// payloadWireSize is the encoded size of a Payload: P0(8) + P1(8).
const payloadWireSize = 16

// Event flag bits.
const (
	eventFlagAnti    uint8 = 1 << 0
	eventFlagPayload uint8 = 1 << 1
)

// batchHdrWireSize is the encoded size of one batchHdr: n(4) + color(1) +
// dueNano(8).
const batchHdrWireSize = 13

// Append-style primitive encoders.

func appendU8(b []byte, v uint8) []byte { return append(b, v) }

func appendU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendI32(b []byte, v int32) []byte { return appendU32(b, uint32(v)) }

func appendI64(b []byte, v int64) []byte { return appendU64(b, uint64(v)) }

// beginFrame reserves a frame's length prefix and writes its type; endFrame
// patches the prefix once the body is appended. Usage:
//
//	b, off := beginFrame(b, frameReport)
//	b = append...(b, ...)
//	b = endFrame(b, off)
func beginFrame(b []byte, typ uint8) ([]byte, int) {
	off := len(b)
	b = append(b, 0, 0, 0, 0, typ)
	return b, off
}

func endFrame(b []byte, off int) []byte {
	binary.LittleEndian.PutUint32(b[off:], uint32(len(b)-off-4))
	return b
}

// readFrame reads one length-prefixed frame, reusing scratch for the body
// (type byte included). It returns the frame type and the body bytes after
// the type byte; the body is valid until the next call.
func readFrame(r *bufio.Reader, scratch []byte) (uint8, []byte, []byte, error) {
	// Peek reads the prefix in place, where a local array would escape.
	pre, err := r.Peek(4)
	if err != nil {
		if err == io.EOF && len(pre) > 0 {
			err = io.ErrUnexpectedEOF // a stream cut inside a length prefix
		}
		return 0, nil, scratch, err
	}
	n := binary.LittleEndian.Uint32(pre)
	r.Discard(4) // cannot fail: Peek returned the 4 bytes
	if n < 1 || n > maxFrameLen {
		return 0, nil, scratch, fmt.Errorf("timewarp: wire frame length %d out of range", n)
	}
	if cap(scratch) < int(n) {
		scratch = make([]byte, n)
	}
	body := scratch[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // a length prefix promised more bytes
		}
		return 0, nil, scratch, err
	}
	return body[0], body[1:], scratch, nil
}

// wireReader is a bounds-checked decode cursor. Reads past the end saturate
// (returning zero values) and latch an error instead of panicking, so one
// check after decoding covers every field of a corrupt frame.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("timewarp: truncated wire frame")
	}
	r.b = nil
}

func (r *wireReader) u8() uint8 {
	if len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *wireReader) u16() uint16 {
	if len(r.b) < 2 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v
}

func (r *wireReader) u32() uint32 {
	if len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *wireReader) u64() uint64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *wireReader) i32() int32 { return int32(r.u32()) }

func (r *wireReader) i64() int64 { return int64(r.u64()) }

// bytes returns the next n bytes of the body (aliasing the frame buffer; the
// caller copies if it retains them).
func (r *wireReader) bytes(n int) []byte {
	if n < 0 || len(r.b) < n {
		r.fail()
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// done reports the latched error, or rejects trailing bytes: a frame whose
// body is longer than its fields is as corrupt as one that is shorter.
func (r *wireReader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("timewarp: wire frame has %d trailing bytes", len(r.b))
	}
	return nil
}

// Event codec.

func appendEvent(b []byte, ev *Event) []byte {
	b = appendU64(b, ev.ID)
	b = appendI32(b, int32(ev.Sender))
	b = appendI32(b, int32(ev.Receiver))
	b = appendI64(b, ev.SendTime)
	b = appendI64(b, ev.RecvTime)
	b = appendI32(b, ev.Kind)
	b = appendI32(b, ev.Value)
	var flags uint8
	if ev.Anti {
		flags |= eventFlagAnti
	}
	if ev.Pay != (Payload{}) {
		flags |= eventFlagPayload
	}
	b = appendU8(b, flags)
	if flags&eventFlagPayload != 0 {
		b = appendU64(b, ev.Pay.P0)
		b = appendU64(b, ev.Pay.P1)
	}
	return b
}

func (r *wireReader) event() Event {
	ev := Event{
		ID:       r.u64(),
		Sender:   LPID(r.i32()),
		Receiver: LPID(r.i32()),
		SendTime: r.i64(),
		RecvTime: r.i64(),
		Kind:     r.i32(),
		Value:    r.i32(),
	}
	flags := r.u8()
	ev.Anti = flags&eventFlagAnti != 0
	if flags&eventFlagPayload != 0 {
		// An absent payload decodes to exactly Payload{}, so omit-if-zero
		// loses nothing and the scalar frame format is unchanged.
		ev.Pay.P0 = r.u64()
		ev.Pay.P1 = r.u64()
	}
	return ev
}

// batchHdr codec.

func appendBatchHdr(b []byte, h batchHdr) []byte {
	b = appendI32(b, h.n)
	b = appendU8(b, h.color)
	return appendI64(b, h.dueNano)
}

func (r *wireReader) batchHdr() batchHdr {
	return batchHdr{n: r.i32(), color: r.u8(), dueNano: r.i64()}
}

// wireCoord is the coordinator's replicated round state, broadcast from node
// 0 whenever a wave opens or a GVT lands. Every field is monotone over the
// run, and the per-connection FIFO delivers frames in publication order, so
// applying a coord frame is a set of plain stores.
//
//kernelvet:wire
type wireCoord struct {
	round       int64
	reportRound int64
	gvt         int64
	done        uint8
	// bits is the control bitmask to post into the receiving node's local
	// mailboxes (Kernel.applyCoord).
	bits uint8
}

func appendCoord(b []byte, c wireCoord) []byte {
	var off int
	b, off = beginFrame(b, frameCoord)
	b = appendI64(b, c.round)
	b = appendI64(b, c.reportRound)
	b = appendI64(b, c.gvt)
	b = appendU8(b, c.done)
	b = appendU8(b, c.bits)
	return endFrame(b, off)
}

func (r *wireReader) coord() wireCoord {
	return wireCoord{
		round:       r.i64(),
		reportRound: r.i64(),
		gvt:         r.i64(),
		done:        r.u8(),
		bits:        r.u8(),
	}
}

// wireMirror refreshes this node's shell of a remote cluster: the next work
// time its owner published and its cumulative received-event counters (the
// wave-1 drain probe's input). Conflated, so only the freshest values are
// ever in flight.
//
//kernelvet:wire
type wireMirror struct {
	cluster int32
	next    Time
	recv0   int64
	recv1   int64
}

func appendMirror(b []byte, m wireMirror) []byte {
	var off int
	b, off = beginFrame(b, frameMirror)
	b = appendI32(b, m.cluster)
	b = appendI64(b, m.next)
	b = appendI64(b, m.recv0)
	b = appendI64(b, m.recv1)
	return endFrame(b, off)
}

func (r *wireReader) mirror() wireMirror {
	return wireMirror{cluster: r.i32(), next: r.i64(), recv0: r.i64(), recv1: r.i64()}
}

// wireAckCut is a cluster's wave-1 join ack. It pins the cluster's white
// cumulative sent counters: the ack is encoded after the color flip on the
// cluster's own goroutine, so the values it carries are the final white
// counts the drain probe compares against.
//
//kernelvet:wire
type wireAckCut struct {
	cluster int32
	sent0   int64
	sent1   int64
}

func appendAckCut(b []byte, a wireAckCut) []byte {
	var off int
	b, off = beginFrame(b, frameAckCut)
	b = appendI32(b, a.cluster)
	b = appendI64(b, a.sent0)
	b = appendI64(b, a.sent1)
	return endFrame(b, off)
}

func (r *wireReader) ackCut() wireAckCut {
	return wireAckCut{cluster: r.i32(), sent0: r.i64(), sent1: r.i64()}
}

// wireReport is a cluster's wave-2 GVT contribution.
//
//kernelvet:wire
type wireReport struct {
	cluster int32
	min     Time
}

func appendReport(b []byte, w wireReport) []byte {
	var off int
	b, off = beginFrame(b, frameReport)
	b = appendI32(b, w.cluster)
	b = appendI64(b, w.min)
	return endFrame(b, off)
}

func (r *wireReader) report() wireReport {
	return wireReport{cluster: r.i32(), min: r.i64()}
}

// wireHello is the versioned handshake, the first frame on every connection
// in both directions: the dialer sends one, the acceptor validates it and
// replies with its own. Beyond the magic number and wire-protocol version it
// carries the dialing node's id and a fingerprint of everything that must
// agree for a deterministic distributed run — the mesh size, the cluster and
// LP counts, and a digest folding in every remaining config knob that
// affects event ordering (GVT period, flush/latency model, optimism window,
// seeds via TCPOptions.ConfigTag). Any disagreement is rejected at connect
// time with ErrProtoMismatch or ErrConfigMismatch instead of surfacing hours
// later as diverged results.
//
//kernelvet:wire
type wireHello struct {
	magic    uint32
	proto    uint16
	node     int32
	nodes    int32
	clusters int32
	lps      int32
	digest   uint64
}

// wireHelloSize is the encoded size of a wireHello body: magic(4) + proto(2)
// + node(4) + nodes(4) + clusters(4) + lps(4) + digest(8).
const wireHelloSize = 30

func appendHello(b []byte, h wireHello) []byte {
	b, off := beginFrame(b, frameHello)
	b = appendU32(b, h.magic)
	b = appendU16(b, h.proto)
	b = appendI32(b, h.node)
	b = appendI32(b, h.nodes)
	b = appendI32(b, h.clusters)
	b = appendI32(b, h.lps)
	b = appendU64(b, h.digest)
	return endFrame(b, off)
}

func (r *wireReader) hello() wireHello {
	return wireHello{
		magic:    r.u32(),
		proto:    r.u16(),
		node:     r.i32(),
		nodes:    r.i32(),
		clusters: r.i32(),
		lps:      r.i32(),
		digest:   r.u64(),
	}
}

// Abort codes classify a mesh abort so the far side can map it back to the
// matching sentinel error without parsing the reason text.
const (
	abortCodeFatal  uint8 = iota // runtime failure: peer death, I/O error, local fatal
	abortCodeProto               // wire-protocol version or magic mismatch
	abortCodeConfig              // configuration digest mismatch
)

// wireAbort heads a frameAbort, a node's dying breath: the node where the
// failure originated (forwarded unchanged when the abort itself is being
// relayed), a code classifying it, and reasonLen bytes of human-readable
// reason text following the header. It is broadcast best-effort on every
// lane when a node turns fatal, so survivors tear down immediately instead
// of waiting out their failure detectors.
//
//kernelvet:wire
type wireAbort struct {
	origin    int32
	code      uint8
	reasonLen int32
}

func appendAbort(b []byte, origin int32, code uint8, reason string) []byte {
	if len(reason) > maxAbortReason {
		reason = reason[:maxAbortReason]
	}
	b, off := beginFrame(b, frameAbort)
	b = appendI32(b, origin)
	b = appendU8(b, code)
	b = appendI32(b, int32(len(reason)))
	b = append(b, reason...)
	return endFrame(b, off)
}

func (r *wireReader) abortHdr() wireAbort {
	h := wireAbort{
		origin:    r.i32(),
		code:      r.u8(),
		reasonLen: r.i32(),
	}
	if h.reasonLen < 0 || h.reasonLen > maxAbortReason {
		r.fail()
	}
	return h
}

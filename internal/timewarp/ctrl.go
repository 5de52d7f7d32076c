package timewarp

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Control plane.
//
// Four control messages cross cluster boundaries: the GVT request, the
// wave-1 cut ack, the wave-2 report and the coordinator's replicated round
// state. Each is a ctrlMsg tagged with its frame type, and each has exactly
// one effect, written once in applyCtrl. sendCtrl applies a
// message in place when its destination cluster lives in this process;
// otherwise it encodes the message as its frame (wire.go) and hands the
// bytes to the transport, whose receive side runs decodeCtrl and then the
// same applyCtrl. A transport therefore never interprets control traffic,
// and the decoder the fuzzer drives is the one a run uses. Dynamic
// balancing runs in one process only, so its load acks, migration orders
// and payloads are plain calls between clusters (migrate.go), not control
// messages.

// coordCluster is the cluster whose goroutine runs the coordinator; GVT
// requests, cut acks and reports are addressed to it.
const coordCluster = 0

// otherNodes addresses a control message to every node but this one
// (sendCtrl, Transport.ctrl).
const otherNodes = -1

// ctrlMsg is one control message. typ is its frame type and selects which
// fields are meaningful; frameReqGVT carries nothing.
type ctrlMsg struct {
	typ   uint8
	coord wireCoord  // frameCoord
	ack   wireAckCut // frameAckCut
	rep   wireReport // frameReport
}

// sendCtrl delivers m to cluster dst, or to every other node when dst is
// otherNodes: applied in place when dst lives in this process, otherwise
// encoded and handed to the transport.
func (k *Kernel) sendCtrl(dst int, m ctrlMsg) {
	if dst != otherNodes && k.clusters[dst].here {
		k.applyCtrl(m)
		return
	}
	if k.remote {
		k.tr.ctrl(dst, m.appendFrame(nil))
	}
}

// broadcastRound publishes the coordinator's round state after it changed:
// the control bits of a newly opened wave (or none), and whether the run is
// done. Coordinator only, so the loads are the values just stored.
func (k *Kernel) broadcastRound(bits uint8, done bool) {
	m := ctrlMsg{typ: frameCoord, coord: wireCoord{
		round:       atomic.LoadInt64(&k.round),
		reportRound: atomic.LoadInt64(&k.reportRound),
		gvt:         atomic.LoadInt64(&k.gvt),
		bits:        bits,
	}}
	if done {
		m.coord.done = 1
	}
	k.applyCtrl(m)
	k.sendCtrl(otherNodes, m)
}

// applyCtrl performs m's effect on this process's kernel. It runs on the
// sending cluster's goroutine (or the coordinator's) when the destination is
// local, and on a transport receive goroutine for a decoded frame, so every
// effect is an atomic or a mailbox post.
func (k *Kernel) applyCtrl(m ctrlMsg) {
	switch m.typ {
	case frameReqGVT:
		atomic.CompareAndSwapInt32(&k.gvtFlag, 0, 1)
	case frameAckCut:
		// The counters are pinned by the ack (see cluster.checkGVT); the
		// coordinator's wave-1 drain sums them for every cluster.
		atomic.StoreInt64(&k.cutSent[m.ack.cluster][0], m.ack.sent0)
		atomic.StoreInt64(&k.cutSent[m.ack.cluster][1], m.ack.sent1)
		atomic.AddInt32(&k.cutAcks, 1)
	case frameReport:
		atomic.StoreInt64(&k.reports[m.rep.cluster].t, m.rep.min)
		atomic.AddInt32(&k.reportAcks, 1)
	case frameCoord:
		k.applyCoord(m.coord)
	}
}

// applyCoord installs the coordinator's round state and wakes this
// process's clusters other than the coordinator's own: with the control
// bits of a newly opened wave, or bare when the run is done. On the
// coordinator's node the state is already stored and only the wakeups take
// effect. Every field is monotone and frames arrive in publication order
// (per-connection FIFO), so plain stores suffice.
func (k *Kernel) applyCoord(c wireCoord) {
	atomic.StoreInt64(&k.round, c.round)
	atomic.StoreInt64(&k.reportRound, c.reportRound)
	if c.gvt > atomic.LoadInt64(&k.gvt) {
		atomic.StoreInt64(&k.gvt, c.gvt)
		atomic.StoreInt64(&k.lastGVTNano, time.Now().UnixNano())
	}
	done := c.done != 0
	if done {
		atomic.StoreInt32(&k.done, 1)
	}
	for _, lc := range k.local {
		switch {
		case lc.id == coordCluster:
		case c.bits != 0:
			lc.mail.postCtrl(c.bits)
		case done:
			lc.mail.wake()
		}
	}
}

// appendFrame encodes m as its wire frame.
func (m *ctrlMsg) appendFrame(b []byte) []byte {
	switch m.typ {
	case frameCoord:
		return appendCoord(b, m.coord)
	case frameAckCut:
		return appendAckCut(b, m.ack)
	case frameReport:
		return appendReport(b, m.rep)
	}
	b, off := beginFrame(b, m.typ) // frameReqGVT: no body
	return endFrame(b, off)
}

// decodeCtrl decodes the body of a control frame received from a peer. It
// rejects truncated or overlong bodies, unknown frame types (the retired
// ones included) and messages naming a cluster out of range.
func (k *Kernel) decodeCtrl(typ uint8, body []byte) (ctrlMsg, error) {
	m := ctrlMsg{typ: typ}
	r := wireReader{b: body}
	switch typ {
	case frameReqGVT:
	case frameCoord:
		m.coord = r.coord()
	case frameAckCut:
		m.ack = r.ackCut()
	case frameReport:
		m.rep = r.report()
	default:
		return m, fmt.Errorf("unknown frame type %d", typ)
	}
	if err := r.done(); err != nil {
		return m, err
	}
	n := int32(len(k.clusters))
	switch {
	case typ == frameAckCut && (m.ack.cluster < 0 || m.ack.cluster >= n):
		return m, fmt.Errorf("ackCut for cluster %d", m.ack.cluster)
	case typ == frameReport && (m.rep.cluster < 0 || m.rep.cluster >= n):
		return m, fmt.Errorf("report for cluster %d", m.rep.cluster)
	}
	return m, nil
}

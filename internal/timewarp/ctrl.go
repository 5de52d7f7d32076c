package timewarp

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Control plane.
//
// Eight control messages cross cluster boundaries: the GVT request, the
// wave-1 cut ack, the wave-2 report, the load-round ack, the coordinator's
// replicated round state, a migration order, a migration payload and a
// routing-table rewrite. Each is a ctrlMsg tagged with its frame type, and
// each has exactly one effect, written once in applyCtrl. sendCtrl applies a
// message in place when its destination cluster lives in this process;
// otherwise it encodes the message as its frame (wire.go) and hands the
// bytes to the transport, whose receive side runs decodeCtrl and then the
// same applyCtrl. A transport therefore never interprets control traffic,
// and the decoder the fuzzer drives is the one a run uses.

// coordCluster is the cluster whose goroutine runs the coordinator; GVT
// requests, cut acks, reports and load acks are addressed to it.
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
	order wireOrder  // frameOrder
	route wireRoute  // frameRoute
	// cluster is the acking cluster of a frameAckLoad and the addressee of
	// a framePayload; load and pay are what they carry.
	cluster int32
	load    *loadSnapBuf
	pay     migPayload
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
		loadRound:   atomic.LoadInt64(&k.loadRound),
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
// effect is an atomic, a mutex-protected queue or a mailbox post.
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
	case frameAckLoad:
		// A local ack carries the buffer captureLoad filled in place, so
		// the copy is a no-op; the coordinator reads it after every ack.
		k.loadBufs[m.cluster] = *m.load
		atomic.AddInt32(&k.loadAcks, 1)
	case frameCoord:
		k.applyCoord(m.coord)
	case frameOrder:
		k.clusters[m.order.cluster].enqueueOrder(migOrder{lp: LPID(m.order.lp), to: int(m.order.to)})
	case framePayload:
		c := k.clusters[m.cluster]
		c.migMu.Lock()
		// migrateIn (or adoptFinalPayloads) counts the queued payload as
		// received.
		c.migIn = append(c.migIn, m.pay)
		atomic.StoreInt32(&c.migFlag, 1)
		c.migMu.Unlock()
		// Wake the destination in case it is idle-blocked on its mailbox;
		// control bits ignore capacity, so the nudge always lands.
		c.mail.postCtrl(ctrlWake)
	case frameRoute:
		k.routes.set(LPID(m.route.lp), int(m.route.to))
		k.routes.bump()
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
	atomic.StoreInt64(&k.loadRound, c.loadRound)
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
	case frameOrder:
		return appendOrder(b, m.order)
	case frameRoute:
		return appendRoute(b, m.route)
	}
	b, off := beginFrame(b, m.typ)
	switch m.typ {
	case frameAckLoad:
		b = appendI32(b, m.cluster)
		b = appendLoadBuf(b, m.load)
	case framePayload:
		// Only a cross-process migration sends a payload, and migrateOut
		// always encodes those (p.wire).
		b = appendI32(b, m.cluster)
		b = appendU8(b, m.pay.color)
		b = append(b, m.pay.wire...)
	}
	return endFrame(b, off)
}

// decodeCtrl decodes the body of a control frame received from a peer. It
// rejects truncated or overlong bodies, unknown frame types, messages
// naming a cluster or LP out of range or, for orders and payloads, a
// cluster this process does not host, and load acks whose edge offsets
// do not partition their edge rows.
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
	case frameAckLoad:
		m.cluster = r.i32()
		m.load = new(loadSnapBuf)
		r.loadBuf(m.load)
	case frameOrder:
		m.order = r.order()
	case framePayload:
		m.cluster = r.i32()
		m.pay.color = r.u8()
		if r.err == nil && len(r.b) == 0 {
			return m, fmt.Errorf("empty migration payload")
		}
		// The frame buffer is reused; the payload is retained until adopted.
		m.pay.wire = append([]byte(nil), r.b...)
		r.b = nil
	case frameRoute:
		m.route = r.route()
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
	case typ == frameAckLoad && (m.cluster < 0 || m.cluster >= n):
		return m, fmt.Errorf("ackLoad for cluster %d", m.cluster)
	case typ == frameAckLoad && !m.load.valid(len(k.lps)):
		return m, fmt.Errorf("ackLoad for cluster %d names an LP out of range or has edge offsets out of order", m.cluster)
	case typ == frameOrder && !k.hosts(m.order.cluster):
		return m, fmt.Errorf("order for cluster %d (not hosted here)", m.order.cluster)
	case typ == frameOrder && (m.order.lp < 0 || int(m.order.lp) >= len(k.lps) || m.order.to < 0 || m.order.to >= n):
		return m, fmt.Errorf("order moves LP %d to cluster %d", m.order.lp, m.order.to)
	case typ == framePayload && !k.hosts(m.cluster):
		return m, fmt.Errorf("payload for cluster %d (not hosted here)", m.cluster)
	case typ == frameRoute && (m.route.lp < 0 || int(m.route.lp) >= len(k.lps) || m.route.to < 0 || m.route.to >= n):
		return m, fmt.Errorf("route moves LP %d to cluster %d", m.route.lp, m.route.to)
	}
	return m, nil
}

// hosts reports whether cluster id exists and lives in this process.
func (k *Kernel) hosts(id int32) bool {
	return id >= 0 && int(id) < len(k.clusters) && k.clusters[id].here
}

package timewarp

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// ctrlState is the kernel state a control message can change (everything
// but the wall-clock stamp of a GVT advance).
type ctrlState struct {
	GVTFlag, CutAcks, ReportAcks, LoadAcks, Done int32
	Round, ReportRound, LoadRound, GVT           int64
	CutSent                                      [][2]int64
	Reports                                      []Time
	LoadBufs                                     []loadSnapBuf
	Orders                                       [][]migOrder
	Payloads                                     [][]migPayload
	MigFlags                                     []int32
	MailCtrl                                     []uint8
	Routes                                       []int
	RouteEpoch                                   int64
}

func captureCtrlState(k *Kernel) ctrlState {
	s := ctrlState{
		GVTFlag:     atomic.LoadInt32(&k.gvtFlag),
		CutAcks:     atomic.LoadInt32(&k.cutAcks),
		ReportAcks:  atomic.LoadInt32(&k.reportAcks),
		LoadAcks:    atomic.LoadInt32(&k.loadAcks),
		Done:        atomic.LoadInt32(&k.done),
		Round:       atomic.LoadInt64(&k.round),
		ReportRound: atomic.LoadInt64(&k.reportRound),
		LoadRound:   atomic.LoadInt64(&k.loadRound),
		GVT:         k.GVT(),
		CutSent:     append([][2]int64(nil), k.cutSent...),
		LoadBufs:    append([]loadSnapBuf(nil), k.loadBufs...),
		RouteEpoch:  k.RouteEpoch(),
	}
	for i := range k.reports {
		s.Reports = append(s.Reports, atomic.LoadInt64(&k.reports[i].t))
	}
	for _, c := range k.clusters {
		c.migMu.Lock()
		s.Orders = append(s.Orders, append([]migOrder(nil), c.migOrders...))
		s.Payloads = append(s.Payloads, append([]migPayload(nil), c.migIn...))
		c.migMu.Unlock()
		s.MigFlags = append(s.MigFlags, atomic.LoadInt32(&c.migFlag))
		c.mail.mu.Lock()
		s.MailCtrl = append(s.MailCtrl, c.mail.ctrl)
		c.mail.mu.Unlock()
	}
	for lp := range k.lps {
		s.Routes = append(s.Routes, k.RouteOf(LPID(lp)))
	}
	return s
}

// TestCtrlLocalMatchesWire: each control message has one effect. Applying it
// in place, as for a destination in this process, and applying it after
// encode → decodeCtrl, as for a destination on another node, must leave
// identical kernel state.
func TestCtrlLocalMatchesWire(t *testing.T) {
	cases := []struct {
		name string
		msg  func(k *Kernel) ctrlMsg
	}{
		{"reqGVT", func(*Kernel) ctrlMsg { return ctrlMsg{typ: frameReqGVT} }},
		{"ackCut", func(*Kernel) ctrlMsg {
			return ctrlMsg{typ: frameAckCut, ack: wireAckCut{cluster: 1, sent0: 3, sent1: -4}}
		}},
		{"report", func(*Kernel) ctrlMsg {
			return ctrlMsg{typ: frameReport, rep: wireReport{cluster: 1, min: 77}}
		}},
		{"ackLoad", func(k *Kernel) ctrlMsg {
			// The acking cluster fills its buffer in place (captureLoad).
			k.loadBufs[1] = loadSnapBuf{lps: []LPID{1}, committed: []uint64{9},
				edgeOff: []int32{1}, edgeDst: []LPID{0}, edgeCnt: []uint64{5}}
			return ctrlMsg{typ: frameAckLoad, cluster: 1, load: &k.loadBufs[1]}
		}},
		{"coord wave", func(*Kernel) ctrlMsg {
			return ctrlMsg{typ: frameCoord, coord: wireCoord{round: 3, reportRound: 2, loadRound: 1, gvt: 40, bits: ctrlCut}}
		}},
		{"coord done", func(*Kernel) ctrlMsg {
			return ctrlMsg{typ: frameCoord, coord: wireCoord{round: 3, reportRound: 3, gvt: TimeInfinity, done: 1}}
		}},
		{"order", func(*Kernel) ctrlMsg {
			return ctrlMsg{typ: frameOrder, order: wireOrder{cluster: 1, lp: 1, to: 0}}
		}},
		{"payload", func(*Kernel) ctrlMsg {
			return ctrlMsg{typ: framePayload, cluster: 1, pay: migPayload{wire: []byte{7, 8, 9}, color: 1}}
		}},
		{"route", func(*Kernel) ctrlMsg {
			return ctrlMsg{typ: frameRoute, route: wireRoute{lp: 1, to: 0}}
		}},
	}
	newKernel := func() *Kernel {
		k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}},
			[]Handler{&pingLP{peer: 1}, &pingLP{peer: 0}})
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			local, remote := newKernel(), newKernel()
			before := captureCtrlState(local)
			m := tc.msg(local)
			local.applyCtrl(m)

			typ, body := decodeOneFrame(t, m.appendFrame(nil))
			dm, err := remote.decodeCtrl(typ, body)
			if err != nil {
				t.Fatalf("decodeCtrl: %v", err)
			}
			remote.applyCtrl(dm)

			got, want := captureCtrlState(remote), captureCtrlState(local)
			if reflect.DeepEqual(want, before) {
				t.Fatal("the message changed nothing")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("state after the wire path:\n%+v\nafter the local path:\n%+v", got, want)
			}
		})
	}
}

// TestDecodeCtrlRejectsBadAckLoad: a load ack whose rows name an LP the
// kernel does not have, or whose edge offsets do not partition its edge
// rows, is a decode error, not an index panic in buildSnapshot later.
func TestDecodeCtrlRejectsBadAckLoad(t *testing.T) {
	k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}},
		[]Handler{&pingLP{peer: 1}, &pingLP{peer: 0}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		buf  loadSnapBuf
		ok   bool
	}{
		{"valid", loadSnapBuf{lps: []LPID{0, 1}, committed: []uint64{12, 7}, edgeOff: []int32{1, 3},
			edgeDst: []LPID{1, 0, 1}, edgeCnt: []uint64{12, 6, 1}}, true},
		{"row LP 99", loadSnapBuf{lps: []LPID{99}, committed: []uint64{1}, edgeOff: []int32{0}}, false},
		{"row LP -1", loadSnapBuf{lps: []LPID{-1}, committed: []uint64{1}, edgeOff: []int32{0}}, false},
		{"edge to LP 2", loadSnapBuf{lps: []LPID{0}, committed: []uint64{1}, edgeOff: []int32{1},
			edgeDst: []LPID{2}, edgeCnt: []uint64{1}}, false},
		{"decreasing edgeOff", loadSnapBuf{lps: []LPID{0, 1}, committed: []uint64{1, 1}, edgeOff: []int32{2, 1},
			edgeDst: []LPID{1, 0}, edgeCnt: []uint64{1, 1}}, false},
		{"negative edgeOff", loadSnapBuf{lps: []LPID{0, 1}, committed: []uint64{1, 1}, edgeOff: []int32{-1, 2},
			edgeDst: []LPID{1, 0}, edgeCnt: []uint64{1, 1}}, false},
		{"edgeOff short of the rows", loadSnapBuf{lps: []LPID{0}, committed: []uint64{1}, edgeOff: []int32{1},
			edgeDst: []LPID{1, 0}, edgeCnt: []uint64{1, 1}}, false},
		{"edges without rows", loadSnapBuf{edgeDst: []LPID{1}, edgeCnt: []uint64{1}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := ctrlMsg{typ: frameAckLoad, cluster: 1, load: &tc.buf}
			typ, body := decodeOneFrame(t, m.appendFrame(nil))
			_, err := k.decodeCtrl(typ, body)
			if tc.ok && err != nil {
				t.Fatalf("valid ack rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("malformed ack decoded without error")
			}
		})
	}
}

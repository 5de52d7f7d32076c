package timewarp

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// ctrlState is the kernel state a control message can change (everything
// but the wall-clock stamp of a GVT advance).
type ctrlState struct {
	GVTFlag, CutAcks, ReportAcks, Done int32
	Round, ReportRound, GVT            int64
	CutSent                            [][2]int64
	Reports                            []Time
	MailCtrl                           []uint8
}

func captureCtrlState(k *Kernel) ctrlState {
	s := ctrlState{
		GVTFlag:     atomic.LoadInt32(&k.gvtFlag),
		CutAcks:     atomic.LoadInt32(&k.cutAcks),
		ReportAcks:  atomic.LoadInt32(&k.reportAcks),
		Done:        atomic.LoadInt32(&k.done),
		Round:       atomic.LoadInt64(&k.round),
		ReportRound: atomic.LoadInt64(&k.reportRound),
		GVT:         k.GVT(),
		CutSent:     append([][2]int64(nil), k.cutSent...),
	}
	for i := range k.reports {
		s.Reports = append(s.Reports, atomic.LoadInt64(&k.reports[i].t))
	}
	for _, c := range k.clusters {
		c.mail.mu.Lock()
		s.MailCtrl = append(s.MailCtrl, c.mail.ctrl)
		c.mail.mu.Unlock()
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
		msg  ctrlMsg
	}{
		{"reqGVT", ctrlMsg{typ: frameReqGVT}},
		{"ackCut", ctrlMsg{typ: frameAckCut, ack: wireAckCut{cluster: 1, sent0: 3, sent1: -4}}},
		{"report", ctrlMsg{typ: frameReport, rep: wireReport{cluster: 1, min: 77}}},
		{"coord wave", ctrlMsg{typ: frameCoord, coord: wireCoord{round: 3, reportRound: 2, gvt: 40, bits: ctrlCut}}},
		{"coord done", ctrlMsg{typ: frameCoord, coord: wireCoord{round: 3, reportRound: 3, gvt: TimeInfinity, done: 1}}},
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
			m := tc.msg
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

// TestDecodeCtrlRejectsRetiredFrames: frame numbers whose messages are gone
// stay reserved, and a peer that sends one, with the body it had under the
// last protocol version that used it, gets a decode error. The bodies are
// written byte by byte, since no encoder for them is left.
func TestDecodeCtrlRejectsRetiredFrames(t *testing.T) {
	k, err := New(Config{NumClusters: 2, ClusterOf: []int{0, 1}},
		[]Handler{&pingLP{peer: 1}, &pingLP{peer: 0}})
	if err != nil {
		t.Fatal(err)
	}
	i32 := func(vs ...int32) []byte {
		var b []byte
		for _, v := range vs {
			b = appendI32(b, v)
		}
		return b
	}
	for _, tc := range []struct {
		name string
		typ  uint8
		body []byte
	}{
		{"ctrl", frameCtrl, nil},
		{"ackLoad", frameAckLoad, i32(1, 0, 0)},                      // cluster 1, no rows, no edges
		{"order", frameOrder, i32(1, 1, 0)},                          // cluster 1: move LP 1 to cluster 0
		{"payload", framePayload, append(i32(1), 0)},                 // cluster 1, color 0, no LP
		{"route", frameRoute, i32(1, 0)},                             // LP 1 now on cluster 0
		{"counts", frameCounts, appendI64(appendI64(i32(1), 10), 2)}, // cluster 1 received 10 and 2
		{"sumReply", frameSumReply, appendU64(i32(1), 301)},          // one word
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, off := beginFrame(nil, tc.typ)
			b = endFrame(append(b, tc.body...), off)
			typ, body := decodeOneFrame(t, b)
			if _, err := k.decodeCtrl(typ, body); err == nil || !strings.Contains(err.Error(), "unknown frame type") {
				t.Fatalf("frame type %d: err = %v, want unknown frame type", typ, err)
			}
		})
	}
}

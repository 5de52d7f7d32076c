package logicsim

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/seqsim"
)

// TestGateStateCodec is the gate state codec's case table, run for both
// value types. DecodeState parses bytes from a peer process, so besides the
// round trips (C1–C3) every malformed input (C4–C10) must be rejected and
// leave the receiving gate's state untouched.
func TestGateStateCodec(t *testing.T) {
	t.Run("scalar", func(t *testing.T) {
		testGateStateCodec(t, scalarLanes(), func(r *rand.Rand) circuit.Value {
			return circuit.Value(r.Intn(3)) // X, Zero or One
		})
	})
	t.Run("vector", func(t *testing.T) {
		testGateStateCodec(t, vectorLanes(), func(r *rand.Rand) circuit.VecValue {
			unknown := r.Uint64()
			return circuit.VecValue{Val: r.Uint64() &^ unknown, Unknown: unknown}
		})
	})
}

func testGateStateCodec[V any](t *testing.T, ops wireLanes[V], random func(*rand.Rand) V) {
	// a, b -> and2 -> ff -> out: an interior gate with two pins, a DFF and a
	// primary output, the latter two with one pin each.
	c := circuit.New("codec")
	a := c.MustAddGate("a", circuit.Input)
	b := c.MustAddGate("b", circuit.Input)
	and2 := c.MustAddGate("and2", circuit.And)
	ff := c.MustAddGate("ff", circuit.DFF)
	out := c.MustAddGate("out", circuit.Output)
	c.MustConnect(a.ID, and2.ID)
	c.MustConnect(b.ID, and2.ID)
	c.MustConnect(and2.ID, ff.ID)
	c.MustConnect(ff.ID, out.ID)

	// replica builds the gate's LP as every node does, from the circuit.
	sim := &shared[V]{c: c, lanes: ops}
	pins, fanout := seqsim.GateWiring(c)
	replica := func(g *circuit.Gate) *gateLP[V] {
		lp := newGateLP(sim, g, pins[g.ID], fanout[g.ID])
		if g == out {
			lp.markOutput(0)
		}
		return lp
	}
	r := rand.New(rand.NewSource(1))
	// populated is a replica whose whole state, history included, differs
	// from the initial all-X state.
	populated := func(g *circuit.Gate) *gateLP[V] {
		lp := replica(g)
		for i := range lp.st.inputs {
			lp.st.inputs[i] = random(r)
		}
		lp.st.out = random(r)
		if lp.outIdx >= 0 {
			for i := range lp.st.hist {
				lp.st.hist[i] = r.Uint64()
			}
		}
		return lp
	}

	cases := []struct {
		id, desc string
		from, to *circuit.Gate // gate whose state is encoded, gate decoding it
		mutate   func([]byte) []byte
		wantErr  bool
	}{
		{"C1", "interior gate round-trips", and2, and2, nil, false},
		{"C2", "primary output round-trips with its per-lane history", out, out, nil, false},
		{"C3", "DFF round-trips its latched output", ff, ff, nil, false},
		{"C4", "empty buffer is rejected", out, out, func(d []byte) []byte { return d[:0] }, true},
		{"C5", "truncated buffer is rejected", out, out, func(d []byte) []byte { return d[:len(d)-1] }, true},
		{"C6", "state of a gate with another pin count is rejected", and2, ff, nil, true},
		{"C7", "pin count byte disagreeing with the gate is rejected", ff, ff, func(d []byte) []byte {
			d[0] = 2 // the length still fits this gate's state
			return d
		}, true},
		{"C8", "history flag set on a gate without history is rejected", ff, ff, func(d []byte) []byte {
			d[1] = 1 // the length still fits this gate's state
			return d
		}, true},
		{"C9", "history-bearing state for a gate without history is rejected", ff, ff, func(d []byte) []byte {
			d[1] = 1
			return append(d, make([]byte, 8*ops.N)...)
		}, true},
		{"C10", "trailing byte is rejected", and2, and2, func(d []byte) []byte { return append(d, 0) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			src := populated(tc.from)
			data := src.EncodeState(nil)
			if tc.mutate != nil {
				data = tc.mutate(data)
			}
			dst := populated(tc.to)
			before := dst.EncodeState(nil)
			err := dst.DecodeState(data)
			switch {
			case tc.wantErr && err == nil:
				t.Fatalf("%s: decode accepted %d bytes", tc.desc, len(data))
			case tc.wantErr && !bytes.Equal(dst.EncodeState(nil), before):
				t.Fatalf("%s: rejected decode changed the gate state", tc.desc)
			case !tc.wantErr && err != nil:
				t.Fatalf("%s: decode: %v", tc.desc, err)
			case !tc.wantErr && !reflect.DeepEqual(dst.st, src.st):
				t.Fatalf("%s: decoded state %+v, encoded %+v", tc.desc, dst.st, src.st)
			}
		})
	}
}

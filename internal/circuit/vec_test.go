package circuit

import (
	"fmt"
	"testing"
)

// laneValues are the representable lane states (Z collapses to X at packing
// time, exactly as Eval's canon collapses it during scalar evaluation).
var laneValues = []Value{X, Zero, One}

// TestEvalVecMatchesEval proves the lane-wise equivalence contract: for every
// gate type and every combination of input values (including Z on the scalar
// side), EvalVec agrees with Eval on every lane. Combinations are driven
// through distinct lanes of one vector so cross-lane independence is covered
// by the same sweep.
func TestEvalVecMatchesEval(t *testing.T) {
	for typ := GateType(0); typ < numGateTypes; typ++ {
		fanins := []int{1, 2, 3}
		if typ == Input {
			fanins = []int{0}
		}
		for _, k := range fanins {
			t.Run(fmt.Sprintf("%v/fanin=%d", typ, k), func(t *testing.T) {
				// Enumerate all 3^k scalar input combinations, packing each
				// into its own lane (cycling after W combinations).
				total := 1
				for i := 0; i < k; i++ {
					total *= len(laneValues)
				}
				for base := 0; base < total; base += W {
					n := W
					if base+n > total {
						n = total - base
					}
					vin := make([]VecValue, k)
					scalar := make([][]Value, n)
					for lane := 0; lane < n; lane++ {
						combo := base + lane
						in := make([]Value, k)
						for pin := 0; pin < k; pin++ {
							in[pin] = laneValues[combo%len(laneValues)]
							combo /= len(laneValues)
							vin[pin] = vin[pin].SetLane(lane, in[pin])
						}
						scalar[lane] = in
					}
					got := EvalVec(typ, vin)
					if got.Val&got.Unknown != 0 {
						t.Fatalf("EvalVec(%v) broke the canonical invariant: val %x unknown %x", typ, got.Val, got.Unknown)
					}
					for lane := 0; lane < n; lane++ {
						want := Eval(typ, scalar[lane])
						if g := got.Lane(lane); g != want {
							t.Fatalf("EvalVec(%v, lane %d, in %v) = %v, want %v", typ, lane, scalar[lane], g, want)
						}
					}
				}
			})
		}
	}
}

// TestEvalVecZCollapse pins the Z rule: a Z packed into a lane behaves as X,
// matching Eval's canon on the scalar side.
func TestEvalVecZCollapse(t *testing.T) {
	v := BroadcastVec(One).SetLane(3, Z)
	if got := v.Lane(3); got != X {
		t.Fatalf("SetLane(Z).Lane() = %v, want X", got)
	}
	in := []VecValue{v, BroadcastVec(One)}
	out := EvalVec(And, in)
	if got := out.Lane(3); got != X {
		t.Fatalf("AND with a Z lane = %v, want X", got)
	}
	if got := out.Lane(0); got != One {
		t.Fatalf("AND sibling lane = %v, want One", got)
	}
}

// TestVecValueAccessors covers the lane constructors round-trip and Diff.
func TestVecValueAccessors(t *testing.T) {
	for _, v := range []Value{X, Zero, One, Z} {
		b := BroadcastVec(v)
		want := v
		if v == Z {
			want = X
		}
		for lane := 0; lane < W; lane += 17 {
			if got := b.Lane(lane); got != want {
				t.Fatalf("BroadcastVec(%v).Lane(%d) = %v, want %v", v, lane, got, want)
			}
		}
	}
	var v VecValue
	v = v.SetLane(0, One)
	v = v.SetLane(5, X)
	v = v.SetLane(63, One)
	if v.Lane(0) != One || v.Lane(1) != Zero || v.Lane(5) != X || v.Lane(63) != One {
		t.Fatalf("SetLane round-trip failed: %+v", v)
	}
	o := v.SetLane(5, Zero)
	if d := v.Diff(o); d != 1<<5 {
		t.Fatalf("Diff = %x, want lane-5 bit", d)
	}
	if d := v.Diff(v); d != 0 {
		t.Fatalf("self Diff = %x, want 0", d)
	}
}

// BenchmarkEvalVec measures the vectored kernels next to their scalar
// counterparts: one EvalVec advances W scenarios, so ns/op here divided by W
// is the per-scenario evaluation cost (the CI bench smoke tracks it).
func BenchmarkEvalVec(b *testing.B) {
	// Inputs are canonical (no lane both Val and Unknown), as the package's
	// constructors build them: EvalVec's contract covers only those, and
	// DFF passes its input through unchanged.
	const u0, u1 = 0x0000FFFF00000000, 0x00000000FF000000
	in := []VecValue{
		{Val: 0xDEADBEEFCAFEF00D &^ u0, Unknown: u0},
		{Val: 0x0123456789ABCDEF &^ u1, Unknown: u1},
		{Val: 0xFEDCBA9876543210},
	}
	for _, typ := range []GateType{And, Or, Xor, Not, DFF} {
		b.Run(typ.String(), func(b *testing.B) {
			b.ReportAllocs()
			var sink VecValue
			for i := 0; i < b.N; i++ {
				sink = EvalVec(typ, in)
			}
			if sink.Val&sink.Unknown != 0 {
				b.Fatal("canonical invariant broken")
			}
		})
	}
	b.Run("scalar/And", func(b *testing.B) {
		b.ReportAllocs()
		sin := []Value{One, Zero, X}
		var sink Value
		for i := 0; i < b.N; i++ {
			sink = Eval(And, sin)
		}
		_ = sink
	})
}

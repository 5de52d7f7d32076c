package seqsim

// Bit-parallel (vectored) simulation: one run carries circuit.W independent
// scenarios, lane s driven by stimulus seed StimulusSeed+s, and every gate
// evaluates all lanes at once with circuit.EvalVec. Lane s of a vectored run
// is bit-identical to the scalar run with seed StimulusSeed+s: per-lane
// values are pure functions of per-lane inputs, and an event whose lane-s
// component is unchanged is a no-op for lane s, so the only difference
// between the vectored run and W scalar runs is the event count (an event
// fires when ANY lane changes — that union is exactly the bit-parallel
// speedup). The parallel simulator's vectored mode is verified against this
// oracle, and this oracle is verified against W scalar runs.
//
// Both simulators are written once over the value type; a scalar run is the
// one-lane case. Lanes is everything the two value types do differently.

import "repro/internal/circuit"

// Lanes is the table of per-value-type operations the simulators are
// generic over: circuit.Value (one lane) or circuit.VecValue (circuit.W
// lanes).
type Lanes[V any] struct {
	// N is the number of lanes one value carries.
	N int
	// X is the value with every lane unknown, the initial value of every
	// signal.
	X V
	// Eval computes a gate's output from its input pins.
	Eval func(t circuit.GateType, in []V) V
	// Diff returns the mask of lanes whose values differ.
	Diff func(a, b V) uint64
	// Lane extracts lane i.
	Lane func(v V, i int) circuit.Value
	// Stimulus is the deterministic value of primary input `input` at
	// `cycle`; lane s is StimulusBit(seed+s, input, cycle).
	Stimulus func(seed int64, input, cycle int) V
}

// Scalar is the one-lane table over circuit.Value.
func Scalar() Lanes[circuit.Value] {
	return Lanes[circuit.Value]{
		N:    1,
		X:    circuit.X,
		Eval: circuit.Eval,
		Diff: func(a, b circuit.Value) uint64 {
			if a != b {
				return 1
			}
			return 0
		},
		Lane:     func(v circuit.Value, _ int) circuit.Value { return v },
		Stimulus: StimulusBit,
	}
}

// Vector is the circuit.W-lane table over circuit.VecValue.
func Vector() Lanes[circuit.VecValue] {
	return Lanes[circuit.VecValue]{
		N:        circuit.W,
		X:        circuit.BroadcastVec(circuit.X),
		Eval:     circuit.EvalVec,
		Diff:     circuit.VecValue.Diff,
		Lane:     circuit.VecValue.Lane,
		Stimulus: StimulusVec,
	}
}

// StimulusVec packs the deterministic stimulus of all circuit.W lanes for
// primary input `input` at `cycle`: lane s carries StimulusBit(seed+s, input,
// cycle). Both simulators share this function, so vectored runs stay
// oracle-comparable lane by lane.
func StimulusVec(seed int64, input, cycle int) circuit.VecValue {
	var v circuit.VecValue
	for s := 0; s < circuit.W; s++ {
		v = v.SetLane(s, StimulusBit(seed+int64(s), input, cycle))
	}
	return v
}

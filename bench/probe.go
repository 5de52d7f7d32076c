package main

import (
	"math/rand"
	"time"

	"repro/internal/circuit"
)

// probeCalls is the least number of gate evaluations one probe times.
const probeCalls = 1 << 20

// probeSink keeps the probe loops observable to the compiler.
var probeSink uint64

// probeEval times circuit.Eval and circuit.EvalVec over the workload
// circuit's own mix of gate types and fan-ins: one call per evaluating gate
// (everything with inputs except flip-flops, which latch instead), on fixed
// pseudo-random input values, repeated until probeCalls calls were made. It
// returns nanoseconds per call, the bottom rung of the ladder.
func probeEval(c *circuit.Circuit) (evalNS, evalVecNS float64) {
	rng := rand.New(rand.NewSource(1))
	values := []circuit.Value{circuit.Zero, circuit.One, circuit.X}
	type gate struct {
		typ circuit.GateType
		in  []circuit.Value
		vec []circuit.VecValue
	}
	var gates []gate
	for _, g := range c.Gates {
		if len(g.Fanin) == 0 || g.Type == circuit.DFF {
			continue
		}
		p := gate{typ: g.Type, in: make([]circuit.Value, len(g.Fanin)), vec: make([]circuit.VecValue, len(g.Fanin))}
		for i := range p.in {
			p.in[i] = values[rng.Intn(len(values))]
			unknown := rng.Uint64() & rng.Uint64() & rng.Uint64() // an eighth of the lanes X
			p.vec[i] = circuit.VecValue{Val: rng.Uint64() &^ unknown, Unknown: unknown}
		}
		gates = append(gates, p)
	}
	if len(gates) == 0 {
		return 0, 0
	}
	passes := (probeCalls + len(gates) - 1) / len(gates)
	calls := float64(passes * len(gates))

	var sink uint64
	start := time.Now()
	for p := 0; p < passes; p++ {
		for i := range gates {
			sink += uint64(circuit.Eval(gates[i].typ, gates[i].in))
		}
	}
	evalNS = float64(time.Since(start).Nanoseconds()) / calls

	start = time.Now()
	for p := 0; p < passes; p++ {
		for i := range gates {
			sink += circuit.EvalVec(gates[i].typ, gates[i].vec).Val
		}
	}
	evalVecNS = float64(time.Since(start).Nanoseconds()) / calls
	probeSink += sink
	return evalNS, evalVecNS
}

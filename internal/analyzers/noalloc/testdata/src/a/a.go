// Package a is the noalloc analyzer fixture: hot must not allocate, sum does
// not, grow carries an explicit amortization allowance, check's panic path is
// filtered as a dying-only escape, and copies appends to fresh slices, which
// allocate whether or not the compiler reports an escape.
package a

import "fmt"

type pool struct {
	buf   []byte
	boxes []*int
	kept  []int
}

// ints is a named slice type, so ints(nil) is a conversion of nil too.
type ints []int

// hot is the per-event path; the boxed int escapes through p.boxes.
//
//kernelvet:noalloc
func (p *pool) hot(v int) int {
	x := new(int) // want `new\(int\) escapes to heap in //kernelvet:noalloc function hot`
	*x = v
	p.boxes = append(p.boxes, x)
	return *x
}

// sum never allocates.
//
//kernelvet:noalloc
func (p *pool) sum() int {
	s := 0
	for _, b := range p.buf {
		s += int(b)
	}
	return s
}

// grow doubles the reusable buffer; the allocation is amortized away.
//
//kernelvet:noalloc
func (p *pool) grow() {
	if len(p.buf) == cap(p.buf) {
		nb := make([]byte, len(p.buf), 2*cap(p.buf)+1) //kernelvet:allow noalloc amortized doubling of a reusable buffer
		copy(nb, p.buf)
		p.buf = nb
	}
	p.buf = p.buf[:len(p.buf)+1]
}

// check only allocates while dying; the panic argument escapes are filtered.
//
//kernelvet:noalloc
func (p *pool) check(i int) byte {
	if i < 0 || i >= len(p.buf) {
		panic(fmt.Sprintf("index %d out of range", i))
	}
	return p.buf[i]
}

// copies starts three appends from fresh slices: a conversion of nil (whose
// copy does not escape, so the compiler prints nothing for it), a
// conversion of nil to a named slice type, and an empty composite literal.
// The last copy carries an allowance. Appending to p.kept reuses its array
// and is not flagged.
//
//kernelvet:noalloc
func (p *pool) copies(s []int) int {
	t := append([]int(nil), s...)    // want `append to a fresh slice allocates in //kernelvet:noalloc function copies`
	p.kept = append(ints(nil), s...) // want `append to a fresh slice allocates`
	p.kept = append([]int{}, s...)   // want `append to a fresh slice allocates`
	p.kept = append(p.kept, len(t))
	p.kept = append([]int(nil), s...) //kernelvet:allow noalloc a one-off snapshot, not per event
	return len(t)
}

var _ = [...]interface{}{(*pool).hot, (*pool).sum, (*pool).grow, (*pool).check, (*pool).copies}

// Package a is the directives validator fixture: every malformed or
// misplaced //kernelvet: comment must be reported, and the well-formed ones
// at the bottom must not.
package a

type state struct {
	count int //kernelvet:owner // want `kernelvet:owner takes exactly one argument`
	extra int //kernelvet:owner worker helper // want `kernelvet:owner takes exactly one argument`
	badal int //kernelvet:allow ownership // want `kernelvet:allow belongs in a function doc comment or on the offending line`
	good  int //kernelvet:owner worker
}

// misOwner has an owner directive, which only means something on a field.
//
//kernelvet:owner worker // want `kernelvet:owner belongs on a struct field`
func misOwner() {}

// misVerb has a typo in the verb.
//
//kernelvet:determinstic // want `unknown kernelvet directive "determinstic"`
func misVerb() {}

// misArgs gives deterministic an argument it does not take.
//
//kernelvet:deterministic always // want `kernelvet:deterministic takes 0 arguments`
func misArgs() {}

// misGoroutine forgets the domain name.
//
//kernelvet:goroutine // want `kernelvet:goroutine takes exactly one argument`
func misGoroutine() {}

func misPlaced() {
	//kernelvet:deterministic // want `kernelvet:deterministic belongs in a function doc comment`
	x := 1 //kernelvet:allow spellcheck because // want `kernelvet:allow needs an analyzer name \(one of atomics, determinism, noalloc, ownership, wiresafe\)`
	y := 2 //kernelvet:allow atomics // want `kernelvet:allow atomics needs a reason`
	_, _ = x, y
}

// guarded-by is a retired verb: lock discipline is checked by the race
// detector, so the directive is unknown wherever it sits.
type guarded struct {
	mu int
	a  int //kernelvet:guarded-by mu // want `unknown kernelvet directive "guarded-by"`
}

// flat is a well-formed wire type.
//
//kernelvet:wire
type flat struct{ v int32 }

// misWireArgs gives wire an argument.
//
//kernelvet:wire v // want `kernelvet:wire takes 0 arguments`
type misWireArgs struct{ v int32 }

// misWire puts wire in a function doc comment.
//
//kernelvet:wire // want `kernelvet:wire belongs in a type declaration's doc comment`
func misWire() {}

// Grouped frame-struct declarations (the kernel's TCP wire set is declared
// this way) carry per-spec wire directives; both placements are valid.
type (
	//kernelvet:wire
	frameHdr struct{ typ uint8 }

	//kernelvet:wire
	frameBody struct{ n int32 }
)

// The kernel's wide event payload rides inline in the event frame struct;
// both the payload block and its carrier declare their own wire directive.
//
//kernelvet:wire
type payloadBlock struct{ p0, p1 uint64 }

//kernelvet:wire
type eventWithPayload struct {
	value int32
	pay   payloadBlock
}

// The handshake/failure frame pair the hardened mesh ships: a versioned
// hello and an abort header whose reason text follows as raw bytes.
//
//kernelvet:wire
type helloFrame struct {
	magic  uint32
	proto  uint16
	digest uint64
}

//kernelvet:wire
type abortFrame struct {
	origin    int32
	code      uint8
	reasonLen int32
}

// misWireVar puts wire on a variable declaration.
//
//kernelvet:wire // want `kernelvet:wire belongs in a type declaration's doc comment`
var wireBuf int32

// wellFormed exercises every valid spelling; nothing below is reported.
//
//kernelvet:goroutine worker
//kernelvet:deterministic
//kernelvet:noalloc
//kernelvet:single-threaded
//kernelvet:allow atomics the invariant holds because nothing else runs yet
func wellFormed() {
	_ = 3 //kernelvet:allow noalloc amortized growth
}

var _ = [...]interface{}{misOwner, misVerb, misArgs, misGoroutine, misPlaced, wellFormed,
	misWire,
	guarded{}, flat{}, misWireArgs{}, frameHdr{}, frameBody{}, wireBuf,
	payloadBlock{}, eventWithPayload{}, helloFrame{}, abortFrame{}}

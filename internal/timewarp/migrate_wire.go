package timewarp

import "fmt"

// Wire migration: moving an LP between OS processes.
//
// A live lpRuntime is full of pointers (heap slices, maps, handler state),
// so it cannot travel by copy. Instead the source holds the LP —
// it executes nothing — until GVT has committed its processed history
// (migrateOut), and then encodes what remains: the pending event set, the
// lazily-annihilated ID set, the load profile, and the handler state through
// Handler.EncodeState, the same codec rollback restores from. The
// destination decodes into the lpRuntime shell it built at construction
// time (every node builds all LPs; non-local ones stay empty), so adoption
// needs no allocation decisions at decode time.
//
// Waiting for the commit trades a pause of the migrating LP for a payload
// with no aliasing hazards and no saved-state log (only the *current*
// handler state travels, not the per-bundle states). It cannot be replaced
// by rolling the history back at the source: the LP's processed bundles lie
// below the GVT reports its cluster already filed, so a GVT computed from
// them could pass the re-queued events and the anti-messages of their
// sends.

// packPayload encodes lp for a cross-process migration. Runs on the source
// cluster's goroutine, once migrateOut's fossil collection left the LP no
// processed history. The caller resets the leftover shell (resetAfterPack)
// once the payload's transit charge and redMin fold are in place.
func (c *cluster) packPayload(lp *lpRuntime) []byte {
	// Rolled-back sends awaiting lazy regeneration have no section in the
	// payload and can never be regenerated here (the LP is leaving): cancel
	// them all now. The anti-messages flow through the ordinary
	// transport and are GVT-covered like any other send of this cluster.
	lp.flushOldSends(TimeInfinity)

	state := lp.handler.EncodeState(nil)

	hdr := wireLPHdr{
		lp:               int32(lp.id),
		lvt:              lp.lvt,
		committedThrough: lp.committedThrough,
		idNext:           lp.idNext,
		loadCommitted:    lp.loadCommitted,
		nPending:         int32(len(lp.pending)),
		nCancelled:       int32(len(lp.cancelled)),
		nSendRows:        int32(len(lp.sendDst)),
		stateLen:         int32(len(state)),
	}
	b := make([]byte, 0, 96+eventWireSize*len(lp.pending)+8*len(lp.cancelled)+12*len(lp.sendDst)+len(state))
	b = appendLPHdr(b, hdr)
	for i := range lp.pending {
		b = appendEvent(b, &lp.pending[i])
	}
	// Map iteration order is runtime-random, but the cancelled set decodes
	// back into a map consulted only by ID lookup — the encoding order never
	// reaches execution order, so determinism is preserved.
	for id := range lp.cancelled {
		b = appendU64(b, id)
	}
	for i, dst := range lp.sendDst {
		b = appendI32(b, int32(dst))
		b = appendU64(b, lp.sendCnt[i])
	}
	return append(b, state...)
}

// unpackPayload decodes a wire migration payload into the named LP's local
// shell. Runs on the destination cluster's goroutine; the caller (migrateIn)
// takes ownership and schedules the LP afterwards. Adoption is all or
// nothing: a payload that fails to decode leaves the shell empty, so a
// correct payload for the LP can still be adopted later.
func (c *cluster) unpackPayload(wire []byte) (*lpRuntime, error) {
	r := wireReader{b: wire}
	hdr := r.lpHdr()
	if r.err != nil {
		return nil, r.err
	}
	if hdr.lp < 0 || int(hdr.lp) >= len(c.kernel.lps) {
		return nil, fmt.Errorf("timewarp: migration payload names LP %d of %d", hdr.lp, len(c.kernel.lps))
	}
	lp := c.kernel.lps[hdr.lp]
	if len(lp.processed) != 0 || len(lp.pending) != 0 || len(lp.oldSends) != 0 {
		// The shell must be empty: either never owned here, or reset when it
		// last migrated away. Anything else means two processes both think
		// they own the LP.
		return nil, fmt.Errorf("timewarp: migration payload for LP %d arrived at a non-empty shell", hdr.lp)
	}
	if hdr.nPending < 0 || hdr.nCancelled < 0 || hdr.nSendRows < 0 || hdr.stateLen < 0 {
		return nil, fmt.Errorf("timewarp: migration payload for LP %d has negative section counts", hdr.lp)
	}
	// Every section entry has a minimum encoded size, so counts the rest of
	// the payload cannot hold are refused before any loop runs on them.
	if int64(hdr.nPending)*eventWireSize+int64(hdr.nCancelled)*8+int64(hdr.nSendRows)*12+int64(hdr.stateLen) > int64(len(r.b)) {
		return nil, fmt.Errorf("timewarp: migration payload for LP %d claims more sections than it holds", hdr.lp)
	}
	// Walk the sections once without storing them, then decode the state;
	// only a payload that passes both is written into the shell, from a
	// second reader over the same sections.
	sections := r
	for i := int32(0); i < hdr.nPending; i++ {
		r.event()
	}
	r.bytes(8*int(hdr.nCancelled) + 12*int(hdr.nSendRows))
	state := r.bytes(int(hdr.stateLen))
	if err := r.done(); err != nil {
		return nil, err
	}
	if err := lp.handler.DecodeState(state); err != nil {
		return nil, fmt.Errorf("timewarp: LP %d DecodeState: %w", hdr.lp, err)
	}
	r = sections
	lp.lvt = hdr.lvt
	lp.committedThrough = hdr.committedThrough
	lp.idNext = hdr.idNext
	lp.loadCommitted = hdr.loadCommitted
	for i := int32(0); i < hdr.nPending; i++ {
		lp.pending.push(r.event())
	}
	if hdr.nCancelled > 0 {
		lp.cancelled = make(map[uint64]struct{})
	}
	for i := int32(0); i < hdr.nCancelled; i++ {
		lp.cancelled[r.u64()] = struct{}{}
	}
	lp.sendDst = lp.sendDst[:0]
	lp.sendCnt = lp.sendCnt[:0]
	lp.sendCur = 0
	for i := int32(0); i < hdr.nSendRows; i++ {
		lp.sendDst = append(lp.sendDst, LPID(r.i32()))
		lp.sendCnt = append(lp.sendCnt, r.u64())
	}
	return lp, nil
}

// resetAfterPack clears the runtime shell packPayload left behind, so a later
// migration back to this process decodes into a verifiably empty target. The
// pending events were copied onto the wire (values, no aliases), so only the
// lengths need clearing; the cancelled map is dropped.
func (lp *lpRuntime) resetAfterPack() {
	lp.pending = lp.pending[:0]
	lp.cancelled = nil
	lp.sendDst = lp.sendDst[:0]
	lp.sendCnt = lp.sendCnt[:0]
	lp.sendCur = 0
	lp.loadCommitted = 0
	lp.lvt = -1
	lp.schedT = TimeInfinity
}

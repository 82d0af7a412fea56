//go:build amd64

package core

// narrowSSEArgs is the argument block of narrowStepSSE and
// narrowStepSSETB; one pointer keeps the assembly ABI trivial. The stream
// pointers address a word at or just before the first processed lane, and
// the byte deltas place each stream on its lane offset — the packed
// []uint64 lanes are contiguous little-endian uint16s in memory, so an
// unaligned 16-byte load at lane offset s is exactly the funnel-shifted
// read of lanes s..s+7.
// The field order is frozen: narrow_step_amd64.s addresses it by offset.
type narrowSSEArgs struct {
	hNext, iNext, dNext *uint64 // output words, from word gA
	hCur1, iCur1        *uint64 // up/diag-up streams, based at word gA−1
	hCur0, dCur0        *uint64 // left streams, based at word gA
	hPrev1              *uint64 // diagonal stream, based at word gA−1
	a, b                *uint64 // base streams, at the word of word gA's first base lane
	pairs               int64   // number of 2-word (8-lane) iterations
	dUp, dLt, dDg       int64   // byte deltas of the three neighbour streams
	dA, dB              int64   // byte deltas of the two base streams
	eV, oeV, nmV, gbV   uint64  // broadcast constants (asm widens 4→8 lanes)
	smV                 uint64  // Match−Mismatch, broadcast
	hV                  uint64  // nH — bit 15 of every lane
	bt                  *byte   // traceback row at word gA (narrowStepSSETB only)
}

// narrowStepSSE is the SSE2 kernel: PCMPEQW of the two base streams masked
// with Match−Mismatch is the substitution word, PSUBUSW the per-lane
// saturating subtract, PMAXSW the lane max (sound because live lanes keep
// bit 15 clear), and the sticky accumulator collects saturating-add
// carries and below-guard outputs. Implemented in narrow_step_amd64.s.
//
//go:noescape
func narrowStepSSE(a *narrowSSEArgs) uint64

// narrowStepSSETB is the traceback twin of narrowStepSSE: the same
// recurrence and sticky verdict, plus one bt.go nibble per lane derived
// from PCMPEQW/PCMPGTW on the operands of the PMAXSWs and on the
// substitution word, packed eight lanes to four bytes at a.bt. Implemented
// in narrow_step_amd64.s.
//
//go:noescape
func narrowStepSSETB(a *narrowSSEArgs) uint64

// sseArgs fills the kernel's argument block for pairs 2-word iterations
// from word gA, field by field (a composite literal costs a block copy per
// call).
func (st *narrowStep) sseArgs(args *narrowSSEArgs, gA, pairs int) {
	aS, bS := gA*4+st.aOff, gA*4+st.bOff
	args.hNext, args.iNext, args.dNext = &st.hNext[gA], &st.iNext[gA], &st.dNext[gA]
	args.hCur1, args.iCur1 = &st.hCur[gA-1], &st.iCur[gA-1]
	args.hCur0, args.dCur0 = &st.hCur[gA], &st.dCur[gA]
	args.hPrev1 = &st.hPrev[gA-1]
	args.a, args.b = &st.a[aS>>2], &st.b[bS>>2]
	args.pairs = int64(pairs)
	args.dUp, args.dLt, args.dDg = int64(6+2*st.d), int64(2*st.d), int64(6+2*st.dd)
	args.dA, args.dB = int64(2*(aS&3)), int64(2*(bS&3))
	args.eV, args.oeV, args.nmV, args.gbV, args.smV = st.eV, st.oeV, st.nmV, st.gbV, st.smV
	args.hV = nH
}

// narrowStepWords runs the whole-word step over [gA, gB]: full 2-word
// pairs through the SSE2 kernel (8 lanes per iteration), at most one
// trailing word through the portable SWAR loop.
func narrowStepWords(st *narrowStep, gA, gB int) uint64 {
	var ov uint64
	if pairs := (gB - gA + 1) / 2; pairs > 0 {
		var args narrowSSEArgs
		st.sseArgs(&args, gA, pairs)
		ov = narrowStepSSE(&args)
		gA += 2 * pairs
	}
	if gA <= gB {
		ov |= narrowStepWordsGo(st, gA, gB, ^uint64(0))
	}
	return ov
}

// narrowStepWordsTB is narrowStepWords recording traceback nibbles into the
// lane-indexed row st.bt.
func narrowStepWordsTB(st *narrowStep, gA, gB int) uint64 {
	var ov uint64
	if pairs := (gB - gA + 1) / 2; pairs > 0 {
		var args narrowSSEArgs
		st.sseArgs(&args, gA, pairs)
		_ = st.bt[2*(gA+2*pairs)-1] // the kernel writes four bytes per pair
		args.bt = &st.bt[2*gA]
		ov = narrowStepSSETB(&args)
		gA += 2 * pairs
	}
	if gA <= gB {
		ov |= narrowStepWordsGoTB(st, gA, gB, ^uint64(0))
	}
	return ov
}

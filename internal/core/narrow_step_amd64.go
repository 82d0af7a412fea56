//go:build amd64

package core

// narrowSSEArgs is the argument block of narrowStepSSE and
// narrowStepSSETB; one pointer keeps the assembly ABI trivial. The stream
// pointers address a word at or just before the first processed word, and
// the three byte deltas place each neighbour stream on its lane offset —
// the packed []uint64 lanes are contiguous little-endian uint16s in
// memory, so an unaligned 16-byte load at lane offset s is exactly the
// funnel-shifted read of lanes s..s+7.
// The field order is frozen: narrow_step_amd64.s addresses it by offset.
type narrowSSEArgs struct {
	hNext, iNext, dNext *uint64 // output words, from word gA
	hCur1, iCur1        *uint64 // up/diag-up streams, based at word gA−1
	hCur0, dCur0        *uint64 // left streams, based at word gA
	hPrev1              *uint64 // diagonal stream, based at word gA−1
	sub                 *uint64 // packed substitution words, from word gA
	pairs               int64   // number of 2-word (8-lane) iterations
	dUp, dLt, dDg       int64   // byte deltas of the three neighbour streams
	eV, oeV, nmV, gbV   uint64  // broadcast constants (asm widens 4→8 lanes)
	hV                  uint64  // nH — bit 15 of every lane
	bt                  *byte   // traceback row at word gA (narrowStepSSETB only)
}

// narrowStepSSE is the SSE2 kernel: PSUBUSW is the per-lane saturating
// subtract, PMAXSW the lane max (sound because live lanes keep bit 15
// clear), and the sticky accumulator collects saturating-add carries and
// below-guard outputs. Implemented in narrow_step_amd64.s.
//
//go:noescape
func narrowStepSSE(a *narrowSSEArgs) uint64

// narrowStepSSETB is the traceback twin of narrowStepSSE: the same
// recurrence and sticky verdict, plus one bt.go nibble per lane derived
// from PCMPEQW/PCMPGTW on the operands of the PMAXSWs and packed eight
// lanes to four bytes at a.bt. Implemented in narrow_step_amd64.s.
//
//go:noescape
func narrowStepSSETB(a *narrowSSEArgs) uint64

// narrowStepWords runs the interior word loop [gA, gB] of one
// anti-diagonal: full 2-word pairs through the SSE2 kernel (8 lanes per
// iteration), at most one trailing word through the portable SWAR loop.
func narrowStepWords(hNext, iNext, dNext, hCur, iCur, dCur, hPrev, nsub []uint64,
	gA, gB, d, dd int, eV, oeV, nmV, gbV uint64) uint64 {
	var ov uint64
	if pairs := (gB - gA + 1) / 2; pairs > 0 {
		args := narrowSSEArgs{
			hNext: &hNext[gA], iNext: &iNext[gA], dNext: &dNext[gA],
			hCur1: &hCur[gA-1], iCur1: &iCur[gA-1],
			hCur0: &hCur[gA], dCur0: &dCur[gA],
			hPrev1: &hPrev[gA-1],
			sub:    &nsub[gA],
			pairs:  int64(pairs),
			dUp:    int64(6 + 2*d),
			dLt:    int64(2 * d),
			dDg:    int64(6 + 2*dd),
			eV:     eV, oeV: oeV, nmV: nmV, gbV: gbV,
			hV: nH,
		}
		ov = narrowStepSSE(&args)
		gA += 2 * pairs
	}
	if gA <= gB {
		ov |= narrowStepWordsGo(hNext, iNext, dNext, hCur, iCur, dCur, hPrev, nsub,
			gA, gB, d, dd, eV, oeV, nmV, gbV)
	}
	return ov
}

// narrowStepWordsTB is narrowStepWords recording traceback nibbles into the
// lane-indexed row bt.
func narrowStepWordsTB(hNext, iNext, dNext, hCur, iCur, dCur, hPrev, nsub []uint64, bt []byte,
	gA, gB, d, dd int, eV, oeV, nmV, gbV uint64) uint64 {
	var ov uint64
	if pairs := (gB - gA + 1) / 2; pairs > 0 {
		args := narrowSSEArgs{
			hNext: &hNext[gA], iNext: &iNext[gA], dNext: &dNext[gA],
			hCur1: &hCur[gA-1], iCur1: &iCur[gA-1],
			hCur0: &hCur[gA], dCur0: &dCur[gA],
			hPrev1: &hPrev[gA-1],
			sub:    &nsub[gA],
			pairs:  int64(pairs),
			dUp:    int64(6 + 2*d),
			dLt:    int64(2 * d),
			dDg:    int64(6 + 2*dd),
			eV:     eV, oeV: oeV, nmV: nmV, gbV: gbV,
			hV: nH,
			bt: &bt[2*gA],
		}
		_ = bt[2*(gA+2*pairs)-1] // the kernel writes four bytes per pair
		ov = narrowStepSSETB(&args)
		gA += 2 * pairs
	}
	if gA <= gB {
		ov |= narrowStepWordsGoTB(hNext, iNext, dNext, hCur, iCur, dCur, hPrev, nsub, bt,
			gA, gB, d, dd, eV, oeV, nmV, gbV)
	}
	return ov
}

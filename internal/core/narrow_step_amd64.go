//go:build amd64

package core

// narrowArgs is the argument block of narrowStepSSE and narrowStepSSETB;
// one pointer keeps the assembly ABI trivial. It lives in narrowStep and
// persists across anti-diagonals: bind writes the base pointers and the
// constants once per engine call, kernel only what changes per step. The
// stream offsets are byte offsets from the base pointers — the packed
// []uint64 lanes are contiguous little-endian uint16s in memory, so an
// unaligned 16-byte load at lane offset s is exactly the funnel-shifted
// read of lanes s..s+7.
// The field order is frozen: narrow_step_amd64.s addresses it by offset.
type narrowArgs struct {
	ring, a, b          *uint64   // lane-array ring, base streams
	hNext, iNext, dNext int       // output words, from word gLo
	hUp, iUp            int       // up streams: lane gLo·4−1+d (left H is hUp+2)
	dLt                 int       // left D stream: lane gLo·4+d
	hDg                 int       // diagonal stream: lane gLo·4−1+dd
	aLane, bLane        int       // base streams: lanes gLo·4+aOff, gLo·4+bOff
	iters               int       // 2-word (8-lane) iterations
	first, last         [2]uint64 // lane keep-masks of the first and last iteration
	bt, btOrg           *byte     // the traceback row's two planes at word gLo (narrowStepSSETB only)
	eV, oeV, nmV, gbV   uint64    // broadcast constants (asm widens 4→8 lanes)
	smV                 uint64    // Match−Mismatch, broadcast
}

// narrowStepSSE is the SSE2 kernel: PCMPEQW of the two base streams masked
// with Match−Mismatch is the substitution word, PSUBUSW the per-lane
// saturating subtract, PMAXSW the lane max (sound because live lanes keep
// bit 15 clear), and the sticky accumulator collects saturating-add
// carries and below-guard outputs. The first and last iterations blend
// their outputs under the keep-masks. Implemented in narrow_step_amd64.s.
//
//go:noescape
func narrowStepSSE(a *narrowArgs) uint64

// narrowStepSSETB is the traceback twin of narrowStepSSE: the same
// recurrence, masks and sticky verdict, plus four traceback bits per lane
// from PCMPEQW/PCMPGTW on the operands of the PMAXSWs, gathered by
// PMOVMSKB into one byte per word in each of the row's two planes (setBT).
// Implemented in narrow_step_amd64.s.
//
//go:noescape
func narrowStepSSETB(a *narrowArgs) uint64

// bind points the argument block at the step's ring and operands and
// broadcasts its constants, once per engine call.
func (st *narrowStep) bind() {
	k := &st.k
	k.ring, k.a, k.b = &st.ring[0], &st.a[0], &st.b[0]
	k.eV, k.oeV, k.nmV, k.gbV, k.smV = st.eV, st.oeV, st.nmV, st.gbV, st.smV
}

// kernel runs words [gLo, gHi] through the SSE2 kernel in one call, the
// first word under keepLo and the last under keepHi; an odd word count
// ends in a half iteration whose second word is masked out.
func (st *narrowStep) kernel(gLo, gHi int, keepLo, keepHi uint64, traceback bool) uint64 {
	iters := (gHi - gLo + 2) >> 1
	aS, bS := 4*gLo+st.aOff, 4*gLo+st.bOff
	// Bounds, once per call: the kernel touches words gLo−1 … gLo+2·iters
	// of every lane array, lanes aS … aS+8·iters−1 of a (bS … of b) and
	// bytes gLo … gLo+2·iters−1 of each half of the traceback row.
	if gLo < 1 || gLo+2*iters >= st.words || aS < 0 || bS < 0 {
		panic("core: narrow step outside its lane arrays")
	}
	_ = st.a[(aS+8*iters-1)>>2]
	_ = st.b[(bS+8*iters-1)>>2]

	k := &st.k
	up := 8*gLo - 2 + 2*st.d
	k.hNext, k.iNext, k.dNext = 8*(st.hNext+gLo), 8*(st.iNext+gLo), 8*(st.dNext+gLo)
	k.hUp, k.iUp = 8*st.hCur+up, 8*st.iCur+up
	k.dLt = 8*st.dCur + up + 2
	k.hDg = 8*st.hPrev + 8*gLo - 2 + 2*st.dd
	k.aLane, k.bLane = 2*aS, 2*bS
	k.iters = iters
	k.first = [2]uint64{keepLo, ^uint64(0)}
	k.last = [2]uint64{^uint64(0), keepHi}
	if (gHi-gLo)&1 == 0 {
		k.last = [2]uint64{keepHi, 0}
	}
	if iters == 1 {
		k.first[0] &= k.last[0]
		k.first[1] &= k.last[1]
		k.last = [2]uint64{^uint64(0), ^uint64(0)}
	}
	if traceback {
		half := len(st.bt) / 2
		_ = st.bt[half+gLo+2*iters-1]
		k.bt, k.btOrg = &st.bt[gLo], &st.bt[half+gLo]
		return narrowStepSSETB(k)
	}
	return narrowStepSSE(k)
}

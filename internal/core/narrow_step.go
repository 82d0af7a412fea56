package core

// narrowStep is the narrow engine's state for one pair (banded_narrow.go):
// the seven packed lane arrays in one ring rotated by index, the operands
// one base per 16-bit lane, the window offsets and abandoned edge lanes,
// the traceback arena, the position of the current run, and the broadcast
// constants. A run (run, narrow_step_amd64.go and narrow_step_generic.go)
// computes anti-diagonals t+1 … tEnd in one call: the AVX2 routine
// narrowRunAVX2 on amd64 CPUs that have it, narrowRunGo elsewhere and as
// its oracle.
type narrowStep struct {
	ring []uint64 // the seven lane arrays back to back, words each
	a, b []uint64 // bases one per lane: a, and b reversed
	// off[t] is the window offset of anti-diagonal t; edge[t mod
	// certBlock] the raw lane of the edge cell the shift out of t abandons
	// (the clip certificate's input, escapePotential): a run never crosses
	// a rebase, a multiple of certBlock, so it needs one block.
	off, edge []int32
	bt        []byte // traceback arena, row t at t·rowBytes; nil when score-only
	rowBytes  int
	words     int // per lane array
	winEnd    int // the word after the window's last lane
	m, n, w   int
	t, tEnd   int // the run computes anti-diagonals t+1 … tEnd
	// Word offsets of each lane array in ring: H over three anti-diagonals,
	// I and D over two. Every step rotates them, so nothing is copied.
	hPrev, hCur, hNext, iCur, iNext, dCur, dNext int

	dPrev int   // the shift into anti-diagonal t
	cells int64 // cells computed so far
	p     Params
	bnd   int64 // narrowCenter − base: a boundary cell stores bnd − GapCost(k)
	// GapExt, GapOpen+GapExt, −Mismatch, the guard floor and
	// Match−Mismatch, broadcast to every lane.
	eV, oeV, nmV, gbV, smV uint64
}

// narrowAVX2 reports whether narrowStep.run uses the AVX2 routine: set at
// init from the CPU, and forced off by tests that run the portable engine
// end to end on amd64.
var narrowAVX2 = haveAVX2()

// NarrowEngine names the narrow engine's window loop on this machine:
// "avx2" for the assembly routine, "portable" for narrowRunGo.
func NarrowEngine() string {
	if narrowAVX2 {
		return "avx2"
	}
	return "portable"
}

// lanes returns the lane array at word offset off of the ring.
func (st *narrowStep) lanes(off int) []uint64 { return st.ring[off : off+st.words] }

// getLane and setLane access lane l of the lane array at word offset arr.
func (st *narrowStep) getLane(arr, l int) uint16    { return getLane16(st.ring, 4*arr+l) }
func (st *narrowStep) setLane(arr, l int, v uint16) { setLane16(st.ring, 4*arr+l, v) }

// setBT records the traceback bits of lane l in row. The row holds two
// planes, the first half I-extend and D-extend, the second the
// complements of H from I and H from D (strict: a diagonal origin sets
// both, and the walk tells match from mismatch by the bases). Each plane
// gives the lanes of word pair (b, b+1), b odd — half an iteration of
// the AVX2 span — bytes b and b+1, lane 4b+k at bit k: the I bits in byte
// b, the D bits in byte b+1. ext and org carry a lane's I bit at bit 0 and
// its D bit at bit 4.
func setBT(row []byte, l int, ext, org byte) {
	b := (l>>2 - 1) | 1
	bit := uint(l - 4*b)
	for i, v := range [4]byte{ext, ext >> 4, org, org >> 4} {
		plane, d := i>>1, i&1 // the D bits sit one byte after the I bits
		r := &row[plane*len(row)/2+b+d]
		*r = *r&^(1<<bit) | (v&1)<<bit
	}
}

// rotate makes the anti-diagonal just computed the current one.
func (st *narrowStep) rotate() {
	st.hPrev, st.hCur, st.hNext = st.hCur, st.hNext, st.hPrev
	st.iCur, st.iNext = st.iNext, st.iCur
	st.dCur, st.dNext = st.dNext, st.dCur
}

// laneScore maps a stored lane to chooseShift's domain: a dead lane is
// NegInf, a live one keeps its stored value (the bias and base shift both
// edges alike, so their order is the true scores' order).
func laneScore(v uint16) int32 {
	if v == 0 {
		return NegInf
	}
	return int32(v)
}

// narrowRunGo is the narrow engine's window loop, one anti-diagonal per
// iteration from st.t to st.tEnd: the engine without AVX2, and the oracle
// that narrowRunAVX2 matches state for state. Each iteration steers the window
// (chooseShift), records the new offset and the lane the shift abandons,
// counts the cells, clears the dead flanks with whole-word stores, runs
// the live span [pLo, pHi] through narrowStepWordsGo under lane
// keep-masks for its first and last word, writes the matrix-boundary
// cells beside the span from GapCost, and rotates the ring. It returns
// true, leaving st mid-step, on the first anti-diagonal whose sticky flag
// sets: a span output, or a boundary value outside the lane range.
func narrowRunGo(st *narrowStep) bool {
	m, n, w := st.m, st.n, st.w
	for ; st.t < st.tEnd; st.t++ {
		t, o := st.t, int(st.off[st.t])
		top, bot := st.getLane(st.hCur, narrowLane0), st.getLane(st.hCur, narrowLane0+w-1)
		d := int(chooseShift(laneScore(top), laneScore(bot), int32(o), t, m, n, w))
		e := &st.edge[t%certBlock]
		*e = int32(bot)
		if d == 1 {
			*e = int32(top)
		}
		o += d
		st.off[t+1] = int32(o)

		pLo, pHi := max(0, 1-o, t+1-n-o), min(w-1, m-o, t-o)
		if cLo, cHi := max(0, t+1-n-o), min(w-1, m-o, t+1-o); cHi >= cLo {
			st.cells += int64(cHi - cLo + 1)
		}
		var row []byte
		if st.bt != nil {
			row = st.bt[(t+1)*st.rowBytes : (t+2)*st.rowBytes]
		}

		// The span, one word step; every other window word is a dead flank.
		lo, hi := pLo+narrowLane0, pHi+narrowLane0
		gLo, gHi := st.winEnd, st.winEnd-1
		if lo <= hi {
			gLo, gHi = lo>>2, hi>>2
		}
		for _, arr := range []int{st.hNext, st.iNext, st.dNext} {
			clear(st.ring[arr+narrowLane0>>2 : arr+gLo])
			clear(st.ring[arr+gHi+1 : arr+st.winEnd])
		}
		// Lane L is cell (i, j) = (o+L−narrowLane0, t+1−i): it compares
		// a[i−1], at base lane L+o−1+δ, with b[j−1], which sits at reversed
		// index n−j, base lane L+n−t−1+o+δ, where δ = narrowBase0−narrowLane0.
		const δ = narrowBase0 - narrowLane0
		if lo <= hi && narrowStepWordsGo(st, row, gLo, gHi, d, d+st.dPrev, o-1+δ, n-t-1+o+δ,
			^uint64(0)<<(16*uint(lo&3)), ^uint64(0)>>(16*uint(3-hi&3))) != 0 {
			return true
		}

		// Matrix-boundary cells, peeled exactly as in adaptiveBand, just
		// outside the span.
		rel := int64(-st.p.GapCost(t+1)) + st.bnd
		fits := rel > 0 && rel <= narrowTop
		if o == 0 && t+1 <= n {
			if !fits {
				return true
			}
			st.setLane(st.hNext, narrowLane0, uint16(rel))
			st.setLane(st.dNext, narrowLane0, uint16(rel))
			if row != nil {
				setBT(row, narrowLane0, byte(min(t, 1))<<4, 0x01) // from D, D-extend past the first row
			}
		}
		if q := t + 1 - o; q >= 0 && q < w && t+1 <= m {
			if !fits {
				return true
			}
			st.setLane(st.hNext, q+narrowLane0, uint16(rel))
			st.setLane(st.iNext, q+narrowLane0, uint16(rel))
			if row != nil {
				setBT(row, q+narrowLane0, byte(min(t, 1)), 0x10) // from I, I-extend past the first column
			}
		}
		st.rotate()
		st.dPrev = d
	}
	return false
}

// narrowStepWordsGo is the portable SWAR form of the narrow engine's word
// step: for each packed word g in [gA, gB] it computes the four H/I/D cells
// of one anti-diagonal from funnel-shifted neighbour and base loads — up
// neighbours at lane L−1+d, left ones at L+d, the diagonal at L−1+dd, base
// lane L+aOff of a against L+bOff of b — with per-lane saturating
// arithmetic as described in banded_narrow.go. It writes the kept lanes
// (0xffff per lane: those of keepLo in word gA, of keepHi in word gB, and
// every lane of the words between) and zeroes the other lanes of those
// words. The return value is the sticky accumulator of the kept lanes —
// nonzero means a saturating-add carry or a below-guard H output was seen
// and the step must be treated as overflowed. With a traceback row it also
// records four bits per kept lane, read off the borrow bits the maxima
// already produce — m3/m6 are the extend compares (extend candidate ≥ open
// candidate: ties extend), m8/m9 the complements of the two strict origin
// compares (diagonal before I before D) — in the word-pair bytes of setBT,
// writing whole the bytes of every pair the span touches: bits of lanes
// outside the masks, and of a pair's word outside [gA, gB], are zero.
func narrowStepWordsGo(st *narrowStep, bt []byte, gA, gB, d, dd, aOff, bOff int, keepLo, keepHi uint64) uint64 {
	hNext, iNext, dNext := st.lanes(st.hNext), st.lanes(st.iNext), st.lanes(st.dNext)
	hCur, iCur, dCur, hPrev := st.lanes(st.hCur), st.lanes(st.iCur), st.lanes(st.dCur), st.lanes(st.hPrev)
	ba, bb := st.a, st.b
	half := len(bt) / 2
	eV, oeV, nmV, gbV, smV := st.eV, st.oeV, st.nmV, st.gbV, st.smV
	// Funnel-shift bases for the five input streams; the shift amounts are
	// loop-invariant (the lane offset mod 4 never changes within one
	// anti-diagonal).
	upS := gA*4 + d - 1
	ltS := upS + 1
	dgS := gA*4 + dd - 1
	aS, bS := gA*4+aOff, gA*4+bOff
	qU, shU := upS>>2, uint(upS&3)*16
	qL, shL := ltS>>2, uint(ltS&3)*16
	qD, shD := dgS>>2, uint(dgS&3)*16
	qA, shA := aS>>2, uint(aS&3)*16
	qB, shB := bS>>2, uint(bS&3)*16
	var ovAcc uint64
	for g := gA; g <= gB; g++ {
		keep := narrowKeep(g, gA, gB, keepLo, keepHi)
		hUp := hCur[qU]>>shU | hCur[qU+1]<<(64-shU)
		iUp := iCur[qU]>>shU | iCur[qU+1]<<(64-shU)
		hLt := hCur[qL]>>shL | hCur[qL+1]<<(64-shL)
		dLt := dCur[qL]>>shL | dCur[qL+1]<<(64-shL)
		hDg := hPrev[qD]>>shD | hPrev[qD+1]<<(64-shD)
		x := (ba[qA]>>shA | ba[qA+1]<<(64-shA)) ^ (bb[qB]>>shB | bb[qB+1]<<(64-shB))
		qU++
		qL++
		qD++
		qA++
		qB++

		// iv = max(iUp ⊖ e, hUp ⊖ oe), per-lane, ⊖ saturating at 0.
		t1 := (iUp | nH) - eV
		m1 := t1 & nH
		ivA := t1 & (m1 - m1>>15)
		t2 := (hUp | nH) - oeV
		m2 := t2 & nH
		ivB := t2 & (m2 - m2>>15)
		t3 := (ivA | nH) - ivB
		m3 := t3 & nH
		iv := ivB + t3&(m3-m3>>15)

		// dv = max(dLt ⊖ e, hLt ⊖ oe).
		t4 := (dLt | nH) - eV
		m4 := t4 & nH
		dvA := t4 & (m4 - m4>>15)
		t5 := (hLt | nH) - oeV
		m5 := t5 & nH
		dvB := t5 & (m5 - m5>>15)
		t6 := (dvA | nH) - dvB
		m6 := t6 & nH
		dv := dvB + t6&(m6-m6>>15)

		// diag = (hDg ⊕ sub) ⊖ (−Mismatch): sub is Match−Mismatch where the
		// bases agree (a lane of x is 0…3, so x + 0x7fff reaches bit 15
		// exactly on a mismatch), added saturating (carry → sticky), then
		// the unconditional Mismatch folded in.
		ne := (x + nLow) & nH
		sd := hDg + smV&^(ne-ne>>15)
		md := sd & nH
		sd = sd&nLow | (md - md>>15)
		t7 := (sd | nH) - nmV
		m7 := t7 & nH
		dg := t7 & (m7 - m7>>15)

		// best = max(diag, iv, dv).
		t8 := (dg | nH) - iv
		m8 := t8 & nH
		best := iv + t8&(m8-m8>>15)
		t9 := (best | nH) - dv
		m9 := t9 & nH
		best = dv + t9&(m9-m9>>15)

		// Bottom guard: any interior H output below the floor is where an
		// inexact chain would surface — sticky.
		tg := (best | nH) - gbV
		ovAcc |= (md | ^tg&nH) & keep

		hNext[g], iNext[g], dNext[g] = best&keep, iv&keep, dv&keep
		if bt != nil {
			// One flag per lane at bit 15, gathered four lanes to a nibble:
			// word g's nibble of its pair's I and D bytes.
			kb := narrowBits(keep & nH)
			b := (g - 1) | 1
			sh := uint(g-b) * 4
			for i, v := range [4]byte{narrowBits(m3), narrowBits(m6), narrowBits(m8), narrowBits(m9)} {
				plane, d := i>>1, i&1
				r := &bt[plane*half+b+d]
				if g == b || g == gA {
					*r = 0 // the pair's first word in the span starts its bytes
				}
				*r |= (v & kb) << sh
			}
		}
	}
	return ovAcc
}

// narrowBits gathers bit 15 of each of the four lanes of x, the only bits
// set, into bits 0–3.
func narrowBits(x uint64) byte {
	return byte((x>>15 | x>>30 | x>>45 | x>>60) & 0xf)
}

// narrowKeep is the lane keep-mask of word g of the span [gA, gB].
func narrowKeep(g, gA, gB int, keepLo, keepHi uint64) uint64 {
	keep := ^uint64(0)
	if g == gA {
		keep = keepLo
	}
	if g == gB {
		keep &= keepHi
	}
	return keep
}

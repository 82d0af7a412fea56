package core

// narrowStep is the narrow engine's anti-diagonal step (banded_narrow.go):
// the seven packed lane arrays in one ring it rotates by index, the
// operands one base per 16-bit lane, the lane-indexed traceback row, the
// stream offsets and the broadcast constants, and the kernel's argument
// block, which persists across anti-diagonals.
type narrowStep struct {
	// ring holds the seven lane arrays back to back, words each: H over
	// three anti-diagonals, I and D over two. The fields below are the word
	// offsets of each array in ring; rotate permutes them after every
	// anti-diagonal, so nothing is copied or restamped.
	ring                                         []uint64
	words                                        int // per lane array
	winEnd                                       int // the word after the window's last lane
	hPrev, hCur, hNext, iCur, iNext, dCur, dNext int
	a, b                                         []uint64 // bases one per lane: a, and b reversed
	bt                                           []byte   // traceback row (traceback steps only)
	// Output lane L reads its up neighbours at lane L−1+d, its left ones at
	// L+d, its diagonal at L−1+dd, and compares base lane L+aOff of a with
	// base lane L+bOff of b.
	d, dd, aOff, bOff int
	// GapExt, GapOpen+GapExt, −Mismatch, the guard floor and
	// Match−Mismatch, broadcast to every lane.
	eV, oeV, nmV, gbV, smV uint64
	k                      narrowArgs // the kernel's argument block (narrow_step_amd64.go)
}

// lanes returns the lane array at word offset off of the ring.
func (st *narrowStep) lanes(off int) []uint64 { return st.ring[off : off+st.words] }

// getLane and setLane access lane l of the lane array at word offset arr.
func (st *narrowStep) getLane(arr, l int) uint16    { return getLane16(st.ring, 4*arr+l) }
func (st *narrowStep) setLane(arr, l int, v uint16) { setLane16(st.ring, 4*arr+l, v) }

// setBT records the traceback bits of lane l in the row st.bt. The row
// holds two planes of one byte per lane word, lane k of the word at bits k
// and 4+k: the first half I-extend and D-extend, the second H from I and H
// from D (strict: a diagonal origin is neither, and the walk tells match
// from mismatch by the bases). ext and org carry those bits for lane 0.
func (st *narrowStep) setBT(l int, ext, org byte) {
	half, g, sh := len(st.bt)/2, l>>2, uint(l&3)
	st.bt[g] = st.bt[g]&^(0x11<<sh) | ext<<sh
	st.bt[half+g] = st.bt[half+g]&^(0x11<<sh) | org<<sh
}

// rotate makes the anti-diagonal just computed the current one.
func (st *narrowStep) rotate() {
	st.hPrev, st.hCur, st.hNext = st.hCur, st.hNext, st.hPrev
	st.iCur, st.iNext = st.iNext, st.iCur
	st.dCur, st.dNext = st.dNext, st.dCur
}

// step computes lanes [lo, hi] of the next anti-diagonal in one kernel
// call (none when lo > hi) and clears every other lane of its window, the
// dead flanks: whole words with plain stores, the partial words at the
// span edges under the complement of the kernel's keep-masks. The kernel
// leaves the lanes outside its masks untouched, so the caller may write
// the boundary cells beside the span before or after. Returns the sticky
// accumulator of the computed lanes.
func (st *narrowStep) step(lo, hi int, traceback bool) uint64 {
	hN, iN, dN := st.lanes(st.hNext), st.lanes(st.iNext), st.lanes(st.dNext)
	if lo > hi {
		for g := narrowLane0 >> 2; g < st.winEnd; g++ {
			hN[g], iN[g], dN[g] = 0, 0, 0
		}
		return 0
	}
	gLo, gHi := lo>>2, hi>>2
	keepLo := ^uint64(0) << (16 * uint(lo&3))
	keepHi := ^uint64(0) >> (16 * uint(3-hi&3))
	for g := narrowLane0 >> 2; g < gLo; g++ {
		hN[g], iN[g], dN[g] = 0, 0, 0
	}
	hN[gLo], iN[gLo], dN[gLo] = hN[gLo]&keepLo, iN[gLo]&keepLo, dN[gLo]&keepLo
	hN[gHi], iN[gHi], dN[gHi] = hN[gHi]&keepHi, iN[gHi]&keepHi, dN[gHi]&keepHi
	for g := gHi + 1; g < st.winEnd; g++ {
		hN[g], iN[g], dN[g] = 0, 0, 0
	}
	return st.kernel(gLo, gHi, keepLo, keepHi, traceback)
}

// narrowStepWordsGo is the portable SWAR form of the narrow engine's word
// step: for each packed word g in [gA, gB] it computes the four H/I/D cells
// of one anti-diagonal from funnel-shifted neighbour and base loads, with
// per-lane saturating arithmetic as described in banded_narrow.go, and
// writes only the kept lanes (0xffff per lane): those of keepLo in word gA,
// of keepHi in word gB, and every lane of the words between. The return
// value is the sticky accumulator of the kept lanes — nonzero means a
// saturating-add carry or a below-guard H output was seen and the step must
// be treated as overflowed. With traceback it also records four bits per
// kept lane, read off the borrow bits the maxima already produce — m3/m6
// are the extend compares (extend candidate ≥ open candidate: ties
// extend), the complements of m8/m9 the two strict origin compares
// (diagonal before I before D) — word g in byte g of each half of the row
// st.bt (the layout of setBT). It is the !amd64 kernel, and the oracle of
// narrow_step_amd64.s, which implements the same contract eight lanes at a
// time; the two are kept in lockstep by the differential sweeps,
// FuzzNarrowWideEquivalence and, lane for lane, by
// TestNarrowStepAsmMatchesPortable.
func narrowStepWordsGo(st *narrowStep, gA, gB int, keepLo, keepHi uint64, traceback bool) uint64 {
	hNext, iNext, dNext := st.lanes(st.hNext), st.lanes(st.iNext), st.lanes(st.dNext)
	hCur, iCur, dCur, hPrev := st.lanes(st.hCur), st.lanes(st.iCur), st.lanes(st.dCur), st.lanes(st.hPrev)
	ba, bb, bt := st.a, st.b, st.bt
	half := len(bt) / 2
	eV, oeV, nmV, gbV, smV := st.eV, st.oeV, st.nmV, st.gbV, st.smV
	// Funnel-shift bases for the five input streams; the shift amounts are
	// loop-invariant (the lane offset mod 4 never changes within one
	// anti-diagonal).
	upS := gA*4 + st.d - 1
	ltS := upS + 1
	dgS := gA*4 + st.dd - 1
	aS, bS := gA*4+st.aOff, gA*4+st.bOff
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

		hNext[g] ^= (hNext[g] ^ best) & keep
		iNext[g] ^= (iNext[g] ^ iv) & keep
		dNext[g] ^= (dNext[g] ^ dv) & keep

		if traceback {
			// One flag per lane at bit 15, gathered four lanes to a nibble.
			kb := narrowBits(keep&nH) * 0x11
			ext := narrowBits(m3) | narrowBits(m6)<<4
			org := narrowBits(^m8&nH) | narrowBits(^m9&nH)<<4
			bt[g] ^= (bt[g] ^ ext) & kb
			bt[half+g] ^= (bt[half+g] ^ org) & kb
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

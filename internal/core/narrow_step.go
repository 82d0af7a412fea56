package core

// narrowStep carries one anti-diagonal into the narrow engine's step
// functions: the seven packed lane arrays (banded_narrow.go), the operands
// one base per 16-bit lane, the lane-indexed traceback row, the stream
// offsets and the broadcast constants.
type narrowStep struct {
	hNext, iNext, dNext, hCur, iCur, dCur, hPrev []uint64
	a, b                                         []uint64 // bases one per lane: a, and b reversed
	bt                                           []byte   // traceback row (traceback steps only)
	// Output lane L reads its up neighbours at lane L−1+d, its left ones at
	// L+d, its diagonal at L−1+dd, and compares base lane L+aOff of a with
	// base lane L+bOff of b.
	d, dd, aOff, bOff int
	// GapExt, GapOpen+GapExt, −Mismatch, the guard floor and
	// Match−Mismatch, broadcast to every lane.
	eV, oeV, nmV, gbV, smV uint64
}

// narrowStepWordsGo is the portable SWAR form of the narrow engine's word
// step: for each packed word g in [gA, gB] it computes the four H/I/D cells
// of one anti-diagonal from funnel-shifted neighbour and base loads, with
// per-lane saturating arithmetic as described in banded_narrow.go, and
// writes only the lanes set in keep (0xffff per kept lane): the engine
// passes all ones for whole words and a partial mask for the words at the
// span edges. The return value is the sticky accumulator of the kept lanes
// — nonzero means a saturating-add carry or a below-guard H output was seen
// and the step must be treated as overflowed. narrow_step_amd64.s
// implements the unmasked contract eight lanes at a time; the two are kept
// in lockstep by the differential sweeps, FuzzNarrowWideEquivalence and,
// word for word, by TestNarrowStepAsmMatchesPortable.
func narrowStepWordsGo(st *narrowStep, gA, gB int, keep uint64) uint64 {
	hNext, iNext, dNext := st.hNext, st.iNext, st.dNext
	hCur, iCur, dCur, hPrev := st.hCur, st.iCur, st.dCur, st.hPrev
	ba, bb := st.a, st.b
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
		ovAcc |= md | ^tg&nH

		hNext[g] ^= (hNext[g] ^ best) & keep
		iNext[g] ^= (iNext[g] ^ iv) & keep
		dNext[g] ^= (dNext[g] ^ dv) & keep
	}
	return ovAcc & keep
}

// narrowStepWordsGoTB is the traceback twin of narrowStepWordsGo: the same
// recurrence, keep-mask and sticky contract, plus the four bt.go nibbles of
// every word, read off the borrow bits the maxima already produce — m3/m6
// are the extend compares (extend candidate ≥ open candidate: ties
// extend), the complements of m8/m9 the two strict origin compares
// (diagonal before I before D), and the base compare's mismatch bit the
// diagonal code. Word g lands in bytes 2g and 2g+1 of the lane-indexed row
// st.bt, kept lanes' nibbles only.
func narrowStepWordsGoTB(st *narrowStep, gA, gB int, keep uint64) uint64 {
	hNext, iNext, dNext := st.hNext, st.iNext, st.dNext
	hCur, iCur, dCur, hPrev := st.hCur, st.iCur, st.dCur, st.hPrev
	ba, bb, bt := st.a, st.b, st.bt
	eV, oeV, nmV, gbV, smV := st.eV, st.oeV, st.nmV, st.gbV, st.smV
	upS := gA*4 + st.d - 1
	ltS := upS + 1
	dgS := gA*4 + st.dd - 1
	aS, bS := gA*4+st.aOff, gA*4+st.bOff
	qU, shU := upS>>2, uint(upS&3)*16
	qL, shL := ltS>>2, uint(ltS&3)*16
	qD, shD := dgS>>2, uint(dgS&3)*16
	qA, shA := aS>>2, uint(aS&3)*16
	qB, shB := bS>>2, uint(bS&3)*16
	// The keep-mask folded like the nibbles below: one 0xf per kept lane.
	kn := keep & 0x000f000f000f000f
	kn |= kn >> 12
	var ovAcc uint64
	for g := gA; g <= gB; g++ {
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

		t1 := (iUp | nH) - eV
		m1 := t1 & nH
		ivA := t1 & (m1 - m1>>15)
		t2 := (hUp | nH) - oeV
		m2 := t2 & nH
		ivB := t2 & (m2 - m2>>15)
		t3 := (ivA | nH) - ivB
		m3 := t3 & nH
		iv := ivB + t3&(m3-m3>>15)

		t4 := (dLt | nH) - eV
		m4 := t4 & nH
		dvA := t4 & (m4 - m4>>15)
		t5 := (hLt | nH) - oeV
		m5 := t5 & nH
		dvB := t5 & (m5 - m5>>15)
		t6 := (dvA | nH) - dvB
		m6 := t6 & nH
		dv := dvB + t6&(m6-m6>>15)

		mis := (x + nLow) & nH
		sd := hDg + smV&^(mis-mis>>15)
		md := sd & nH
		sd = sd&nLow | (md - md>>15)
		t7 := (sd | nH) - nmV
		m7 := t7 & nH
		dg := t7 & (m7 - m7>>15)

		t8 := (dg | nH) - iv
		m8 := t8 & nH
		best := iv + t8&(m8-m8>>15)
		t9 := (best | nH) - dv
		m9 := t9 & nH
		best = dv + t9&(m9-m9>>15)

		tg := (best | nH) - gbV
		ovAcc |= md | ^tg&nH

		hNext[g] ^= (hNext[g] ^ best) & keep
		iNext[g] ^= (iNext[g] ^ iv) & keep
		dNext[g] ^= (dNext[g] ^ dv) & keep

		// One flag per lane at bit 15, assembled into a nibble in the low
		// four bits of each lane, then folded to two bytes.
		fromI := ^m8 & nH
		fromD := ^m9 & nH
		nb := (fromD|mis&^fromI)>>15 | (fromI|fromD)>>14 | m3>>13 | m6>>12
		nb |= nb >> 12
		bt[2*g] ^= (bt[2*g] ^ byte(nb)) & byte(kn)
		bt[2*g+1] ^= (bt[2*g+1] ^ byte(nb>>32)) & byte(kn>>32)
	}
	return ovAcc & keep
}

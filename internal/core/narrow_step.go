package core

// narrowStepWordsGo is the portable SWAR form of the narrow engine's
// interior word loop: for each packed word g in [gA, gB] it computes the
// four H/I/D cells of one anti-diagonal from funnel-shifted neighbour
// loads, with per-lane saturating arithmetic as described in
// banded_narrow.go. The return value is the sticky accumulator — nonzero
// means a saturating-add carry or a below-guard H output was seen and the
// step must be treated as overflowed. narrow_step_amd64.s implements the
// same contract eight lanes at a time; the two are kept in lockstep by the
// differential sweeps, FuzzNarrowWideEquivalence and, word for word, by
// TestNarrowStepAsmMatchesPortable.
func narrowStepWordsGo(hNext, iNext, dNext, hCur, iCur, dCur, hPrev, nsub []uint64,
	gA, gB, d, dd int, eV, oeV, nmV, gbV uint64) uint64 {
	// Funnel-shift bases for the three neighbour streams; the shift
	// amounts are loop-invariant (the lane offset mod 4 never changes
	// within one anti-diagonal).
	upS := gA*4 + d - 1
	ltS := upS + 1
	dgS := gA*4 + dd - 1
	qU, shU := upS>>2, uint(upS&3)*16
	qL, shL := ltS>>2, uint(ltS&3)*16
	qD, shD := dgS>>2, uint(dgS&3)*16
	var ovAcc uint64
	for g := gA; g <= gB; g++ {
		hUp := hCur[qU]>>shU | hCur[qU+1]<<(64-shU)
		iUp := iCur[qU]>>shU | iCur[qU+1]<<(64-shU)
		hLt := hCur[qL]>>shL | hCur[qL+1]<<(64-shL)
		dLt := dCur[qL]>>shL | dCur[qL+1]<<(64-shL)
		hDg := hPrev[qD]>>shD | hPrev[qD+1]<<(64-shD)
		qU++
		qL++
		qD++

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

		// diag = (hDg ⊕ sub) ⊖ (−Mismatch): a saturating add of the LUT
		// word (carry → sticky), then the fold of the unconditional
		// Mismatch.
		sd := hDg + nsub[g]
		md := sd & nH
		ovAcc |= md
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
		ovAcc |= ^tg & nH

		hNext[g] = best
		iNext[g] = iv
		dNext[g] = dv
	}
	return ovAcc
}

// narrowStepWordsGoTB is the traceback twin of narrowStepWordsGo: the same
// recurrence and sticky contract, plus the four bt.go nibbles of every
// word, read off the borrow bits the maxima already produce — m3/m6 are
// the extend compares (extend candidate ≥ open candidate: ties extend),
// the complements of m8/m9 the two strict origin compares (diagonal
// before I before D), and a zero substitution lane is a mismatch. Word g
// lands in bytes 2g and 2g+1 of the lane-indexed row bt.
func narrowStepWordsGoTB(hNext, iNext, dNext, hCur, iCur, dCur, hPrev, nsub []uint64, bt []byte,
	gA, gB, d, dd int, eV, oeV, nmV, gbV uint64) uint64 {
	upS := gA*4 + d - 1
	ltS := upS + 1
	dgS := gA*4 + dd - 1
	qU, shU := upS>>2, uint(upS&3)*16
	qL, shL := ltS>>2, uint(ltS&3)*16
	qD, shD := dgS>>2, uint(dgS&3)*16
	var ovAcc uint64
	for g := gA; g <= gB; g++ {
		hUp := hCur[qU]>>shU | hCur[qU+1]<<(64-shU)
		iUp := iCur[qU]>>shU | iCur[qU+1]<<(64-shU)
		hLt := hCur[qL]>>shL | hCur[qL+1]<<(64-shL)
		dLt := dCur[qL]>>shL | dCur[qL+1]<<(64-shL)
		hDg := hPrev[qD]>>shD | hPrev[qD+1]<<(64-shD)
		qU++
		qL++
		qD++

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

		sub := nsub[g]
		sd := hDg + sub
		md := sd & nH
		ovAcc |= md
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
		ovAcc |= ^tg & nH

		hNext[g] = best
		iNext[g] = iv
		dNext[g] = dv

		// One flag per lane at bit 15, assembled into a nibble in the low
		// four bits of each lane, then folded to two bytes.
		mis := ^((sub | nH) - lanesOne) & nH
		fromI := ^m8 & nH
		fromD := ^m9 & nH
		nb := (fromD|mis&^fromI)>>15 | (fromI|fromD)>>14 | m3>>13 | m6>>12
		nb |= nb >> 12
		bt[2*g] = byte(nb)
		bt[2*g+1] = byte(nb >> 32)
	}
	return ovAcc
}

package core

import (
	"pimnw/internal/cigar"
	"pimnw/internal/seq"
)

// Narrow-lane adaptive banded Gotoh: the same anti-diagonal window as
// adaptiveBand (banded_adaptive.go), but with four 16-bit DP cells packed
// per uint64 word and per-lane saturating add/max — the adaptive-precision
// trick KSW2 popularised, mapped onto the PR-4 lane layout. Banded scores
// of bounded-length windows fit comfortably in 16 bits once they are
// stored relative to a running base, so the interior cell loop runs four
// lanes per ALU op instead of one.
//
// Lane layout. Window cell p lives at lane p+narrowLane0 = p+4: a whole
// dead word comes first (lanes 0–3, the last of them the top sentinel),
// the bottom sentinel and two zero pad words last, so every word a span
// touches has in-bounds neighbours for its funnel-shifted loads, and a
// full window of a band that is a multiple of 8 is whole SSE2 iterations.
// The seven lane arrays sit back to back in one ring that the step rotates
// by index (narrow_step.go). The operands are expanded once per call to
// one base per 16-bit lane (a forward, b reversed, so both advance with
// stride +1 along an anti-diagonal), and the step forms the substitution
// word itself by comparing the two base streams lane for lane — the SSE2
// analogue of the paper's cmpb4 (§4.2.4).
//
// One kernel call per anti-diagonal. The live span [pLo, pHi] goes to the
// kernel whole: a span that starts or ends mid-word passes lane keep-masks
// for its first and last word, the kernel blends those words' outputs,
// traceback bits and sticky contributions under them, and an odd word
// count ends in a half iteration whose second word is masked out. Lanes
// outside the masks keep their memory and raise nothing. Around the call,
// Go makes only the window decisions — chooseShift, the clip certificate,
// the matrix-boundary cells and the rebase — and clears the dead flanks
// with whole-word stores plus one masked word per side. The cell update
// exists three times: the SSE2 kernel with and without traceback, and the
// portable SWAR step that is both the kernel off amd64 and their oracle.
//
// Value encoding. Lane values are unsigned 15-bit magnitudes under a bias:
//
//	stored = trueScore − base + narrowCenter,  live ⇔ stored ∈ (0, 2^15)
//	stored = 0                                 ⇔ dead (the wide NegInf)
//
// Bit 15 of every lane is kept clear between operations so that it can
// absorb the borrow/carry of the SWAR primitives — a saturating-at-zero
// subtract is (x|H)−y followed by a select on the borrow bit, a saturating
// add traps the carry into the sticky accumulator — with no cross-lane
// propagation. `base` is rebased every narrowRebaseEvery anti-diagonals by
// a scalar pass that re-centres the window maximum, so only the score
// *spread across one window* must fit the lane, not the absolute score.
//
// Exactness discipline. Dead lanes absorb at zero, which *over*-estimates
// the true −∞; the engine therefore guards every interior H output
// against a params-derived floor narrowGuard: any output below it — which
// is where a dead-derived or clamped chain would have to surface before
// it could win a max — sets the sticky flag, as does any saturating add
// carry, any boundary write outside the representable range, and any
// rebase that would push a live lane out of range. The invariant, pinned
// by the differential sweeps and FuzzNarrowWideEquivalence: if the sticky
// flag stays clear, every consulted lane held its exact wide-engine value
// and the final Result is bit-identical to adaptiveBand's. If it sets,
// the engine returns Overflowed and the caller (the host ladder, or the
// auto path in AdaptiveBandScore / AdaptiveBandAlign) escalates to the
// wide kernel.
//
// Traceback. The same run can record the structure of bt.go, read off
// the lane compares the recurrence already makes: extend ⇔ the extend
// candidate equals the lane max, so ties extend; the origin from two
// strict compares, diagonal before I before D. The arena is private to the
// engine and indexed by lane: row t is anti-diagonal t in two planes of
// one byte per packed word (setBT), the extend bits and the I/D origin
// bits, so SSE2 gathers eight lanes' bits with two PMOVMSKBs. A diagonal
// origin is not stored as match or mismatch: the walk compares the two
// bases, as the substitution word did. The arena is never zeroed: every
// bit the walk consults is written. A consulted cell's walked state holds
// an exact value at or above the guard floor, while a dead or clamped
// candidate is below it, so a candidate that ties the lane max is itself
// exact and every compare agrees with the full-width engine's; DESIGN.md
// "Narrow-lane arithmetic" has the argument.

const (
	// narrowCenter is the storage bias: a freshly rebased window maximum
	// sits mid-range, leaving symmetric headroom for upward drift and the
	// downward spread across the window.
	narrowCenter = 16384
	// narrowTop is the largest representable live lane value.
	narrowTop = 0x7fff
	// narrowRebaseEvery is the rebase cadence in anti-diagonals; between
	// rebases the window maximum drifts at most ±maxStep per step.
	narrowRebaseEvery = 512
	// narrowSlack is how far the window maximum may sit from narrowCenter
	// before a rebase pass actually shifts the lanes.
	narrowSlack = 2048
	// narrowParamMax bounds each scoring parameter magnitude so that the
	// broadcast SWAR constants are faithful and lane sums cannot carry
	// across lanes.
	narrowParamMax = 4096
	// narrowLane0 is the lane of window cell 0, the first lane after the
	// dead word that ends in the top sentinel — and, behind the same dead
	// word, the lane of base 0 in the one-base-per-lane operands.
	narrowLane0 = 4

	nH       = 0x8000800080008000 // bit 15 of every lane
	nLow     = 0x7fff7fff7fff7fff // low 15 bits of every lane
	lanesOne = 0x0001000100010001 // broadcast multiplier
)

// narrowGuard is the live-lane floor: dead-derived candidates are at most
// Match and live chains decay by at most GapOpen+2·GapExt or −Mismatch per
// step, so anything exact that dips below this floor had to pass through a
// flagged output first.
func narrowGuard(p Params) int32 {
	return 2*(p.Match-p.Mismatch+p.GapOpen+2*p.GapExt) + 8
}

// narrowParamsFit reports whether the scoring parameters are small enough
// for faithful 16-bit broadcast arithmetic, and a match scores above a
// mismatch so that the zero lanes of a substitution word are exactly the
// mismatches (the SSE2 traceback reads the diagonal origin code off them).
func narrowParamsFit(p Params) bool {
	return p.Match <= narrowParamMax && -p.Mismatch <= narrowParamMax &&
		p.GapOpen <= narrowParamMax && p.GapExt <= narrowParamMax &&
		p.Match > p.Mismatch
}

// NarrowFits reports whether the 16-bit narrow-lane engine has the
// headroom to run band width w under params p without overflowing in the
// common case: guard floor + worst-case score spread across one window +
// worst-case drift between rebases must fit below the storage bias. It is
// an a-priori admission test — the saturation sticky bits remain the
// runtime safety net — and is what `-lanes=auto` and kernel geometry
// planning consult.
func NarrowFits(p Params, w int) bool {
	if w < 2 {
		w = 2
	}
	if !narrowParamsFit(p) {
		return false
	}
	maxStep := max(p.Match, p.GapOpen+2*p.GapExt, -p.Mismatch)
	spread := int64(w)*int64(p.Match+2*p.GapExt) + 2*int64(p.GapOpen) + int64(p.GapExt)
	drift := int64(narrowRebaseEvery)*int64(maxStep) + narrowSlack
	return int64(narrowGuard(p))+spread+drift+256 < narrowCenter
}

// AdaptiveBandScoreNarrow is the explicit narrow-lane entry point: the
// score-only adaptive-band alignment in 16-bit lanes, Result.Overflowed
// set (and nothing else valid) when saturation was detected. The DPU
// kernel model runs this when the lane width is 16; overflowed pairs ride
// the host escalation ladder to the wide kernel.
func AdaptiveBandScoreNarrow(a, b seq.Seq, p Params, w int) Result {
	s := GetScratch()
	res, _ := s.adaptiveBandNarrow(a, b, p, w, false)
	PutScratch(s)
	return res
}

// AdaptiveBandScoreNarrow is the explicit-scratch form of the package
// function.
func (s *Scratch) AdaptiveBandScoreNarrow(a, b seq.Seq, p Params, w int) Result {
	res, _ := s.adaptiveBandNarrow(a, b, p, w, false)
	return res
}

// getLane16 and setLane16 access one 16-bit lane of a packed word array.
func getLane16(a []uint64, l int) uint16 {
	return uint16(a[l>>2] >> (uint(l&3) * 16))
}

func setLane16(a []uint64, l int, v uint16) {
	sh := uint(l&3) * 16
	g := l >> 2
	a[g] = a[g]&^(uint64(0xffff)<<sh) | uint64(v)<<sh
}

// narrowRebase shifts every live lane of arr down by shift (up when shift
// is negative), leaving dead lanes dead. It returns false if any live
// lane would leave the representable (0, narrowTop] range — exactness can
// then no longer be certified and the caller must set the sticky flag.
func narrowRebase(arr []uint64, shift int32) bool {
	ok := true
	for g, wd := range arr {
		if wd == 0 {
			continue
		}
		var out uint64
		for k := uint(0); k < 4; k++ {
			v := uint16(wd >> (k * 16))
			if v == 0 {
				continue
			}
			nv := int32(v) - shift
			if nv <= 0 || nv > narrowTop {
				ok = false
				nv = 1
			}
			out |= uint64(uint16(nv)) << (k * 16)
		}
		arr[g] = out
	}
	return ok
}

// adaptiveBandNarrow runs the 16-bit engine. It mirrors adaptiveBand's
// window bookkeeping statement for statement — shift decisions, clamps,
// clip certificate, flank and boundary handling, cell metric — so that a
// non-overflowed run is bit-identical, CIGAR included; only the interior
// cell loop, the value encoding and the traceback arena's layout differ.
// Returns ok=false (Result.Overflowed) on any saturation sticky bit.
func (s *Scratch) adaptiveBandNarrow(a, b seq.Seq, p Params, w int, traceback bool) (Result, bool) {
	m, n := len(a), len(b)
	if w < 2 {
		w = 2
	}
	res := Result{Steps: m + n}
	if !narrowParamsFit(p) {
		res.Score = NegInf
		res.Overflowed = true
		return res, false
	}
	if m == 0 && n == 0 {
		res.InBand = true
		s.off = growI32(s.off, 1)
		s.off[0] = 0
		return res, true
	}

	nDiag := m + n + 1
	s.off = growI32(s.off, nDiag)
	off := s.off
	off[0] = 0

	// Lanes 0 … narrowLane0+w (the dead word, the w cells and the bottom
	// sentinel) packed four per word, plus two permanent zero pad words, so
	// a span's half iteration and its neighbour loads stay inside the
	// array. The seven arrays share one ring (narrowStep).
	words := (narrowLane0+w+4)/4 + 2
	s.nring = growU64(s.nring, 7*words)
	clear(s.nring)
	s.na = laneBases(s.na, a, false)
	s.nb = laneBases(s.nb, b, true)
	st := narrowStep{
		ring:   s.nring,
		words:  words,
		winEnd: (narrowLane0 + w + 3) / 4,
		a:      s.na,
		b:      s.nb,
		eV:     uint64(uint16(p.GapExt)) * lanesOne,
		oeV:    uint64(uint16(p.GapOpen+p.GapExt)) * lanesOne,
		nmV:    uint64(uint16(-p.Mismatch)) * lanesOne,
		gbV:    uint64(uint16(narrowGuard(p))) * lanesOne,
		smV:    uint64(uint16(p.Match-p.Mismatch)) * lanesOne,
	}
	st.hCur, st.hNext = words, 2*words // hPrev at 0
	st.iCur, st.iNext, st.dCur, st.dNext = 3*words, 4*words, 5*words, 6*words
	st.bind()
	st.setLane(st.hCur, narrowLane0, narrowCenter) // cell (0,0): score 0 at bias, base 0
	res.Cells = 1

	// Lane-indexed traceback rows: two planes of one byte per packed lane
	// word (setBT). Not zeroed — see the header comment.
	var bt []byte
	rowBytes := 2 * (words - 1)
	if traceback {
		s.bt = growU8(s.bt, nDiag*rowBytes)
		bt = s.bt
	}

	var base int32 // cumulative rebase: trueScore = stored − narrowCenter + base
	dPrevShift := 0
	maxPot := NegInf
	overflow := false

	// hv reads window cell p of the current H anti-diagonal in the wide
	// engine's value domain.
	hv := func(p int) int32 {
		v := st.getLane(st.hCur, p+narrowLane0)
		if v == 0 {
			return NegInf
		}
		return int32(v) - narrowCenter + base
	}

	for t := 0; t < m+n; t++ {
		top, bot := hv(0), hv(w-1)
		d := int(chooseShift(top, bot, off[t], t, m, n, w))
		loI := t + 1 - n
		if loI < 0 {
			loI = 0
		}
		hiI := t + 1
		if hiI > m {
			hiI = m
		}
		if int(off[t])+d+w-1 < loI {
			d = 1
		}
		if int(off[t])+d > hiI {
			d = 0
		}
		// Clip certificate, identical to adaptiveBand with dead lanes
		// mapped back to NegInf.
		{
			o := int(off[t])
			if d == 1 {
				if j := t - o; j >= 0 && j < n && o <= m {
					if top > NegInf/2 {
						if pot := top + escapeBound(p, m-o, n-j); pot > maxPot {
							maxPot = pot
						}
					}
				}
			} else {
				i := o + w - 1
				if j := t - i; i >= 0 && i < m && j >= 0 && j <= n {
					if bot > NegInf/2 {
						if pot := bot + escapeBound(p, m-i, n-j); pot > maxPot {
							maxPot = pot
						}
					}
				}
			}
		}

		o := int(off[t]) + d
		off[t+1] = int32(o)

		if traceback {
			st.bt = bt[(t+1)*rowBytes : (t+2)*rowBytes]
		}

		pLo := 0
		if v := 1 - o; v > pLo {
			pLo = v
		}
		if v := t + 1 - n - o; v > pLo {
			pLo = v
		}
		pHi := w - 1
		if v := m - o; v < pHi {
			pHi = v
		}
		if v := t - o; v < pHi {
			pHi = v
		}

		cLo := 0
		if v := t + 1 - n - o; v > cLo {
			cLo = v
		}
		cHi := w - 1
		if v := m - o; v < cHi {
			cHi = v
		}
		if v := t + 1 - o; v < cHi {
			cHi = v
		}
		if cHi >= cLo {
			res.Cells += int64(cHi - cLo + 1)
		}

		// The span, one kernel call; out-of-matrix flanks become dead lanes.
		// Lane L is cell (i, j) = (o+L−narrowLane0, t+1−i): it compares
		// a[i−1], at base lane L+o−1, with b[j−1], which sits at reversed
		// index n−j, base lane L+n−t−1+o.
		st.d, st.dd = d, d+dPrevShift
		st.aOff, st.bOff = o-1, n-t-1+o
		if st.step(pLo+narrowLane0, pHi+narrowLane0, traceback) != 0 {
			overflow = true
		}

		// Matrix-boundary cells, peeled exactly as in adaptiveBand, just
		// outside the span; a boundary value outside the representable
		// window is a sticky.
		if o == 0 && t+1 <= n {
			rel := int64(-p.GapCost(t+1)) - int64(base) + narrowCenter
			if rel <= 0 || rel > narrowTop {
				overflow = true
				rel = 1
			}
			st.setLane(st.hNext, narrowLane0, uint16(rel))
			st.setLane(st.dNext, narrowLane0, uint16(rel))
			if traceback {
				st.setBT(narrowLane0, byte(min(t, 1))<<4, 0x10) // from D, D-extend past the first row
			}
		}
		if q := t + 1 - o; q >= 0 && q < w && t+1 <= m {
			rel := int64(-p.GapCost(t+1)) - int64(base) + narrowCenter
			if rel <= 0 || rel > narrowTop {
				overflow = true
				rel = 1
			}
			st.setLane(st.hNext, q+narrowLane0, uint16(rel))
			st.setLane(st.iNext, q+narrowLane0, uint16(rel))
			if traceback {
				st.setBT(q+narrowLane0, byte(min(t, 1)), 0x01) // from I, I-extend past the first column
			}
		}

		st.rotate()
		dPrevShift = d

		if overflow {
			res.Score = NegInf
			res.Overflowed = true
			return res, false
		}

		// Re-centre the window maximum so only the spread across one
		// window must fit the lane, not the absolute score.
		if (t+1)%narrowRebaseEvery == 0 {
			maxSt := uint16(0)
			for l := narrowLane0; l < narrowLane0+w; l++ {
				if v := st.getLane(st.hCur, l); v > maxSt {
					maxSt = v
				}
			}
			if maxSt != 0 {
				shift := int32(maxSt) - narrowCenter
				if shift > narrowSlack || shift < -narrowSlack {
					ok := narrowRebase(st.lanes(st.hPrev), shift)
					ok = narrowRebase(st.lanes(st.hCur), shift) && ok
					ok = narrowRebase(st.lanes(st.iCur), shift) && ok
					ok = narrowRebase(st.lanes(st.dCur), shift) && ok
					base += shift
					if !ok {
						res.Score = NegInf
						res.Overflowed = true
						return res, false
					}
				}
			}
		}
	}

	pFinal := m - int(off[m+n])
	if pFinal < 0 || pFinal >= w {
		res.Score = NegInf
		return res, true
	}
	v := st.getLane(st.hCur, pFinal+narrowLane0)
	if v == 0 {
		res.Score = NegInf
		return res, true
	}
	res.InBand = true
	res.Score = int32(v) - narrowCenter + base
	res.Clipped = maxPot > res.Score
	if traceback {
		res.Cigar = walkNarrowBT(a, b, bt, off, rowBytes)
	}
	return res, true
}

// walkNarrowBT replays the narrow engine's traceback arena: row t holds
// anti-diagonal t in the two planes of setBT, window cell p at lane
// p+narrowLane0; a diagonal origin is a match or a mismatch by the bases.
// Out of line for the reason walkBandBT is.
//
//go:noinline
func walkNarrowBT(a, b seq.Seq, bt []byte, off []int32, rowBytes int) cigar.Cigar {
	half := rowBytes / 2
	return walkBT(len(a), len(b), func(i, j int) uint8 {
		t := i + j
		l := i - int(off[t]) + narrowLane0
		r, sh := t*rowBytes+l>>2, uint(l&3)
		ext, org := bt[r]>>sh, bt[r+half]>>sh
		nb := (ext&1)<<2 | (ext>>4&1)<<3
		switch {
		case org&0x10 != 0:
			nb |= btFromD
		case org&1 != 0:
			nb |= btFromI
		case a[i-1] != b[j-1]:
			nb |= btDiagMismatch
		}
		return nb
	})
}

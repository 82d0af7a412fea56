package core

import (
	"pimnw/internal/cigar"
	"pimnw/internal/seq"
)

// Adaptive banded Gotoh (§3.4, after Suzuki & Kasahara): a window of w
// cells slides along the anti-diagonals; after each anti-diagonal the
// window shifts right or down depending on the scores at its extremities,
// following the most promising path. This is the formulation the paper
// implements on the DPU: the same accuracy is reached with a band 2–4×
// smaller than the static band (Table 1), and the extra branch in the
// critical loop is free on the DPU (no speculative execution).
//
// Window bookkeeping: on anti-diagonal t the window covers matrix rows
// i ∈ [off[t], off[t]+w), cell index p ↔ i = off[t]+p, j = t−i. The shift
// decision d = off[t+1]−off[t] ∈ {0 (right), 1 (down)} gives the
// predecessor index mapping used below:
//
//	vertical   (i−1, j)   → anti-diagonal t,   index p+d−1
//	horizontal (i,   j−1) → anti-diagonal t,   index p+d
//	diagonal   (i−1, j−1) → anti-diagonal t−1, index p+d+d′−1
//
// where d′ is the previous step's shift.
//
// The engine below is the word-packed, zero-allocation formulation of that
// recurrence — the Go analogue of the paper's hand-tuned §4.2.4 kernel.
// Three mechanics carry the speedup:
//
//  1. Sentinel-padded lanes. The DP lanes live in a Scratch arena as
//     (w+2)-sized arrays with cell p at index p+1 and permanent NegInf
//     sentinels at indices 0 and w+1. All predecessor indices above land
//     in [0, w+1] for d, d′ ∈ {0,1}, so the window-edge guards of the
//     scalar loop become unconditional loads that read the sentinel —
//     bit-identical, since a guarded out-of-window load also produced
//     NegInf.
//
//  2. A word-packed comparator. Per anti-diagonal, fillSub consumes 32
//     bases per uint64 from the 2-bit packed operands (query forward,
//     target reversed so both advance with stride +1 along the
//     anti-diagonal) via seq.MatchMask — XOR + fold + mask, the cmpb4
//     idea of §4.2.4 — and expands the mask into precomputed substitution
//     scores, so the cell loop is a branchless select with no base loads.
//
//  3. Loop specialisation. The interior cell loop exists twice,
//     adaptiveStepScore and adaptiveStepTB, so the score-only path
//     carries no per-cell traceback branch and the matrix-boundary cases
//     (i == 0, j == 0) are peeled out of the loop entirely: the interior
//     range [pLo, pHi] is computed per anti-diagonal in O(1).
//
// adaptiveBandRef (engine_ref.go) preserves the original scalar loop; the
// differential tests and FuzzEngineEquivalence pin this engine to it bit
// for bit.

// AdaptiveVariant exposes the heuristic's knobs for the ablation study;
// the zero value disables everything, DefaultVariant is what the paper's
// kernel (and every other entry point here) uses.
type AdaptiveVariant struct {
	// SteerTies breaks shift-decision ties by steering the window centre
	// toward the (m,n) corner diagonal. Without it, ties default to a
	// right shift and length-skewed pairs rely entirely on the window
	// clamps, typically crossing the skew too late for the optimal path.
	SteerTies bool
}

// DefaultVariant is the production heuristic.
func DefaultVariant() AdaptiveVariant { return AdaptiveVariant{SteerTies: true} }

// AdaptiveBandScore computes the adaptive-banded affine score with O(w)
// working memory — the "four integer arrays of size w" of §4.2.1. This
// convenience entry point borrows a Scratch from the package pool; hot
// callers aligning many pairs should hold their own (see Scratch).
func AdaptiveBandScore(a, b seq.Seq, p Params, w int) Result {
	s := GetScratch()
	res := s.AdaptiveBandScore(a, b, p, w)
	PutScratch(s)
	return res
}

// AdaptiveBandAlign additionally records the 4-bit/cell traceback structure
// ((m+n+1)·w/2 bytes, the BT array of §4.2.2) and emits the CIGAR.
func AdaptiveBandAlign(a, b seq.Seq, p Params, w int) Result {
	s := GetScratch()
	res := s.AdaptiveBandAlign(a, b, p, w)
	PutScratch(s)
	return res
}

// AdaptiveBandScoreVariant is AdaptiveBandScore under an explicit heuristic
// variant (ablation studies).
func AdaptiveBandScoreVariant(a, b seq.Seq, p Params, w int, v AdaptiveVariant) Result {
	s := GetScratch()
	res, _ := s.adaptiveBand(a, b, p, w, false, v)
	PutScratch(s)
	return res
}

// AdaptiveBandPath is AdaptiveBandScore exposing the window offset of every
// anti-diagonal, used by the band-geometry visualisation (Figure 3) and the
// ablation experiments. The returned slice is the caller's to keep.
func AdaptiveBandPath(a, b seq.Seq, p Params, w int) (Result, []int32) {
	s := GetScratch()
	res, off := s.adaptiveBand(a, b, p, w, false, DefaultVariant())
	out := append([]int32(nil), off...) // off aliases the pooled arena
	PutScratch(s)
	return res, out
}

// AdaptiveBandScore is the explicit-scratch form of the package-level
// function: zero engine allocations once s has warmed to the problem size.
// When the 16-bit narrow-lane engine has headroom for (p, w) it runs
// first, falling back to the full-width engine on a saturation sticky bit;
// a non-overflowed narrow result is bit-identical to the wide one, so the
// fast path is invisible to callers. Use AdaptiveBandScoreWide or
// AdaptiveBandScoreNarrow to pin an engine (the DPU kernel model does, so
// that overflow escalates through the host ladder instead of silently
// re-running here).
func (s *Scratch) AdaptiveBandScore(a, b seq.Seq, p Params, w int) Result {
	return s.adaptiveBandAuto(a, b, p, w, false)
}

// AdaptiveBandAlign is the explicit-scratch form of AdaptiveBandAlign; only
// the returned CIGAR is allocated. It takes the same narrow-first route as
// AdaptiveBandScore, CIGAR included; AdaptiveBandAlignWide pins the
// full-width engine.
func (s *Scratch) AdaptiveBandAlign(a, b seq.Seq, p Params, w int) Result {
	return s.adaptiveBandAuto(a, b, p, w, true)
}

// adaptiveBandAuto is the one lane-width dispatch of both modes.
func (s *Scratch) adaptiveBandAuto(a, b seq.Seq, p Params, w int, traceback bool) Result {
	if NarrowFits(p, w) {
		if res, ok := s.adaptiveBandNarrow(a, b, p, w, traceback, DefaultVariant()); ok {
			return res
		}
	}
	res, _ := s.adaptiveBand(a, b, p, w, traceback, DefaultVariant())
	return res
}

// AdaptiveBandScoreVariant is the explicit-scratch form of the variant
// entry point.
func (s *Scratch) AdaptiveBandScoreVariant(a, b seq.Seq, p Params, w int, v AdaptiveVariant) Result {
	res, _ := s.adaptiveBand(a, b, p, w, false, v)
	return res
}

// adaptiveBand runs the packed engine inside the arena. The returned
// offset slice aliases s and is only valid until the next call on s.
func (s *Scratch) adaptiveBand(a, b seq.Seq, p Params, w int, traceback bool, variant AdaptiveVariant) (Result, []int32) {
	m, n := len(a), len(b)
	if w < 2 {
		w = 2
	}
	res := Result{Steps: m + n}
	if m == 0 && n == 0 {
		res.InBand = true
		s.off = growI32(s.off, 1)
		s.off[0] = 0
		return res, s.off
	}

	nDiag := m + n + 1
	s.off = growI32(s.off, nDiag)
	off := s.off
	off[0] = 0

	// Sentinel-padded lanes: cell p at index p+1, NegInf at 0 and w+1.
	lanes := w + 2
	s.h0 = growI32(s.h0, lanes)
	s.h1 = growI32(s.h1, lanes)
	s.h2 = growI32(s.h2, lanes)
	s.i0 = growI32(s.i0, lanes)
	s.i1 = growI32(s.i1, lanes)
	s.d0 = growI32(s.d0, lanes)
	s.d1 = growI32(s.d1, lanes)
	hPrev, hCur, hNext := s.h0, s.h1, s.h2
	iCur, iNext := s.i0, s.i1
	dCur, dNext := s.d0, s.d1
	for q := 0; q < lanes; q++ {
		hPrev[q], hCur[q], hNext[q] = NegInf, NegInf, NegInf
		iCur[q], iNext[q] = NegInf, NegInf
		dCur[q], dNext[q] = NegInf, NegInf
	}
	hCur[1] = 0 // cell (0,0): off[0] = 0
	res.Cells = 1

	s.sub = growI32(s.sub, w)
	s.org = growU8(s.org, w)
	pa, pb := s.packOperands(a, b)

	var bt []byte
	rowBytes := NibbleRowSize(w)
	if traceback {
		// Strictly lazy: only traceback calls size (and zero) the arena.
		bt = s.btBuf(nDiag * rowBytes)
	}

	openCost := p.GapOpen + p.GapExt
	gapExt := p.GapExt
	dPrevShift := 0  // d′: shift taken from t-1 to t
	maxPot := NegInf // best escaping-path bound seen (clip certificate)

	for t := 0; t < m+n; t++ {
		// Decide the shift from the extremities of the current window.
		d := int(chooseShift(hCur[1], hCur[w], off[t], t, m, n, w, variant))
		// Clamp so the window keeps intersecting the valid cell range of
		// anti-diagonal t+1: i ∈ [loI, hiI].
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
		// Clip certificate: any path that leaves the window does so through
		// the edge cell the shift abandons (a window cell's in-window
		// neighbours stay in-window except at the moving edge). Bound every
		// such path by that cell's score plus the best it could still
		// collect outside; if no abandoned-edge potential ever beats the
		// final score, the banded result is provably optimal.
		{
			o := int(off[t])
			if d == 1 {
				// The top cell (o, t-o) drops out of the window: a path can
				// leave through it while column t-o+1 ≤ n exists.
				if j := t - o; j >= 0 && j < n && o <= m && hCur[1] > NegInf/2 {
					if pot := hCur[1] + escapeBound(p, m-o, n-j); pot > maxPot {
						maxPot = pot
					}
				}
			} else {
				// The bottom cell (o+w-1, t-o-w+1) drops out: a path can
				// leave through it while row o+w ≤ m exists.
				i := o + w - 1
				if j := t - i; i >= 0 && i < m && j >= 0 && j <= n && hCur[w] > NegInf/2 {
					if pot := hCur[w] + escapeBound(p, m-i, n-j); pot > maxPot {
						maxPot = pot
					}
				}
			}
		}

		o := int(off[t]) + d
		off[t+1] = int32(o)

		var btRow NibbleRow
		if traceback {
			btRow = bt[(t+1)*rowBytes : (t+2)*rowBytes]
		}

		// Interior range: window cells of anti-diagonal t+1 with i ≥ 1 and
		// j ≥ 1 that lie inside the matrix. The clamps above guarantee
		// pLo ≤ w-1 and pHi ≥ -1, so the flank fills below stay in bounds.
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

		// Out-of-matrix flanks of the window become NegInf, exactly as the
		// scalar loop's bounds guard produced.
		for q := 0; q < pLo; q++ {
			hNext[q+1], iNext[q+1], dNext[q+1] = NegInf, NegInf, NegInf
		}
		for q := pHi + 1; q < w; q++ {
			hNext[q+1], iNext[q+1], dNext[q+1] = NegInf, NegInf, NegInf
		}

		// Cells metric: every in-matrix window cell, boundaries included.
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

		// Matrix boundaries (equations 3–5, base cases), peeled out of the
		// interior loop. i == 0 can only be window cell 0 (o == 0); j == 0
		// is cell t+1-o. Both always lie outside [pLo, pHi].
		if o == 0 && t+1 <= n {
			v := -p.GapCost(t + 1)
			hNext[1], dNext[1], iNext[1] = v, v, NegInf
			if traceback {
				btRow.Set(0, MakeBTNibble(btFromD, false, t+1 > 1))
			}
		}
		if q := t + 1 - o; q >= 0 && q < w && t+1 <= m {
			v := -p.GapCost(t + 1)
			hNext[q+1], iNext[q+1], dNext[q+1] = v, v, NegInf
			if traceback {
				btRow.Set(q, MakeBTNibble(btFromI, t+1 > 1, false))
			}
		}

		if pLo <= pHi {
			// Substitution scores for the whole interior span in one pass:
			// a index o+p-1 and reversed-b index (n-1-t)+o+p both advance
			// with stride +1 as p does.
			fillSub(s.sub, s.org, pa, pb, o+pLo-1, n-1-t+o+pLo, pHi-pLo+1, p.Match, p.Mismatch, traceback)
			dd := d + dPrevShift
			if traceback {
				adaptiveStepTB(hNext, iNext, dNext, hCur, iCur, dCur, hPrev, s.sub, s.org, btRow, pLo, pHi, d, dd, openCost, gapExt)
			} else {
				adaptiveStepScore(hNext, iNext, dNext, hCur, iCur, dCur, hPrev, s.sub, pLo, pHi, d, dd, openCost, gapExt)
			}
		}

		hPrev, hCur, hNext = hCur, hNext, hPrev
		iCur, iNext = iNext, iCur
		dCur, dNext = dNext, dCur
		dPrevShift = d
	}

	pFinal := m - int(off[m+n])
	if pFinal < 0 || pFinal >= w || hCur[pFinal+1] <= NegInf/2 {
		res.Score = NegInf
		return res, off
	}
	res.InBand = true
	res.Score = hCur[pFinal+1]
	res.Clipped = maxPot > res.Score
	if traceback {
		res.Cigar = walkBandBT(m, n, bt, off, rowBytes, 0)
	}
	return res, off
}

// walkBandBT replays an adaptive-band traceback arena: row t holds
// anti-diagonal t in rowBytes bytes, window cell p at nibble p+skew. Kept
// out of line so the callback closes over these arguments, not over the
// engines' main-loop locals (that costs the score-only path ~5 %).
//
//go:noinline
func walkBandBT(m, n int, bt []byte, off []int32, rowBytes, skew int) cigar.Cigar {
	return walkBT(m, n, func(i, j int) uint8 {
		t := i + j
		return NibbleRow(bt[t*rowBytes : (t+1)*rowBytes]).Get(i - int(off[t]) + skew)
	})
}

// subTab maps a match bit to its substitution score; orgTab maps it to the
// H-origin nibble (bit 1 → btDiagMatch = 0, bit 0 → btDiagMismatch = 1).
type subTab [2]int32

// fillSub expands seq.MatchMask words into per-cell substitution scores
// (and, for traceback, diagonal-origin codes) for count interior cells
// starting at packed indices ai into a and bi into the reversed b.
func fillSub(sub []int32, org []uint8, a, b seq.Packed, ai, bi, count int, match, mismatch int32, wantOrg bool) {
	tab := subTab{mismatch, match}
	k := 0
	for k < count {
		mask := seq.MatchMask(a, b, ai+k, bi+k)
		lim := count - k
		if lim > 32 {
			lim = 32
		}
		if wantOrg {
			for e := 0; e < lim; e++ {
				bit := (mask >> uint(2*e)) & 1
				sub[k+e] = tab[bit]
				org[k+e] = uint8(bit ^ 1)
			}
		} else {
			for e := 0; e < lim; e++ {
				sub[k+e] = tab[(mask>>uint(2*e))&1]
			}
		}
		k += lim
	}
}

// adaptiveStepScore is the score-only interior cell loop: sentinel-indexed
// unconditional loads, precomputed substitution scores, no traceback
// bookkeeping. Lanes hold cell p at index p+1.
func adaptiveStepScore(hNext, iNext, dNext, hCur, iCur, dCur, hPrev, sub []int32, pLo, pHi, d, dd int, openCost, gapExt int32) {
	// Re-slice so every access below is against index p-pLo with a known
	// bound, letting the compiler drop the per-access bounds checks.
	span := pHi - pLo + 1
	hUpL := hCur[pLo+d:]
	iUpL := iCur[pLo+d:]
	hLtL := hCur[pLo+d+1:]
	dLtL := dCur[pLo+d+1:]
	hDgL := hPrev[pLo+dd:]
	subL := sub[:span]
	hOut := hNext[pLo+1:]
	iOut := iNext[pLo+1:]
	dOut := dNext[pLo+1:]
	for k := 0; k < span; k++ {
		iv := iUpL[k] - gapExt
		if v := hUpL[k] - openCost; v > iv {
			iv = v
		}
		dv := dLtL[k] - gapExt
		if v := hLtL[k] - openCost; v > dv {
			dv = v
		}
		best := hDgL[k] + subL[k]
		if iv > best {
			best = iv
		}
		if dv > best {
			best = dv
		}
		hOut[k] = best
		iOut[k] = iv
		dOut[k] = dv
	}
}

// adaptiveStepTB is the traceback twin of adaptiveStepScore: same loads,
// plus origin selection and gap-extension flags packed into BT nibbles.
func adaptiveStepTB(hNext, iNext, dNext, hCur, iCur, dCur, hPrev, sub []int32, org []uint8, btRow NibbleRow, pLo, pHi, d, dd int, openCost, gapExt int32) {
	span := pHi - pLo + 1
	hUpL := hCur[pLo+d:]
	iUpL := iCur[pLo+d:]
	hLtL := hCur[pLo+d+1:]
	dLtL := dCur[pLo+d+1:]
	hDgL := hPrev[pLo+dd:]
	subL := sub[:span]
	orgL := org[:span]
	hOut := hNext[pLo+1:]
	iOut := iNext[pLo+1:]
	dOut := dNext[pLo+1:]
	for k := 0; k < span; k++ {
		iOpen := hUpL[k] - openCost
		iv := iUpL[k] - gapExt
		nb := orgL[k]
		if iv >= iOpen { // ties extend
			nb |= btIExtend
		} else {
			iv = iOpen
		}
		dOpen := hLtL[k] - openCost
		dv := dLtL[k] - gapExt
		if dv >= dOpen {
			nb |= btDExtend
		} else {
			dv = dOpen
		}
		best := hDgL[k] + subL[k]
		if iv > best {
			best = iv
			nb = nb&^btOriginMask | btFromI
		}
		if dv > best {
			best = dv
			nb = nb&^btOriginMask | btFromD
		}
		hOut[k] = best
		iOut[k] = iv
		dOut[k] = dv
		btRow.Set(pLo+k, nb)
	}
}

// chooseShift implements the §3.4 heuristic: compare the scores at the two
// window extremities of the just-computed anti-diagonal; a higher bottom
// score pulls the window down, a higher top score pulls it right. Ties (and
// double-invalid extremities) steer the window centre toward the (m,n)
// corner diagonal so that length-skewed pairs still terminate in band.
// topH and botH are the lane values at window cells 0 and w-1.
func chooseShift(topH, botH int32, off int32, t, m, n, w int, v AdaptiveVariant) int32 {
	top, bot := NegInf, NegInf
	iTop := int(off)
	if jTop := t - iTop; iTop >= 0 && iTop <= m && jTop >= 0 && jTop <= n {
		top = topH
	}
	iBot := int(off) + w - 1
	if jBot := t - iBot; iBot >= 0 && iBot <= m && jBot >= 0 && jBot <= n {
		bot = botH
	}
	switch {
	case bot > top:
		return 1
	case top > bot:
		return 0
	case !v.SteerTies:
		return 0
	default:
		iC := int(off) + w/2
		jC := t - iC
		if iC-jC < m-n {
			return 1
		}
		return 0
	}
}

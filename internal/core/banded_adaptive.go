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
// adaptiveBand below is that recurrence written once, one cell at a time:
// the full-width engine. The 16-bit engine of banded_narrow.go is the fast
// path of every default entry point and reproduces it bit for bit; this
// engine runs wherever the narrow one cannot (NarrowFits refuses the
// scoring model or band, or a saturation sticky bit fires), under the
// explicit Wide entry points, and as the oracle the narrow engine is
// pinned to. Its own oracle is exact Gotoh through the clip certificate:
// an in-band, unclipped result equals GotohScore.

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

// AdaptiveBandPath is AdaptiveBandScore exposing the window offset of every
// anti-diagonal, used by the band-geometry visualisation (Figure 3) and the
// band-following tests. The returned slice is the caller's to keep.
func AdaptiveBandPath(a, b seq.Seq, p Params, w int) (Result, []int32) {
	s := GetScratch()
	res, off := s.adaptiveBand(a, b, p, w, false)
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
		if res, ok := s.adaptiveBandNarrow(a, b, p, w, traceback); ok {
			return res
		}
	}
	res, _ := s.adaptiveBand(a, b, p, w, traceback)
	return res
}

// AdaptiveBandScoreWide is the explicit full-width entry point, bypassing
// the narrow-lane fast path of AdaptiveBandScore.
func AdaptiveBandScoreWide(a, b seq.Seq, p Params, w int) Result {
	s := GetScratch()
	res := s.AdaptiveBandScoreWide(a, b, p, w)
	PutScratch(s)
	return res
}

// AdaptiveBandScoreWide is the explicit-scratch form of the package
// function.
func (s *Scratch) AdaptiveBandScoreWide(a, b seq.Seq, p Params, w int) Result {
	res, _ := s.adaptiveBand(a, b, p, w, false)
	return res
}

// AdaptiveBandAlignWide is the traceback twin of AdaptiveBandScoreWide:
// the full-width engine, bypassing AdaptiveBandAlign's narrow-lane fast
// path. It is the oracle the narrow traceback is pinned to.
func AdaptiveBandAlignWide(a, b seq.Seq, p Params, w int) Result {
	s := GetScratch()
	res := s.AdaptiveBandAlignWide(a, b, p, w)
	PutScratch(s)
	return res
}

// AdaptiveBandAlignWide is the explicit-scratch form of the package
// function.
func (s *Scratch) AdaptiveBandAlignWide(a, b seq.Seq, p Params, w int) Result {
	res, _ := s.adaptiveBand(a, b, p, w, true)
	return res
}

// adaptiveBand is the full-width engine: the recurrence above, one cell
// at a time, on the arena's w-sized lanes. The returned offset slice
// aliases s and is only valid until the next call on s.
func (s *Scratch) adaptiveBand(a, b seq.Seq, p Params, w int, traceback bool) (Result, []int32) {
	m, n := len(a), len(b)
	if w < 2 {
		w = 2
	}
	res := Result{Steps: m + n}
	nDiag := m + n + 1
	s.off, s.edge = growI32(s.off, nDiag), growI32(s.edge, certBlock)
	off := s.off
	off[0] = 0
	if m == 0 && n == 0 {
		res.InBand = true
		return res, off
	}

	s.h0 = growI32(s.h0, w)
	s.h1 = growI32(s.h1, w)
	s.h2 = growI32(s.h2, w)
	s.i0 = growI32(s.i0, w)
	s.i1 = growI32(s.i1, w)
	s.d0 = growI32(s.d0, w)
	s.d1 = growI32(s.d1, w)
	hPrev, hCur, hNext := s.h0, s.h1, s.h2 // anti-diagonals t-1, t, t+1
	iCur, iNext := s.i0, s.i1
	dCur, dNext := s.d0, s.d1
	for q := 0; q < w; q++ {
		hPrev[q], hCur[q], iCur[q], dCur[q] = NegInf, NegInf, NegInf, NegInf
	}
	hCur[0] = 0 // cell (0,0): off[0] = 0
	res.Cells = 1

	var bt []byte
	rowBytes := NibbleRowSize(w)
	if traceback {
		bt = s.btBuf(nDiag * rowBytes)
	}

	openCost := p.GapOpen + p.GapExt
	dPrevShift := int32(0) // d′: shift taken from t-1 to t
	pot := NegInf          // the clip certificate's bound on escaping paths

	for t := 0; t < m+n; t++ {
		// Decide the shift from the extremities of the current window, and
		// record the edge cell it abandons for the clip certificate.
		d := chooseShift(hCur[0], hCur[w-1], off[t], t, m, n, w)
		e := hCur[w-1]
		if d == 1 {
			e = hCur[0]
		}
		s.edge[t%certBlock] = e
		newOff := off[t] + d
		off[t+1] = newOff
		if k := t + 1; k%certBlock == 0 || k == m+n {
			t0 := (k - 1) / certBlock * certBlock
			pot = max(pot, escapePotential(p, m, n, w, t0, off, s.edge[:k-t0]))
		}

		var btRow NibbleRow
		if traceback {
			btRow = bt[(t+1)*rowBytes : (t+2)*rowBytes]
		}

		for q := 0; q < w; q++ {
			i := int(newOff) + q
			j := t + 1 - i
			if i < 0 || i > m || j < 0 || j > n {
				hNext[q], iNext[q], dNext[q] = NegInf, NegInf, NegInf
				continue
			}
			res.Cells++
			// Matrix boundaries (equations 3–5, base cases).
			if i == 0 {
				hNext[q] = -p.GapCost(j)
				dNext[q] = hNext[q]
				iNext[q] = NegInf
				if traceback {
					btRow.Set(q, MakeBTNibble(btFromD, false, j > 1))
				}
				continue
			}
			if j == 0 {
				hNext[q] = -p.GapCost(i)
				iNext[q] = hNext[q]
				dNext[q] = NegInf
				if traceback {
					btRow.Set(q, MakeBTNibble(btFromI, i > 1, false))
				}
				continue
			}

			up := q + int(d) - 1 // (i-1, j) on anti-diagonal t
			left := q + int(d)   // (i, j-1) on anti-diagonal t
			dg := q + int(d+dPrevShift) - 1

			hUp, iUp := NegInf, NegInf
			if up >= 0 && up < w {
				hUp, iUp = hCur[up], iCur[up]
			}
			hLeft, dLeft := NegInf, NegInf
			if left < w { // left = q+d ≥ 0 always
				hLeft, dLeft = hCur[left], dCur[left]
			}
			hDiag := NegInf
			if dg >= 0 && dg < w {
				hDiag = hPrev[dg]
			}

			iOpen := hUp - openCost
			iExt := iUp-p.GapExt >= iOpen
			iv := max2(iUp-p.GapExt, iOpen)

			dOpen := hLeft - openCost
			dExt := dLeft-p.GapExt >= dOpen
			dv := max2(dLeft-p.GapExt, dOpen)

			sub := p.Sub(a[i-1], b[j-1])
			origin := btDiagMismatch
			if sub == p.Match {
				origin = btDiagMatch
			}
			best := hDiag + sub
			if iv > best {
				best = iv
				origin = btFromI
			}
			if dv > best {
				best = dv
				origin = btFromD
			}
			hNext[q] = best
			iNext[q] = iv
			dNext[q] = dv
			if traceback {
				btRow.Set(q, MakeBTNibble(origin, iExt, dExt))
			}
		}

		hPrev, hCur, hNext = hCur, hNext, hPrev
		iCur, iNext = iNext, iCur
		dCur, dNext = dNext, dCur
		dPrevShift = d
	}

	pFinal := m - int(off[m+n])
	if pFinal < 0 || pFinal >= w || hCur[pFinal] <= NegInf/2 {
		res.Score = NegInf
		return res, off
	}
	res.InBand = true
	res.Score = hCur[pFinal]
	res.Clipped = pot > res.Score
	if traceback {
		res.Cigar = walkBandBT(m, n, bt, off, rowBytes)
	}
	return res, off
}

// walkBandBT replays an adaptive-band traceback arena: row t holds
// anti-diagonal t in rowBytes bytes, window cell p at nibble p. Kept
// out of line so the callback closes over these arguments, not over the
// engines' main-loop locals (that costs the score-only path ~5 %).
//
//go:noinline
func walkBandBT(m, n int, bt []byte, off []int32, rowBytes int) cigar.Cigar {
	return walkBT(m, n, func(i, j int) uint8 {
		t := i + j
		return NibbleRow(bt[t*rowBytes : (t+1)*rowBytes]).Get(i - int(off[t]))
	})
}

// chooseShift implements the §3.4 heuristic: compare the scores at the two
// window extremities of the just-computed anti-diagonal; a higher bottom
// score pulls the window down, a higher top score pulls it right. Ties (and
// double-invalid extremities) steer the window centre toward the (m,n)
// corner diagonal so that length-skewed pairs still terminate in band
// (breaking ties to the right instead leaves them to the window clamps,
// which cross the skew too late; EXPERIMENTS.md records the ablation).
// topH and botH are the lane values at window cells 0 and w-1. The
// decision is then clamped so that the window keeps intersecting the
// valid cell range i ∈ [loI, hiI] of anti-diagonal t+1.
func chooseShift(topH, botH int32, off int32, t, m, n, w int) int32 {
	top, bot := NegInf, NegInf
	iTop := int(off)
	if jTop := t - iTop; iTop >= 0 && iTop <= m && jTop >= 0 && jTop <= n {
		top = topH
	}
	iBot := int(off) + w - 1
	if jBot := t - iBot; iBot >= 0 && iBot <= m && jBot >= 0 && jBot <= n {
		bot = botH
	}
	var d int32
	switch {
	case bot > top:
		d = 1
	case top > bot:
		d = 0
	default:
		iC := int(off) + w/2
		jC := t - iC
		if iC-jC < m-n {
			d = 1
		}
	}
	if int(off+d)+w-1 < max(t+1-n, 0) {
		d = 1
	}
	if int(off+d) > min(t+1, m) {
		d = 0
	}
	return d
}

// certBlock is the number of anti-diagonals whose abandoned edge cells an
// adaptive engine records before it folds them into its clip certificate.
const certBlock = 512

// escapePotential is the clip certificate of the adaptive engines. A path
// that leaves the window does so through the edge cell a shift abandons (a
// window cell's in-window neighbours stay in-window except at the moving
// edge): the top cell (off[t], t−off[t]) when the window moves down, while
// a column to its right exists; the bottom cell (off[t]+w−1, …) when it
// moves right, while a row below it exists. edge[k] is that cell's H score
// on anti-diagonal t0+k (NegInf when dead); bounding each live one by its
// score plus the best it could still collect outside (escapeBound) gives
// the return value, and a banded result above the maximum over every
// block of anti-diagonals is provably optimal. The engines record and
// pass one block of certBlock anti-diagonals at a time, so the array
// stays that short whatever the pair's length.
func escapePotential(p Params, m, n, w, t0 int, off, edge []int32) int32 {
	pot := NegInf
	off = off[t0 : t0+len(edge)+1]
	for k, e := range edge {
		d := int(off[k+1] - off[k])
		i := int(off[k]) + (w-1)&(d-1) // the bottom cell when moving right
		// Remaining lengths; i ≤ m−1+d and j = t−i ∈ [0, n−d] in their terms.
		ri, rj := m-i, n-(t0+k)+i
		if e > NegInf/2 && i >= 0 && ri >= 1-d && rj >= d && rj <= n {
			// escapeBound is symmetric in the remaining lengths; passing
			// the longer first keeps its branches one-sided whichever edge
			// moved.
			pot = max(pot, e+escapeBound(p, max(ri, rj), min(ri, rj)))
		}
	}
	return pot
}

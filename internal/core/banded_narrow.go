package core

import (
	"fmt"

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
// One routine call per run. The window loop — chooseShift with its two
// clamps, the offset record, the cell count, the dead flanks, the span
// [pLo, pHi] under lane keep-masks for its first and last word, the two
// matrix-boundary cells and the ring rotation — runs in one call of
// narrowStep.run for a whole run of anti-diagonals: up to the next
// rebase, to the first sticky flag, or to the end of the pair. On amd64
// that is the SSE2 routine narrowRunSSE, the same routine with and
// without traceback, with its constants in registers and its bounds
// asserted once per run; elsewhere, and as its oracle, the portable
// window loop narrowRunGo with the SWAR word step narrowStepWordsGo.
// Between runs Go makes only the rebase. The clip certificate is out of
// the loop: each anti-diagonal's abandoned edge lane goes into an array of
// one run's length, which Go turns into true scores with the run's
// constant base, and escapePotential — the wide engine's certificate too —
// reads it and the offsets once per run.
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
// one byte per packed word (setBT), the extend bits and the complements
// of the I/D origin bits — each the equality of a PMAXSW's input and
// output, so no compare needs a copy of its operands — and SSE2 gathers
// eight lanes' bits with two PMOVMSKBs. A diagonal
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
	// rebases the window maximum drifts at most ±maxStep per step. A run
	// ends at each rebase, so its edge cells fill at most one certificate
	// block.
	narrowRebaseEvery = certBlock
	// narrowSlack is how far the window maximum may sit from narrowCenter
	// before a rebase pass actually shifts the lanes.
	narrowSlack = 2048
	// narrowParamMax bounds each scoring parameter magnitude so that the
	// broadcast SWAR constants are faithful and lane sums cannot carry
	// across lanes.
	narrowParamMax = 4096
	// narrowLane0 is the lane of window cell 0, the first lane after the
	// dead word that ends in the top sentinel.
	narrowLane0 = 4
	// narrowBase0 is the lane of base 0 in the one-base-per-lane operands,
	// behind two dead words.
	narrowBase0 = 8

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
// The window loop runs in runs of anti-diagonals up to each rebase
// (narrowStep.run); between runs Go turns the run's abandoned edge lanes
// into true scores and re-centres the lanes. Returns ok=false
// (Result.Overflowed) on any saturation sticky bit.
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

	st := s.newNarrowStep(a, b, p, w, traceback)

	var base int32 // cumulative rebase: trueScore = stored − narrowCenter + base
	pot := NegInf  // the clip certificate's bound on escaping paths
	for st.t < m+n {
		t0 := st.t // a multiple of narrowRebaseEvery: edge[k] is t0+k
		st.tEnd = min(m+n, t0+narrowRebaseEvery)
		overflow := st.run()
		edge := st.edge[:st.t-t0]
		for k, v := range edge {
			if v == 0 {
				edge[k] = NegInf
			} else {
				edge[k] = v - narrowCenter + base
			}
		}
		pot = max(pot, escapePotential(p, m, n, w, t0, st.off, edge))
		if !overflow && st.t%narrowRebaseEvery == 0 {
			shift, ok := st.rebase()
			base += shift
			overflow = !ok
		}
		if overflow {
			res.Score = NegInf
			res.Overflowed = true
			res.Cells = st.cells
			return res, false
		}
	}

	res.Cells = st.cells
	pFinal := m - int(st.off[m+n])
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
	res.Clipped = pot > res.Score
	if traceback {
		res.Cigar = walkNarrowBT(a, b, st.bt, st.off, st.rowBytes)
	}
	return res, true
}

// newNarrowStep sets up the narrow engine's state for one pair on s's
// buffers, at anti-diagonal 0: the cell (0, 0) scores 0 at the bias and
// base 0.
func (s *Scratch) newNarrowStep(a, b seq.Seq, p Params, w int, traceback bool) narrowStep {
	m, n := len(a), len(b)
	nDiag := m + n + 1
	// Lanes 0 … narrowLane0+w (the dead word, the w cells and the bottom
	// sentinel) packed four per word, plus two permanent zero pad words, so
	// a span's half iteration and its neighbour loads stay inside the
	// array. The seven arrays share one ring.
	words := (narrowLane0+w+4)/4 + 2
	s.nring = growU64(s.nring, 7*words)
	clear(s.nring)
	s.na, s.nb = laneBases(s.na, a, false), laneBases(s.nb, b, true)
	s.off, s.edge = growI32(s.off, nDiag), growI32(s.edge, certBlock)
	s.off[0] = 0
	st := narrowStep{
		ring: s.nring, a: s.na, b: s.nb, off: s.off, edge: s.edge,
		words: words, winEnd: (narrowLane0 + w + 3) / 4, m: m, n: n, w: w,
		hCur: words, hNext: 2 * words, // hPrev at 0
		iCur: 3 * words, iNext: 4 * words, dCur: 5 * words, dNext: 6 * words,
		cells: 1, p: p, bnd: narrowCenter,
		eV:  uint64(uint16(p.GapExt)) * lanesOne,
		oeV: uint64(uint16(p.GapOpen+p.GapExt)) * lanesOne,
		nmV: uint64(uint16(-p.Mismatch)) * lanesOne,
		gbV: uint64(uint16(narrowGuard(p))) * lanesOne,
		smV: uint64(uint16(p.Match-p.Mismatch)) * lanesOne,
	}
	st.setLane(st.hCur, narrowLane0, narrowCenter)
	// Lane-indexed traceback rows: two planes of one byte per packed lane
	// word (setBT). Not zeroed — see the header comment.
	if traceback {
		st.rowBytes = 2 * (words - 1)
		s.bt = growU8(s.bt, nDiag*st.rowBytes)
		st.bt = s.bt
	}
	return st
}

// rebase re-centres the current anti-diagonal's window maximum on
// narrowCenter once it has drifted past narrowSlack, so only the score
// spread across one window must fit the lane, not the absolute score: it
// shifts every live lane of the arrays a later step reads and returns the
// shift (0 when none), and false if a live lane left the representable
// range.
func (st *narrowStep) rebase() (int32, bool) {
	maxSt := uint16(0)
	for l := narrowLane0; l < narrowLane0+st.w; l++ {
		maxSt = max(maxSt, st.getLane(st.hCur, l))
	}
	shift := int32(maxSt) - narrowCenter
	if maxSt == 0 || (shift <= narrowSlack && shift >= -narrowSlack) {
		return 0, true
	}
	ok := narrowRebase(st.lanes(st.hPrev), shift)
	ok = narrowRebase(st.lanes(st.hCur), shift) && ok
	ok = narrowRebase(st.lanes(st.iCur), shift) && ok
	ok = narrowRebase(st.lanes(st.dCur), shift) && ok
	st.bnd -= int64(shift)
	return shift, ok
}

// walkNarrowBT replays the narrow engine's traceback arena: row t holds
// anti-diagonal t in the two planes of setBT, window cell p at lane
// p+narrowLane0; an origin that is neither I nor D is a match or a
// mismatch by the bases. It is walkBT's state machine, guard included,
// with the arena read inline: a step costs no call, which makes the walk
// about 0.7× walkBT's with a closure and keeps the traceback engine's
// cost near the score-only one's. It panics on a corrupt arena.
func walkNarrowBT(a, b seq.Seq, bt []byte, off []int32, rowBytes int) cigar.Cigar {
	var c cigar.Cigar
	half := rowBytes / 2
	inI, inD := false, false
	guard := 2*(len(a)+len(b)) + 4
	for i, j := len(a), len(b); i > 0 || j > 0; {
		if guard--; guard < 0 {
			panic(fmt.Sprintf("core: traceback did not terminate (i=%d j=%d)", i, j))
		}
		t := i + j
		l := i - int(off[t]) + narrowLane0
		pair := (l>>2 - 1) | 1
		r, sh := t*rowBytes+pair, uint(l-4*pair)
		switch {
		case inI:
			c = c.Append(cigar.Ins, 1)
			inI = bt[r]>>sh&1 != 0 // I-extend
			i--
		case inD:
			c = c.Append(cigar.Del, 1)
			inD = bt[r+1]>>sh&1 != 0 // D-extend
			j--
		case bt[r+half+1]>>sh&1 == 0: // from D
			inD = true
		case bt[r+half]>>sh&1 == 0: // from I
			inI = true
		case a[i-1] != b[j-1]:
			c = c.Append(cigar.Mismatch, 1)
			i, j = i-1, j-1
		default:
			c = c.Append(cigar.Match, 1)
			i, j = i-1, j-1
		}
	}
	return c.Reverse()
}

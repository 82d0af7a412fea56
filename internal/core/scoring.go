// Package core implements the paper's primary contribution: global pairwise
// DNA alignment by dynamic programming with affine gap costs (Gotoh), in
// four formulations — full-matrix Needleman & Wunsch (linear and affine
// gaps, equations 1–5 of the paper), static banded, and the adaptive banded
// heuristic (anti-diagonal window, Suzuki & Kasahara style) that the UPMEM
// DPU kernel runs. All aligners share one scoring model, one traceback
// encoding (4 bits per cell, §4.2.2) and one Result type, so the accuracy
// experiments can compare them cell for cell.
package core

import (
	"fmt"
	"math"

	"pimnw/internal/seq"
)

// NegInf is the "minus infinity" sentinel for unreachable DP states. It is
// MinInt32/4 so that subtracting gap penalties from it can never underflow
// an int32 even after repeated propagation within one anti-diagonal step.
const NegInf int32 = math.MinInt32 / 4

// Params is the alignment scoring model. Scores are maximised. A gap of
// length k costs GapOpen + k·GapExt, exactly as in the paper's equations
// 3–5 (the first gapped base pays both the open and the extend penalty).
type Params struct {
	Match    int32 // added for an identical base pair (positive)
	Mismatch int32 // added for a substitution (negative)
	GapOpen  int32 // penalty for opening a gap (positive, subtracted)
	GapExt   int32 // penalty per gapped base (positive, subtracted)
}

// DefaultParams are minimap2's map-ont presets, the configuration the paper
// benchmarks against.
func DefaultParams() Params {
	return Params{Match: 2, Mismatch: -4, GapOpen: 4, GapExt: 2}
}

// Validate rejects parameter combinations for which global alignment is
// ill-defined or the banded recurrences lose their meaning.
func (p Params) Validate() error {
	if p.Match <= 0 {
		return fmt.Errorf("core: Match must be positive, got %d", p.Match)
	}
	if p.Mismatch >= 0 {
		return fmt.Errorf("core: Mismatch must be negative, got %d", p.Mismatch)
	}
	if p.GapOpen < 0 {
		return fmt.Errorf("core: GapOpen must be non-negative, got %d", p.GapOpen)
	}
	if p.GapExt <= 0 {
		return fmt.Errorf("core: GapExt must be positive, got %d", p.GapExt)
	}
	return nil
}

// Sub returns the substitution score for aligning bases a and b.
func (p Params) Sub(a, b seq.Base) int32 {
	if a == b {
		return p.Match
	}
	return p.Mismatch
}

// GapCost returns the cost of a gap of length k (k ≥ 1), as a positive
// number to subtract.
func (p Params) GapCost(k int) int32 {
	return p.GapOpen + int32(k)*p.GapExt
}

// escapeBound is an admissible upper bound on the score any alignment
// path can still collect between a cell with ri×rj remaining bases and
// the terminal corner: every paired base a match, charged only the one
// unavoidable gap for the length difference. The banded aligners add it
// to the band-edge cell scores to bound every path that escapes the band
// — if no escaping path can beat the banded score, the result is
// certified optimal and Clipped stays false. The bound is admissible only
// up to one GapOpen: a path already inside the remaining gap at the cell
// owes no second open, so a certified score can sit up to GapOpen below
// the optimum.
func escapeBound(p Params, ri, rj int) int32 {
	mn, d := ri, ri-rj
	if rj < ri {
		mn = rj
	}
	if d < 0 {
		d = -d
	}
	var gap int32
	if d > 0 {
		gap = p.GapCost(d)
	}
	return int32(mn)*p.Match - gap
}

// max2 and max3 are branch-simple helpers kept out of the hot loops' way.
func max2(a, b int32) int32 {
	if a >= b {
		return a
	}
	return b
}

func max3(a, b, c int32) int32 {
	return max2(max2(a, b), c)
}

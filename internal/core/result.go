package core

import (
	"pimnw/internal/cigar"
	"pimnw/internal/seq"
)

// Result is the outcome of one pairwise global alignment.
type Result struct {
	// Score is the global alignment score H(m,n). When InBand is false the
	// band never reached cell (m,n) and Score is NegInf.
	Score int32
	// Cigar is the optimal path, nil for score-only alignments.
	Cigar cigar.Cigar
	// Cells is the number of DP cells evaluated; the experiments use it as
	// the work metric (the paper's Workload = (m+n)·w estimate is checked
	// against it).
	Cells int64
	// Steps is the number of band steps: anti-diagonals for the adaptive
	// aligner, rows for the static/full ones.
	Steps int
	// InBand reports whether the terminal cell (m,n) was inside the band.
	// Full-matrix alignments always set it.
	InBand bool
	// Clipped reports that the banded result is not certified optimal.
	// The banded aligners bound every path that could escape the band
	// (band-edge cell score plus an admissible estimate of what remains,
	// escapeBound); Clipped is set when some escaping path could in
	// principle outscore the result. The certificate is sound to within
	// one gap open (see escapeBound) — a banded score further below the
	// exact optimum is always flagged — and conservative: a near-miss
	// potential may flag a result that is in fact optimal.
	// A clipped result is still self-consistent (its CIGAR reproduces its
	// score); the host's escalation ladder re-aligns clipped pairs at
	// wider bands until the flag clears. Full-matrix alignments never
	// set it.
	Clipped bool
	// Overflowed reports that the 16-bit narrow-lane engine hit a
	// saturation sticky bit and can no longer certify exactness; Score and
	// the other fields are meaningless. Only the narrow engine sets it —
	// the host escalates overflowed pairs to the full-width kernel, which
	// recomputes them exactly. The flag is sound in the same sense as
	// Clipped: a narrow result without it is bit-identical to the wide
	// engine's.
	Overflowed bool
}

// Aligner is the common interface over the four DP formulations; the CPU
// baseline and the experiment harness are written against it.
type Aligner interface {
	// Align computes the global alignment of query a against target b.
	// When traceback is false only the score is produced (the 16S
	// experiment's mode); implementations skip building the BT structure.
	Align(a, b seq.Seq, traceback bool) Result
	// Name identifies the formulation in experiment tables.
	Name() string
}

// Full is the exact O(m·n) affine-gap aligner (equations 3–5).
type Full struct{ P Params }

// Name implements Aligner.
func (f Full) Name() string { return "full-gotoh" }

// Align implements Aligner.
func (f Full) Align(a, b seq.Seq, traceback bool) Result {
	if traceback {
		return GotohAlign(a, b, f.P)
	}
	return GotohScore(a, b, f.P)
}

// StaticBand is the fixed-band aligner (§3.3), the formulation minimap2's
// KSW2 kernel implements; it is the CPU baseline's engine.
type StaticBand struct {
	P Params
	// W is the band size: the number of cells computed per row,
	// window |i-j| ≤ W/2.
	W int
}

// Name implements Aligner.
func (s StaticBand) Name() string { return "static-band" }

// Align implements Aligner.
func (s StaticBand) Align(a, b seq.Seq, traceback bool) Result {
	if traceback {
		return StaticBandAlign(a, b, s.P, s.W)
	}
	return StaticBandScore(a, b, s.P, s.W)
}

// AdaptiveBand is the paper's aligner: a W-cell anti-diagonal window that
// shifts right or down to follow the highest-scoring path (§3.4).
type AdaptiveBand struct {
	P Params
	W int
}

// Name implements Aligner.
func (a AdaptiveBand) Name() string { return "adaptive-band" }

// Align implements Aligner.
func (ab AdaptiveBand) Align(a, b seq.Seq, traceback bool) Result {
	if traceback {
		return AdaptiveBandAlign(a, b, ab.P, ab.W)
	}
	return AdaptiveBandScore(a, b, ab.P, ab.W)
}

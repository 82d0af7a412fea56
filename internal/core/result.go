package core

import "pimnw/internal/cigar"

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

package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pimnw/internal/seq"
)

// bothModes is the traceback axis every narrow-vs-wide test runs over.
var bothModes = []bool{false, true}

// narrowAndWide runs the pinned narrow and wide engines on one pair in one
// mode; ok is the narrow engine's no-overflow verdict.
func narrowAndWide(s *Scratch, a, b seq.Seq, p Params, w int, traceback bool) (narrow, wide Result, ok bool) {
	narrow, ok = s.adaptiveBandNarrow(a, b, p, w, traceback)
	wide, _ = s.adaptiveBand(a, b, p, w, traceback)
	return narrow, wide, ok
}

// requireNarrowEqual asserts a non-overflowed narrow result is
// bit-identical to the wide engine's on every field, CIGAR included.
func requireNarrowEqual(t *testing.T, label string, narrow, wide Result) {
	t.Helper()
	if narrow.Overflowed {
		t.Fatalf("%s: narrow engine overflowed unexpectedly", label)
	}
	if narrow.Score != wide.Score || narrow.InBand != wide.InBand ||
		narrow.Clipped != wide.Clipped || narrow.Cells != wide.Cells ||
		narrow.Steps != wide.Steps || narrow.Cigar.String() != wide.Cigar.String() {
		t.Fatalf("%s:\n narrow = %+v\n wide   = %+v", label, narrow, wide)
	}
}

// TestNarrowWideDifferentialSweep pins the narrow path to the wide engine:
// over error rates, lengths, bands and length skews, a non-overflowed
// narrow score must match the wide engine bit for bit. The odd bands end
// the window mid-word or give the span an odd word count, and the lengths
// around 128 open and close spans mid-word at every corner, so the
// kernel's keep-masks and half iteration meet every flank shape.
func TestNarrowWideDifferentialSweep(t *testing.T) {
	p := DefaultParams()
	s := NewScratch()
	cases := 0
	for _, nLen := range []int{0, 1, 3, 17, 64, 127, 128, 129, 255, 257, 1000} {
		for _, rate := range []float64{0, 0.02, 0.10, 0.30} {
			for _, w := range []int{2, 3, 5, 7, 8, 13, 32, 33, 127, 128} {
				for rep := 0; rep < 3; rep++ {
					seed := int64(nLen*1000 + int(rate*100)*17 + w + rep)
					rng := rand.New(rand.NewSource(seed))
					a := seq.Random(rng, nLen)
					b := seq.UniformErrors(rate).Apply(rng, a)
					for _, tb := range bothModes {
						label := fmt.Sprintf("n=%d rate=%.2f w=%d rep=%d tb=%v", nLen, rate, w, rep, tb)
						narrow, wide, ok := narrowAndWide(s, a, b, p, w, tb)
						if !ok {
							continue // overflow is allowed, silence is not: counted below
						}
						cases++
						requireNarrowEqual(t, label, narrow, wide)
					}
				}
			}
		}
	}
	if cases < 1571 {
		t.Fatalf("only %d non-overflowed sweep cases; narrow path is over-escalating", cases)
	}
}

// TestNarrowSkewedPairs drives the boundary-hugging window shapes (length
// skews) where the base rebase must track monotonically falling scores.
func TestNarrowSkewedPairs(t *testing.T) {
	p := DefaultParams()
	s := NewScratch()
	for _, tc := range []struct{ m, n, w int }{
		{40, 400, 16}, {400, 40, 16}, {0, 300, 8}, {300, 0, 8},
		{1, 900, 32}, {900, 1, 32}, {1200, 2000, 64},
	} {
		rng := rand.New(rand.NewSource(int64(tc.m*7 + tc.n*13 + tc.w)))
		a := seq.Random(rng, tc.m)
		b := seq.Random(rng, tc.n)
		for _, tb := range bothModes {
			label := fmt.Sprintf("m=%d n=%d w=%d tb=%v", tc.m, tc.n, tc.w, tb)
			narrow, wide, ok := narrowAndWide(s, a, b, p, tc.w, tb)
			if !ok {
				continue
			}
			requireNarrowEqual(t, label, narrow, wide)
		}
	}
}

// TestNarrowLongSimilar is the benchmark shape: the absolute score climbs
// far past 2^15, so correctness here proves the rebase keeps only the
// window spread in-lane.
func TestNarrowLongSimilar(t *testing.T) {
	if testing.Short() {
		t.Skip("long pair")
	}
	p := DefaultParams()
	s := NewScratch()
	rng := rand.New(rand.NewSource(42))
	a := seq.Random(rng, 30_000)
	b := seq.UniformErrors(0.05).Apply(rng, a)
	for _, tb := range bothModes {
		narrow, wide, ok := narrowAndWide(s, a, b, p, 128, tb)
		if !ok {
			t.Fatal("narrow engine overflowed on the benchmark shape")
		}
		requireNarrowEqual(t, fmt.Sprintf("30k 5%% tb=%v", tb), narrow, wide)
		if narrow.Score < narrowTop {
			t.Fatalf("score %d does not exercise the rebase (want > %d)", narrow.Score, narrowTop)
		}
	}
}

// TestNarrowFlanksDead pins the dead-flank invariant the rebase maximum
// relies on: after every step, each lane of the new anti-diagonal outside
// its span and boundary cells is dead, whatever the ring held there three
// anti-diagonals before. The last anti-diagonal's span is the single cell
// (m, n), so after a run every other lane of the current H, I and D arrays
// must be zero.
func TestNarrowFlanksDead(t *testing.T) {
	p := DefaultParams()
	s := NewScratch()
	for _, tc := range []struct{ m, n, w int }{
		{300, 300, 8}, {300, 300, 13}, {257, 255, 33}, {129, 127, 127},
		{40, 400, 16}, {400, 40, 16}, {1000, 1000, 128}, {0, 300, 8}, {300, 0, 8},
	} {
		rng := rand.New(rand.NewSource(int64(tc.m*7 + tc.n*13 + tc.w)))
		a := seq.Random(rng, tc.m)
		b := seq.UniformErrors(0.05).Apply(rng, a)
		b = append(b, seq.Random(rng, max(0, tc.n-len(b)))...)[:tc.n]
		for _, tb := range bothModes {
			res, ok := s.adaptiveBandNarrow(a, b, p, tc.w, tb)
			if !ok || !res.InBand {
				t.Fatalf("m=%d n=%d w=%d tb=%v: want an in-band narrow result, got %+v", tc.m, tc.n, tc.w, tb, res)
			}
			// After m+n rotations of (hPrev, hCur, hNext) from offsets
			// (0, 1, 2) and of (cur, next) from (3, 4) and (5, 6) words.
			words := len(s.nring) / 7
			k := tc.m + tc.n
			final := tc.m - int(s.off[k]) + narrowLane0
			for name, arr := range map[string]int{"H": (1 + k) % 3, "I": 3 + k%2, "D": 5 + k%2} {
				for l := 0; l < 4*words; l++ {
					if v := getLane16(s.nring, 4*arr*words+l); v != 0 && l != final {
						t.Fatalf("m=%d n=%d w=%d tb=%v: %s lane %d holds %d, want dead (final cell at lane %d)",
							tc.m, tc.n, tc.w, tb, name, l, v, final)
					}
				}
			}
		}
	}
}

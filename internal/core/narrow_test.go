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
	narrow, ok = s.adaptiveBandNarrow(a, b, p, w, traceback, DefaultVariant())
	wide, _ = s.adaptiveBand(a, b, p, w, traceback, DefaultVariant())
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

// TestNarrowWideDifferentialSweep extends the PR-4 oracle sweep to the
// narrow path: over error rates, lengths, bands and length skews, a
// non-overflowed narrow score must match the wide engine (itself pinned to
// adaptiveBandRef) bit for bit.
func TestNarrowWideDifferentialSweep(t *testing.T) {
	p := DefaultParams()
	s := NewScratch()
	cases := 0
	for _, nLen := range []int{0, 1, 3, 17, 64, 257, 1000} {
		for _, rate := range []float64{0, 0.02, 0.10, 0.30} {
			for _, w := range []int{2, 8, 32, 128} {
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
	if cases < 400 {
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

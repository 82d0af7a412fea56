package core

import (
	"math/rand"
	"testing"

	"pimnw/internal/seq"
)

// The packed engine must be bit-identical to the preserved scalar
// reference: same score, same cell count, same clip certificate, same
// CIGAR, same window trajectory. These tests sweep it differentially and
// pin the zero-allocation property.

func requireEngineIdentical(t *testing.T, a, b seq.Seq, p Params, w int, traceback bool, v AdaptiveVariant) {
	t.Helper()
	s := NewScratch()
	got, gotOff := s.adaptiveBand(a, b, p, w, traceback, v)
	want, wantOff := adaptiveBandRef(a, b, p, w, traceback, v)
	if got.Score != want.Score || got.InBand != want.InBand || got.Clipped != want.Clipped {
		t.Fatalf("m=%d n=%d w=%d tb=%v: packed (score=%d inband=%v clip=%v) != ref (score=%d inband=%v clip=%v)",
			len(a), len(b), w, traceback, got.Score, got.InBand, got.Clipped, want.Score, want.InBand, want.Clipped)
	}
	if got.Cells != want.Cells {
		t.Fatalf("m=%d n=%d w=%d: cells %d != ref %d", len(a), len(b), w, got.Cells, want.Cells)
	}
	if got.Steps != want.Steps {
		t.Fatalf("m=%d n=%d w=%d: steps %d != ref %d", len(a), len(b), w, got.Steps, want.Steps)
	}
	if len(gotOff) != len(wantOff) {
		t.Fatalf("m=%d n=%d w=%d: offset vector length %d != ref %d", len(a), len(b), w, len(gotOff), len(wantOff))
	}
	for i := range gotOff {
		if gotOff[i] != wantOff[i] {
			t.Fatalf("m=%d n=%d w=%d: off[%d] = %d != ref %d", len(a), len(b), w, i, gotOff[i], wantOff[i])
		}
	}
	if got.Cigar.String() != want.Cigar.String() {
		t.Fatalf("m=%d n=%d w=%d: cigar %q != ref %q", len(a), len(b), w, got.Cigar, want.Cigar)
	}
}

// TestEngineMatchesReference sweeps lengths, length skews, error rates,
// bands (odd widths included — nibble rows have a half-byte tail) and both
// heuristic variants.
func TestEngineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	variants := []AdaptiveVariant{DefaultVariant(), {}}
	for _, n := range []int{1, 2, 3, 7, 31, 64, 130, 500, 1000} {
		for _, errRate := range []float64{0, 0.05, 0.25} {
			a, b := mutatedPair(rng, n, errRate)
			for _, w := range []int{2, 3, 5, 16, 33, 64, 127} {
				for _, tb := range []bool{false, true} {
					v := variants[rng.Intn(len(variants))]
					requireEngineIdentical(t, a, b, DefaultParams(), w, tb, v)
				}
			}
		}
	}
}

// TestEngineMatchesReferenceSkewed drives the window clamps: pairs whose
// length difference exceeds the band, including empty sides.
func TestEngineMatchesReferenceSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := DefaultParams()
	cases := []struct{ m, n int }{
		{0, 1}, {1, 0}, {0, 40}, {40, 0}, {5, 80}, {80, 5},
		{100, 260}, {260, 100}, {33, 32}, {200, 203},
	}
	for _, c := range cases {
		a := seq.Random(rng, c.m)
		b := seq.Random(rng, c.n)
		for _, w := range []int{2, 7, 32, 65} {
			requireEngineIdentical(t, a, b, p, w, true, DefaultVariant())
			requireEngineIdentical(t, a, b, p, w, false, AdaptiveVariant{})
		}
	}
}

// TestEngineScratchReuse runs one Scratch across alternating sizes, widths
// and modes — stale lane contents, a shrunken offset vector or a dirty BT
// arena from the previous call must not leak into the next result.
func TestEngineScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewScratch()
	type job struct {
		n  int
		w  int
		tb bool
	}
	jobs := []job{
		{800, 64, true}, {10, 4, false}, {300, 128, true}, {300, 16, false},
		{0, 8, true}, {50, 8, true}, {800, 64, false}, {10, 128, true},
	}
	for _, j := range jobs {
		a, b := mutatedPair(rng, j.n, 0.1)
		got, _ := s.adaptiveBand(a, b, DefaultParams(), j.w, j.tb, DefaultVariant())
		want, _ := adaptiveBandRef(a, b, DefaultParams(), j.w, j.tb, DefaultVariant())
		if got.Score != want.Score || got.Clipped != want.Clipped || got.Cells != want.Cells ||
			got.Cigar.String() != want.Cigar.String() {
			t.Fatalf("reused scratch diverged at n=%d w=%d tb=%v: got (score=%d clip=%v cells=%d %q), want (score=%d clip=%v cells=%d %q)",
				j.n, j.w, j.tb, got.Score, got.Clipped, got.Cells, got.Cigar,
				want.Score, want.Clipped, want.Cells, want.Cigar)
		}
	}
}

// TestAdaptiveBandPathIsCallerOwned pins the Path contract: the returned
// offsets must survive subsequent engine calls on the pooled scratch.
func TestAdaptiveBandPathIsCallerOwned(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b := mutatedPair(rng, 200, 0.05)
	p := DefaultParams()
	_, off := AdaptiveBandPath(a, b, p, 32)
	snapshot := append([]int32(nil), off...)
	for i := 0; i < 4; i++ {
		c, d := mutatedPair(rng, 150+37*i, 0.2)
		AdaptiveBandScore(c, d, p, 16)
	}
	for i := range off {
		if off[i] != snapshot[i] {
			t.Fatalf("AdaptiveBandPath result mutated at index %d after later calls", i)
		}
	}
}

// TestEngineZeroAllocSteadyState asserts the tentpole property: a warmed
// explicit Scratch performs zero heap allocations per score-only call, and
// an Align call allocates only the returned CIGAR machinery.
func TestEngineZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a, b := mutatedPair(rng, 2000, 0.05)
	p := DefaultParams()
	s := NewScratch()
	s.AdaptiveBandAlign(a, b, p, 64) // warm every buffer, BT included
	var sink Result

	if allocs := testing.AllocsPerRun(20, func() {
		sink = s.AdaptiveBandScore(a, b, p, 64)
	}); allocs != 0 {
		t.Errorf("warmed AdaptiveBandScore allocates %.1f objects/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		sink = s.AdaptiveBandScoreVariant(a, b, p, 64, AdaptiveVariant{})
	}); allocs != 0 {
		t.Errorf("warmed AdaptiveBandScoreVariant allocates %.1f objects/op, want 0", allocs)
	}
	// The align path may allocate only the result CIGAR (and the traceback
	// closure feeding it) — a handful of objects, not O(w) lanes.
	alignAllocs := testing.AllocsPerRun(20, func() {
		sink = s.AdaptiveBandAlign(a, b, p, 64)
	})
	if alignAllocs > 12 {
		t.Errorf("warmed AdaptiveBandAlign allocates %.1f objects/op, want only CIGAR machinery (<= 12)", alignAllocs)
	}
	if !sink.InBand {
		t.Fatal("sanity: alignment fell out of band")
	}
	// The narrow-lane fast path behind AdaptiveBandAlign builds the same
	// CIGAR from its own arena: not one object more than the wide engine.
	s.AdaptiveBandAlignWide(a, b, p, 64)
	if wideAllocs := testing.AllocsPerRun(20, func() {
		sink = s.AdaptiveBandAlignWide(a, b, p, 64)
	}); alignAllocs != wideAllocs {
		t.Errorf("AdaptiveBandAlign allocates %.1f objects/op, the wide engine %.1f: the fast path may allocate only the CIGAR", alignAllocs, wideAllocs)
	}

	// Static band and Gotoh share the arena.
	s.StaticBandScore(a, b, p, 128)
	if allocs := testing.AllocsPerRun(20, func() {
		sink = s.StaticBandScore(a, b, p, 128)
	}); allocs != 0 {
		t.Errorf("warmed StaticBandScore allocates %.1f objects/op, want 0", allocs)
	}
	s.GotohScore(a[:300], b[:300], p)
	if allocs := testing.AllocsPerRun(20, func() {
		sink = s.GotohScore(a[:300], b[:300], p)
	}); allocs != 0 {
		t.Errorf("warmed GotohScore allocates %.1f objects/op, want 0", allocs)
	}
	_ = sink
}

package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestEngineScratchReuse runs one Scratch across alternating sizes, widths,
// modes and both engines — stale lane contents, a shrunken offset vector
// or a dirty BT arena from the previous call (the narrow engine leaves its
// traceback rows unzeroed) must not leak into the next result, which must
// equal a fresh Scratch's on every field and the window trajectory.
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
		p := DefaultParams()
		s.AdaptiveBandAlign(b, a, p, j.w+3)
		got, gotOff := s.adaptiveBand(a, b, p, j.w, j.tb)
		gotOff = append([]int32(nil), gotOff...)
		want, wantOff := NewScratch().adaptiveBand(a, b, p, j.w, j.tb)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotOff, wantOff) {
			t.Fatalf("reused scratch diverged at n=%d w=%d tb=%v:\n got  %+v\n want %+v", j.n, j.w, j.tb, got, want)
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
		sink = s.AdaptiveBandScoreWide(a, b, p, 64)
	}); allocs != 0 {
		t.Errorf("warmed AdaptiveBandScoreWide allocates %.1f objects/op, want 0", allocs)
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

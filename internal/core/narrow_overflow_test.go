package core

import (
	"fmt"
	"reflect"
	"testing"

	"pimnw/internal/seq"
)

// identicalSeq builds a length-n sequence of a fixed repeating motif, so
// aligning it against itself scores exactly n·Match with no gaps.
func identicalSeq(n int) seq.Seq {
	s := make(seq.Seq, n)
	for i := range s {
		s[i] = seq.Base(i & 3)
	}
	return s
}

// TestNarrowPositiveSaturationBoundary walks the stored value up to the
// +(2^15 − narrowCenter) representability boundary with Match=127 on
// identical pairs: score L·127 per pair, no rebase (m+n < rebase cadence).
// Below the boundary the narrow result must be bit-identical to the wide
// engine; at the boundary the saturating add must trip the sticky bit and
// report Overflowed — never a silently wrapped score. The detection is
// conservative by |Mismatch| (the sticky fires on the pre-fold sum), so
// the largest certified score is 2^15 − narrowCenter + Mismatch.
func TestNarrowPositiveSaturationBoundary(t *testing.T) {
	p := Params{Match: 127, Mismatch: -4, GapOpen: 4, GapExt: 2}
	s := NewScratch()
	for _, tc := range []struct {
		length       int
		w            int
		wantOverflow bool
	}{
		// 127·127 = 16129 < 16383: every intermediate sum stays ≤ 2^15−1.
		{127, 32, false},
		// 128·127 = 16256: final diag sum is 32513+131 = 32644, still in range.
		{128, 32, false},
		// 129·127 = 16383 = 2^15−narrowCenter−1: the last representable
		// value, but the pre-fold sum 32640+131 crosses 2^15 → sticky.
		{129, 32, true},
		{200, 32, true},
		// w=2 keeps every lane in a masked edge word: the portable step
		// under a keep-mask must saturate exactly like the whole-word path.
		{128, 2, false},
		{129, 2, true},
	} {
		a := identicalSeq(tc.length)
		for _, tb := range bothModes {
			label := fmt.Sprintf("L=%d w=%d tb=%v", tc.length, tc.w, tb)
			narrow, wide, ok := narrowAndWide(s, a, a, p, tc.w, tb)
			if tc.wantOverflow {
				if ok || !narrow.Overflowed {
					t.Fatalf("%s: want Overflowed at the +2^15 boundary, got ok=%v %+v", label, ok, narrow)
				}
				if narrow.Score != NegInf || narrow.Cigar != nil {
					t.Fatalf("%s: overflowed result leaked %+v", label, narrow)
				}
				continue
			}
			if !ok {
				t.Fatalf("%s: spurious overflow below the boundary", label)
			}
			requireNarrowEqual(t, label, narrow, wide)
			if want := int32(tc.length) * p.Match; narrow.Score != want {
				t.Fatalf("%s: score %d, want %d", label, narrow.Score, want)
			}
		}
	}
}

// TestNarrowNegativeSaturationBoundary drives the matrix-boundary gap row
// down to the −(2^15 − narrowCenter) boundary: aligning an empty query
// against b costs GapOpen + n·GapExt, and the stored boundary value
// narrowCenter − GapCost(n) hits the dead-sentinel encoding (stored ≤ 0)
// exactly when the gap cost reaches narrowCenter. GapExt=32 makes that
// happen inside one rebase window, so the periodic rebase cannot rescue
// the drift first. Below the guard floor the engine may conservatively
// overflow; at the boundary it must.
func TestNarrowNegativeSaturationBoundary(t *testing.T) {
	p := Params{Match: 2, Mismatch: -4, GapOpen: 4, GapExt: 32}
	s := NewScratch()
	for _, tc := range []struct {
		n            int
		wantOverflow bool
	}{
		// GapCost(400) = 12804: stored 3580, far above the guard floor.
		{400, false},
		// GapCost(500) = 16004: stored 380, still live and certified.
		{500, false},
		// GapCost(512) = 16388 ≥ narrowCenter: the boundary write leaves
		// the representable range → sticky.
		{512, true},
		{600, true},
	} {
		b := identicalSeq(tc.n)
		for _, tb := range bothModes {
			label := fmt.Sprintf("n=%d tb=%v", tc.n, tb)
			narrow, wide, ok := narrowAndWide(s, nil, b, p, 4, tb)
			if tc.wantOverflow {
				if ok || !narrow.Overflowed {
					t.Fatalf("%s: want Overflowed at the −2^15 boundary, got ok=%v %+v", label, ok, narrow)
				}
				continue
			}
			if !ok {
				t.Fatalf("%s: spurious overflow below the boundary", label)
			}
			requireNarrowEqual(t, label, narrow, wide)
			if want := -p.GapCost(tc.n); narrow.Score != want {
				t.Fatalf("%s: score %d, want %d", label, narrow.Score, want)
			}
		}
	}
}

// stickyMidMatrixPair climbs past the +2^15 boundary on an identical
// prefix at Match=127 (160·127 = 20320 > 16383 mid-run), then falls back
// on an all-mismatch tail: the final score is representable, only the
// transient is not.
func stickyMidMatrixPair() (a, b seq.Seq, p Params) {
	prefix := identicalSeq(160)
	a = append(append(seq.Seq{}, prefix...), make(seq.Seq, 120)...)
	b = append(seq.Seq{}, a...)
	for i := len(prefix); i < len(b); i++ {
		b[i] = seq.Base(1)
	}
	return a, b, Params{Match: 127, Mismatch: -4, GapOpen: 4, GapExt: 2}
}

// TestNarrowStickyPropagatesAcrossDiagonals pins the sticky-bit contract:
// saturation in the middle of the matrix must surface as Overflowed even
// though every later anti-diagonal is representable again. The pair climbs
// past the boundary on an identical prefix, then falls back on an
// all-mismatch tail; the final score is small, but the engine must not
// forget the transient.
func TestNarrowStickyPropagatesAcrossDiagonals(t *testing.T) {
	a, b, p := stickyMidMatrixPair()
	s := NewScratch()
	for _, w := range []int{2, 32} { // edge-word-only and whole-word shapes
		for _, tb := range bothModes {
			narrow, ok := s.adaptiveBandNarrow(a, b, p, w, tb)
			if ok || !narrow.Overflowed {
				t.Fatalf("w=%d tb=%v: transient saturation was forgotten: ok=%v %+v", w, tb, ok, narrow)
			}
		}
	}
	// Sanity: the wide engine handles the same pair without complaint, so
	// the sticky really is a narrow-lane artefact, not a scoring anomaly.
	wide, _ := s.adaptiveBand(a, b, p, 32, false)
	if wide.Score >= 20000 || !wide.InBand {
		t.Fatalf("wide result implausible: %+v", wide)
	}
}

// TestNarrowRebaseBoundary exercises the rebase path on both sides: a
// monotonically climbing score (rebase shifts the window down) and a
// monotonically falling one (rebase shifts it back up), both crossing
// several rebase cadences, must stay bit-identical to the wide engine.
func TestNarrowRebaseBoundary(t *testing.T) {
	s := NewScratch()

	// Climb: 2000 identical bases at Match=31 drift up 31/2 per step —
	// 7936 per rebase window, inside the representable range — and reach
	// 62000, far past 2^15, rebasing several times without saturating.
	up := Params{Match: 31, Mismatch: -4, GapOpen: 4, GapExt: 2}
	a := identicalSeq(2000)
	for _, tb := range bothModes {
		narrow, wide, ok := narrowAndWide(s, a, a, up, 8, tb)
		if !ok {
			t.Fatal("climbing rebase overflowed")
		}
		requireNarrowEqual(t, fmt.Sprintf("climb tb=%v", tb), narrow, wide)
		if narrow.Score != 2000*31 {
			t.Fatalf("climb score %d, want %d", narrow.Score, 2000*31)
		}
	}

	// Fall: an empty query against 3000 bases at GapExt=2 drifts down
	// ~2 per step; the rebase must lift the window before the boundary
	// writes leave the representable range.
	down := DefaultParams()
	b := identicalSeq(3000)
	for _, tb := range bothModes {
		narrow, wide, ok := narrowAndWide(s, nil, b, down, 8, tb)
		if !ok {
			t.Fatal("falling rebase overflowed")
		}
		requireNarrowEqual(t, fmt.Sprintf("fall tb=%v", tb), narrow, wide)
		if want := -down.GapCost(3000); narrow.Score != want {
			t.Fatalf("fall score %d, want %d", narrow.Score, want)
		}
	}
}

// TestAdaptiveBandAlignFallsBackToWide pins the invisible fallback of the
// traceback entry point: whatever stops the narrow engine, the caller gets
// the wide engine's exact Result, CIGAR included. Two routes lead there.
// The a-priori gate: NarrowFits refuses this scoring model, so
// (*Scratch).AdaptiveBandAlign must not run the narrow engine at all. The
// runtime sticky: the narrow traceback aborts mid-matrix on the same
// Scratch — leaving its un-zeroed lane-indexed rows in the shared arena —
// and the wide run that follows must be unaffected. (No admitted
// model/band/pair combination is known to raise the sticky — NarrowFits'
// bound is sufficient on everything tried — so the second route is driven
// by the two calls adaptiveBandAuto makes, in its order.)
func TestAdaptiveBandAlignFallsBackToWide(t *testing.T) {
	a, b, p := stickyMidMatrixPair()
	for _, w := range []int{2, 32} {
		want := NewScratch().AdaptiveBandAlignWide(a, b, p, w)
		if !want.InBand || want.Cigar == nil || want.Overflowed {
			t.Fatalf("w=%d: wide oracle implausible: %+v", w, want)
		}

		if NarrowFits(p, w) {
			t.Fatalf("w=%d: NarrowFits admits Match=127; the gate route is not exercised", w)
		}
		s := NewScratch()
		if got := s.AdaptiveBandAlign(a, b, p, w); !reflect.DeepEqual(got, want) {
			t.Errorf("w=%d gate route:\n got  %+v\n want %+v", w, got, want)
		}

		s = NewScratch()
		if res, ok := s.adaptiveBandNarrow(a, b, p, w, true); ok || !res.Overflowed || res.Cigar != nil {
			t.Fatalf("w=%d: narrow traceback did not abort on the transient: ok=%v %+v", w, ok, res)
		}
		if got, _ := s.adaptiveBand(a, b, p, w, true); !reflect.DeepEqual(got, want) {
			t.Errorf("w=%d sticky route:\n got  %+v\n want %+v", w, got, want)
		}
	}
}

package core

import (
	"testing"

	"pimnw/internal/seq"
)

// Native fuzz targets. The seed corpus runs on every `go test`; under
// `go test -fuzz` they explore adversarial byte patterns. Each target
// cross-checks two independent implementations, so any discrepancy the
// fuzzer finds is a real bug, not a flaky oracle.

func bytesToSeq(raw []byte, maxLen int) seq.Seq {
	if len(raw) > maxLen {
		raw = raw[:maxLen]
	}
	s := make(seq.Seq, len(raw))
	for i, b := range raw {
		s[i] = seq.Base(b & 3)
	}
	return s
}

func FuzzLinearVsQuadratic(f *testing.F) {
	f.Add([]byte("ACGT"), []byte("AGT"))
	f.Add([]byte(""), []byte("TTTT"))
	f.Add([]byte("AAAAAAAA"), []byte("AAAA"))
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3}, []byte{3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		a := bytesToSeq(rawA, 64)
		b := bytesToSeq(rawB, 64)
		p := DefaultParams()
		want := GotohScore(a, b, p).Score
		res := GotohAlignLinear(a, b, p)
		if res.Score != want {
			t.Fatalf("linear %d != quadratic %d (a=%v b=%v)", res.Score, want, a, b)
		}
		if err := res.Cigar.Validate(a, b); err != nil {
			t.Fatalf("invalid cigar: %v", err)
		}
	})
}

// FuzzBandedNeverBeatsOptimal pins every banded engine to exact Gotoh: no
// in-band score beats the optimum, and the clip certificate holds — an
// in-band result that is not Clipped is the optimum to within one gap
// open. escapeBound charges an escaping path's remaining length difference
// a full GapCost, but the path may already be inside that gap at the band
// edge, so exact soundness is off by GapOpen. It covers the default
// (narrow-first) entry points, the full-width engine and the static band.
func FuzzBandedNeverBeatsOptimal(f *testing.F) {
	f.Add([]byte("ACGTACGT"), []byte("ACGAACGT"), uint8(8))
	f.Add([]byte("AAAA"), []byte("TTTTTTTT"), uint8(4))
	// The optimum leaves the w=2 window inside a vertical gap: the
	// certificate passes a score exactly GapOpen below it.
	f.Add([]byte("17700000"), []byte("10"), uint8(0))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, wRaw uint8) {
		a := bytesToSeq(rawA, 48)
		b := bytesToSeq(rawB, 48)
		w := 2 + int(wRaw)%64
		p := DefaultParams()
		opt := GotohScore(a, b, p).Score
		align := AdaptiveBandAlign(a, b, p, w)
		for _, e := range []struct {
			name string
			res  Result
		}{
			{"static", StaticBandScore(a, b, p, w)},
			{"adaptive", AdaptiveBandScore(a, b, p, w)},
			{"adaptive-wide", AdaptiveBandScoreWide(a, b, p, w)},
			{"adaptive-align", align},
		} {
			if !e.res.InBand {
				continue
			}
			if e.res.Score > opt {
				t.Fatalf("%s band w=%d beats optimal: %d > %d", e.name, w, e.res.Score, opt)
			}
			if !e.res.Clipped && e.res.Score < opt-p.GapOpen {
				t.Fatalf("%s band w=%d: unclipped score %d more than a gap open below optimal %d", e.name, w, e.res.Score, opt)
			}
		}
		if align.Cigar != nil {
			if err := align.Cigar.Validate(a, b); err != nil {
				t.Fatalf("adaptive cigar invalid: %v", err)
			}
			if got := ScoreFromCigar(align.Cigar, p); got != align.Score {
				t.Fatalf("cigar implies %d, scored %d", got, align.Score)
			}
		}
	})
}

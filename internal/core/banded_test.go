package core

import (
	"math/rand"
	"testing"

	"pimnw/internal/seq"
)

// staticModels are the scoring models the static engine's query profile
// is pinned under: the default and one with another match/mismatch ratio
// and gap shape.
var staticModels = []Params{DefaultParams(), {Match: 1, Mismatch: -3, GapOpen: 5, GapExt: 2}}

func TestStaticBandEqualsFullWhenWide(t *testing.T) {
	for _, p := range staticModels {
		rng := rand.New(rand.NewSource(31))
		for trial := 0; trial < 30; trial++ {
			a := seq.Random(rng, rng.Intn(40))
			b := seq.Random(rng, rng.Intn(40))
			full := GotohScore(a, b, p).Score
			banded := StaticBandScore(a, b, p, 2*(len(a)+len(b)+2))
			if !banded.InBand || banded.Score != full {
				t.Fatalf("%+v: wide static band %d != full %d (a=%v b=%v)", p, banded.Score, full, a, b)
			}
		}
	}
}

func TestStaticBandNeverBeatsFull(t *testing.T) {
	for _, p := range staticModels {
		rng := rand.New(rand.NewSource(32))
		for trial := 0; trial < 40; trial++ {
			a, b := mutatedPair(rng, 20+rng.Intn(60), 0.2)
			full := GotohScore(a, b, p).Score
			for _, w := range []int{4, 8, 16, 64} {
				banded := StaticBandScore(a, b, p, w)
				if banded.InBand && banded.Score > full {
					t.Fatalf("%+v: band w=%d score %d beats optimal %d", p, w, banded.Score, full)
				}
			}
		}
	}
}

func TestStaticBandMonotoneInWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	p := DefaultParams()
	for trial := 0; trial < 20; trial++ {
		a, b := mutatedPair(rng, 80, 0.15)
		prev := NegInf
		for _, w := range []int{4, 8, 16, 32, 64, 128, 512} {
			res := StaticBandScore(a, b, p, w)
			s := res.Score
			if !res.InBand {
				s = NegInf
			}
			if s < prev {
				t.Fatalf("score decreased when widening band to %d: %d < %d", w, s, prev)
			}
			prev = s
		}
	}
}

func TestStaticBandFailsOnLengthSkew(t *testing.T) {
	a := seq.MustFromString("ACGTACGTACGTACGTACGT") // 20
	b := seq.MustFromString("ACGT")                 // 4: |m-n| = 16 > 8/2
	res := StaticBandScore(a, b, DefaultParams(), 8)
	if res.InBand {
		t.Error("expected out-of-band failure")
	}
	if res.Score != NegInf {
		t.Errorf("failed alignment score = %d, want NegInf", res.Score)
	}
}

func TestStaticBandAlignConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	p := DefaultParams()
	for trial := 0; trial < 40; trial++ {
		a, b := mutatedPair(rng, 20+rng.Intn(80), 0.1)
		for _, w := range []int{8, 32, 256} {
			res := StaticBandAlign(a, b, p, w)
			if !res.InBand {
				continue
			}
			scoreOnly := StaticBandScore(a, b, p, w)
			if res.Score != scoreOnly.Score {
				t.Fatalf("w=%d: align %d != score %d", w, res.Score, scoreOnly.Score)
			}
			if err := res.Cigar.Validate(a, b); err != nil {
				t.Fatalf("w=%d: invalid cigar: %v", w, err)
			}
			if got := ScoreFromCigar(res.Cigar, p); got != res.Score {
				t.Fatalf("w=%d: cigar implies %d, reported %d", w, got, res.Score)
			}
		}
	}
}

func TestStaticBandEmptyEdges(t *testing.T) {
	p := DefaultParams()
	a := seq.MustFromString("ACG")
	res := StaticBandAlign(a, nil, p, 8)
	if !res.InBand || res.Score != -p.GapCost(3) || res.Cigar.String() != "3I" {
		t.Errorf("vs empty target: %+v cigar=%v", res, res.Cigar)
	}
	res = StaticBandAlign(nil, a, p, 8)
	if !res.InBand || res.Cigar.String() != "3D" {
		t.Errorf("vs empty query: %+v", res)
	}
	res = StaticBandScore(nil, a, p, 4)
	if res.InBand {
		t.Error("3 deletions outside half-band 2 must fail")
	}
	res = StaticBandScore(a, nil, p, 8)
	if !res.InBand || res.Score != -p.GapCost(3) || res.Cigar != nil {
		t.Errorf("score-only vs empty target: %+v", res)
	}
	for _, res := range []Result{StaticBandAlign(nil, nil, p, 8), StaticBandScore(nil, nil, p, 8)} {
		if !res.InBand || res.Score != 0 {
			t.Errorf("empty vs empty: %+v", res)
		}
	}
}

func TestAdaptiveBandEqualsFullOnCleanPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := DefaultParams()
	for trial := 0; trial < 30; trial++ {
		a, b := mutatedPair(rng, 100+rng.Intn(100), 0.08)
		full := GotohScore(a, b, p).Score
		res := AdaptiveBandScore(a, b, p, 64)
		if !res.InBand {
			t.Fatalf("trial %d: adaptive band lost the corner (lens %d/%d)", trial, len(a), len(b))
		}
		if res.Score != full {
			t.Fatalf("trial %d: adaptive %d != full %d", trial, res.Score, full)
		}
	}
}

func TestAdaptiveBandNeverBeatsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := DefaultParams()
	for trial := 0; trial < 40; trial++ {
		a, b := mutatedPair(rng, 20+rng.Intn(100), 0.25)
		full := GotohScore(a, b, p).Score
		for _, w := range []int{4, 8, 16, 64} {
			res := AdaptiveBandScore(a, b, p, w)
			if res.InBand && res.Score > full {
				t.Fatalf("adaptive w=%d score %d beats optimal %d", w, res.Score, full)
			}
		}
	}
}

func TestAdaptiveBandAlignConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	p := DefaultParams()
	for trial := 0; trial < 40; trial++ {
		a, b := mutatedPair(rng, 20+rng.Intn(120), 0.12)
		for _, w := range []int{8, 32, 128} {
			res := AdaptiveBandAlign(a, b, p, w)
			if !res.InBand {
				continue
			}
			scoreOnly := AdaptiveBandScore(a, b, p, w)
			if res.Score != scoreOnly.Score {
				t.Fatalf("w=%d: align %d != score %d", w, res.Score, scoreOnly.Score)
			}
			if err := res.Cigar.Validate(a, b); err != nil {
				t.Fatalf("w=%d: invalid cigar: %v (a=%v b=%v)", w, err, a, b)
			}
			if got := ScoreFromCigar(res.Cigar, p); got != res.Score {
				t.Fatalf("w=%d: cigar implies %d, reported %d", w, got, res.Score)
			}
		}
	}
}

func TestAdaptiveBandIdentical(t *testing.T) {
	p := DefaultParams()
	a := seq.Random(rand.New(rand.NewSource(44)), 500)
	res := AdaptiveBandAlign(a, a, p, 16)
	if !res.InBand {
		t.Fatal("identical sequences fell out of band")
	}
	if res.Score != int32(len(a))*p.Match {
		t.Errorf("score = %d, want %d", res.Score, int32(len(a))*p.Match)
	}
	if res.Cigar.String() != "500=" {
		t.Errorf("cigar = %v", res.Cigar)
	}
}

func TestAdaptiveBandHandlesLengthSkew(t *testing.T) {
	// A pair whose length difference exceeds the band width: the static
	// band fails outright; the adaptive band must follow the forced
	// down-shifts and still produce a valid (if penalised) alignment.
	rng := rand.New(rand.NewSource(45))
	p := DefaultParams()
	a := seq.Random(rng, 300)
	b := a[:200].Clone()
	if res := StaticBandScore(a, b, p, 32); res.InBand {
		t.Fatal("static band should fail at skew 100 > 16")
	}
	res := AdaptiveBandAlign(a, b, p, 32)
	if !res.InBand {
		t.Fatal("adaptive band failed to reach the corner")
	}
	if err := res.Cigar.Validate(a, b); err != nil {
		t.Fatalf("invalid cigar: %v", err)
	}
	want := int32(200)*p.Match - p.GapCost(100)
	if res.Score != want {
		t.Errorf("score = %d, want %d (one 100-base tail gap)", res.Score, want)
	}
}

// TestTieSteeringAblation checks the steered half of the DESIGN.md
// ablation: identical-content pairs whose lengths differ by ~3x the band
// need a long tail gap, which the window reaches in time only because
// shift ties steer it toward the (m,n) corner diagonal.
func TestTieSteeringAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	p := DefaultParams()
	optimal := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		n := 300 + rng.Intn(300)
		skew := 80 + rng.Intn(60)
		a := seq.Random(rng, n)
		b := a[:n-skew].Clone()
		if r := AdaptiveBandScore(a, b, p, 32); r.InBand && r.Score == GotohScore(a, b, p).Score {
			optimal++
		}
	}
	if optimal < trials*3/4 {
		t.Errorf("adaptive band only optimal on %d/%d skewed pairs", optimal, trials)
	}
}

func TestAdaptiveBandRecoversBigGap(t *testing.T) {
	// A 60-base internal deletion: a static band of 32 cannot contain the
	// path, the adaptive band of the same size can (Table 1's story).
	rng := rand.New(rand.NewSource(46))
	p := DefaultParams()
	a := seq.Random(rng, 400)
	b := append(a[:170].Clone(), a[230:]...)
	full := GotohScore(a, b, p).Score
	adap := AdaptiveBandScore(a, b, p, 80)
	if !adap.InBand || adap.Score != full {
		t.Fatalf("adaptive w=80: %+v, want optimal %d", adap, full)
	}
	stat := StaticBandScore(a, b, p, 80)
	if stat.InBand && stat.Score >= full {
		t.Fatal("static w=80 unexpectedly found the optimal path across a 60-gap")
	}
}

func TestAdaptiveBandOffsetsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	p := DefaultParams()
	for trial := 0; trial < 20; trial++ {
		a, b := mutatedPair(rng, 50+rng.Intn(200), 0.15)
		_, off := AdaptiveBandPath(a, b, p, 32)
		if len(off) != len(a)+len(b)+1 {
			t.Fatalf("offsets length %d, want %d", len(off), len(a)+len(b)+1)
		}
		if off[0] != 0 {
			t.Fatalf("off[0] = %d", off[0])
		}
		for t0 := 1; t0 < len(off); t0++ {
			d := off[t0] - off[t0-1]
			if d != 0 && d != 1 {
				t.Fatalf("offset step %d at t=%d", d, t0)
			}
		}
		last := off[len(off)-1]
		if int(last) > len(a) || int(last)+31 < len(a) {
			// The final window must be clamped into the valid row range.
			t.Fatalf("final offset %d cannot contain row m=%d", last, len(a))
		}
	}
}

func TestAdaptiveBandEmptyEdges(t *testing.T) {
	p := DefaultParams()
	a := seq.MustFromString("ACGTA")
	res := AdaptiveBandAlign(a, nil, p, 8)
	if !res.InBand || res.Cigar.String() != "5I" || res.Score != -p.GapCost(5) {
		t.Errorf("vs empty target: %+v cigar=%v", res, res.Cigar)
	}
	res = AdaptiveBandAlign(nil, a, p, 8)
	if !res.InBand || res.Cigar.String() != "5D" {
		t.Errorf("vs empty query: %+v cigar=%v", res, res.Cigar)
	}
	res = AdaptiveBandScore(nil, nil, p, 8)
	if !res.InBand || res.Score != 0 {
		t.Errorf("empty vs empty: %+v", res)
	}
}

func TestAdaptiveBandDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	p := DefaultParams()
	a, b := mutatedPair(rng, 200, 0.1)
	r1 := AdaptiveBandAlign(a, b, p, 32)
	r2 := AdaptiveBandAlign(a, b, p, 32)
	if r1.Score != r2.Score || r1.Cigar.String() != r2.Cigar.String() {
		t.Error("adaptive alignment is not deterministic")
	}
}

func TestAdaptiveCellsBoundedByWorkloadEstimate(t *testing.T) {
	// The paper's load-balancing workload estimate is (m+n)·w; the real
	// cell count must never exceed it (window cells outside the matrix are
	// skipped, never added).
	rng := rand.New(rand.NewSource(49))
	p := DefaultParams()
	for trial := 0; trial < 20; trial++ {
		a, b := mutatedPair(rng, 50+rng.Intn(300), 0.1)
		w := 32
		res := AdaptiveBandScore(a, b, p, w)
		bound := int64(len(a)+len(b)+1) * int64(w)
		if res.Cells > bound {
			t.Fatalf("cells %d exceed workload bound %d", res.Cells, bound)
		}
		if res.Cells < int64(min(len(a), len(b))) {
			t.Fatalf("cells %d implausibly low", res.Cells)
		}
	}
}

// TestAlignerInterface checks each formulation's score-only and traceback
// entry points on one clean pair: both reach the optimum, only the
// traceback one returns a CIGAR, and that CIGAR is valid.
func TestAlignerInterface(t *testing.T) {
	p := DefaultParams()
	rng := rand.New(rand.NewSource(50))
	a, b := mutatedPair(rng, 60, 0.05)
	want := GotohScore(a, b, p).Score
	for _, e := range []struct {
		name         string
		score, align Result
	}{
		{"full-gotoh", GotohScore(a, b, p), GotohAlign(a, b, p)},
		{"static-band", StaticBandScore(a, b, p, 64), StaticBandAlign(a, b, p, 64)},
		{"adaptive-band", AdaptiveBandScore(a, b, p, 64), AdaptiveBandAlign(a, b, p, 64)},
	} {
		if e.score.Score != want {
			t.Errorf("%s score-only = %d, want %d", e.name, e.score.Score, want)
		}
		if e.score.Cigar != nil {
			t.Errorf("%s: score-only returned a cigar", e.name)
		}
		if e.align.Score != want || e.align.Cigar == nil {
			t.Errorf("%s traceback = %+v", e.name, e.align)
		}
		if err := e.align.Cigar.Validate(a, b); err != nil {
			t.Errorf("%s: %v", e.name, err)
		}
	}
}

package core_test

// Cross-implementation consistency: the repository contains five
// independent routes to the same affine-gap optimum — quadratic Gotoh,
// linear-memory Myers-Miller, wide static band, wide adaptive band, and
// the wavefront algorithm. This suite drives them against each other over
// randomized workloads; any index or recurrence bug in one of them breaks
// the agreement.

import (
	"math/rand"
	"testing"

	"pimnw/internal/core"
	"pimnw/internal/seq"
	"pimnw/internal/wfa"
)

func TestAllAlignersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	params := core.DefaultParams()
	for trial := 0; trial < 60; trial++ {
		var a, b seq.Seq
		switch trial % 5 {
		case 0: // unrelated
			a = seq.Random(rng, rng.Intn(120))
			b = seq.Random(rng, rng.Intn(120))
		case 1: // close long-read pair
			a = seq.Random(rng, 100+rng.Intn(400))
			b = seq.UniformErrors(0.05).Apply(rng, a)
		case 2: // highly divergent
			a = seq.Random(rng, 50+rng.Intn(150))
			b = seq.UniformErrors(0.4).Apply(rng, a)
		case 3: // structural gap
			a = seq.Random(rng, 150+rng.Intn(200))
			cut := 20 + rng.Intn(60)
			pos := rng.Intn(len(a) - cut)
			b = append(a[:pos:pos], a[pos+cut:]...)
		default: // homopolymer-rich (tie-heavy recurrences)
			a = make(seq.Seq, 40+rng.Intn(100))
			for i := range a {
				a[i] = seq.Base(rng.Intn(2))
			}
			b = seq.UniformErrors(0.2).Apply(rng, a)
		}

		want := core.GotohScore(a, b, params).Score
		wide := 2 * (len(a) + len(b) + 2)

		if got := core.GotohAlign(a, b, params); got.Score != want {
			t.Fatalf("trial %d: quadratic traceback %d != %d", trial, got.Score, want)
		}
		if got := core.GotohAlignLinear(a, b, params); got.Score != want {
			t.Fatalf("trial %d: linear-memory %d != %d", trial, got.Score, want)
		}
		if got := core.StaticBandScore(a, b, params, wide); !got.InBand || got.Score != want {
			t.Fatalf("trial %d: wide static band %d != %d", trial, got.Score, want)
		}
		if got, err := wfa.ScoreParams(a, b, params); err != nil || got.Score != want {
			t.Fatalf("trial %d: wfa %d != %d (%v)", trial, got.Score, want, err)
		}
		// The adaptive band is a heuristic even when wide, but on every
		// workload class above a window covering min(m,n)+2 diagonals
		// never drops the optimal path.
		if got := core.AdaptiveBandScore(a, b, params, wide); got.InBand && got.Score > want {
			t.Fatalf("trial %d: adaptive beats optimal: %d > %d", trial, got.Score, want)
		}
	}
}

func TestTracebacksAllValidAndOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	params := core.DefaultParams()
	for trial := 0; trial < 40; trial++ {
		a := seq.Random(rng, 30+rng.Intn(150))
		b := seq.UniformErrors(0.15).Apply(rng, a)
		want := core.GotohScore(a, b, params).Score

		type route struct {
			name string
			res  core.Result
		}
		wres, err := wfa.AlignParams(a, b, params)
		if err != nil {
			t.Fatal(err)
		}
		routes := []route{
			{"quadratic", core.GotohAlign(a, b, params)},
			{"linear", core.GotohAlignLinear(a, b, params)},
			{"static-wide", core.StaticBandAlign(a, b, params, 2*(len(a)+len(b)))},
			// A window taller than the matrix never drops a valid cell:
			// both adaptive traceback engines are exact here. Band 512
			// passes NarrowFits, so the first runs in 16-bit lanes.
			{"adaptive-narrow", core.AdaptiveBandAlign(a, b, params, 512)},
			{"adaptive-wide", core.AdaptiveBandAlignWide(a, b, params, 512)},
			{"wfa", core.Result{Score: wres.Score, Cigar: wres.Cigar, InBand: true}},
		}
		for _, r := range routes {
			if r.res.Score != want {
				t.Fatalf("trial %d %s: score %d != %d", trial, r.name, r.res.Score, want)
			}
			if err := r.res.Cigar.Validate(a, b); err != nil {
				t.Fatalf("trial %d %s: %v", trial, r.name, err)
			}
			if got := core.ScoreFromCigar(r.res.Cigar, params); got != want {
				t.Fatalf("trial %d %s: cigar implies %d", trial, r.name, got)
			}
		}
	}
}

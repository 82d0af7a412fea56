package baseline

import (
	"math/rand"
	"testing"

	"pimnw/internal/core"
	"pimnw/internal/seq"
)

func makePairs(seed int64, n, length int, errRate float64) []Pair {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]Pair, n)
	for i := range pairs {
		a := seq.Random(rng, length+rng.Intn(length/4+1))
		b := seq.UniformErrors(errRate).Apply(rng, a)
		pairs[i] = Pair{ID: i, A: a, B: b}
	}
	return pairs
}

func TestOptionsValidate(t *testing.T) {
	good := Options{Params: core.DefaultParams(), Band: 128}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Options{
		{Params: core.DefaultParams(), Band: 1},
		{Params: core.Params{}, Band: 128},
		{Params: core.DefaultParams(), Band: 128, Threads: -1},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestRunScores(t *testing.T) {
	opts := Options{Params: core.DefaultParams(), Band: 64, Threads: 4}
	pairs := makePairs(12, 25, 150, 0.1)
	out, err := Run(opts, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(pairs) {
		t.Fatalf("%d results", len(out.Results))
	}
	if out.WallSeconds <= 0 || out.Cells <= 0 {
		t.Errorf("outcome: %+v", out)
	}
	for i, r := range out.Results {
		if r.ID != pairs[i].ID {
			t.Fatalf("result %d has ID %d", i, r.ID)
		}
		want := core.StaticBandScore(pairs[i].A, pairs[i].B, opts.Params, opts.Band)
		if r.InBand != want.InBand || (r.InBand && r.Score != want.Score) {
			t.Errorf("pair %d: %d/%v, want %d/%v", r.ID, r.Score, r.InBand, want.Score, want.InBand)
		}
		if r.Cigar != nil {
			t.Errorf("pair %d: score-only run produced a cigar", r.ID)
		}
	}
}

func TestRunTraceback(t *testing.T) {
	opts := Options{Params: core.DefaultParams(), Band: 64, Threads: 2, Traceback: true}
	pairs := makePairs(13, 10, 120, 0.08)
	out, err := Run(opts, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range out.Results {
		if !r.InBand {
			continue
		}
		if err := r.Cigar.Validate(pairs[i].A, pairs[i].B); err != nil {
			t.Errorf("pair %d: %v", r.ID, err)
		}
		if got := core.ScoreFromCigar(r.Cigar, opts.Params); got != r.Score {
			t.Errorf("pair %d: cigar score %d, reported %d", r.ID, got, r.Score)
		}
	}
}

func TestServerModels(t *testing.T) {
	if Xeon4216.TBCellsPerSec <= Xeon4215.TBCellsPerSec {
		t.Error("the 64-core server must model faster than the 32-core one")
	}
	// Sanity against the paper's S1000 row: 10M pairs x 1000 rows x band
	// 128 = 1.28e12 cells in ~294 s.
	sec := Xeon4215.Seconds(1_280_000_000_000, true)
	if sec < 250 || sec > 340 {
		t.Errorf("modelled S1000 on 4215 = %.0f s, paper says 294", sec)
	}
	// 16S score-only: 45.66M pairs x 1542 rows x band 512 = 3.6e13 cells
	// in ~5882 s.
	sec = Xeon4215.Seconds(36_000_000_000_000, false)
	if sec < 5200 || sec > 6500 {
		t.Errorf("modelled 16S on 4215 = %.0f s, paper says 5882", sec)
	}
}

func TestExactModeMatchesCoreFull(t *testing.T) {
	p := core.DefaultParams()
	rng := rand.New(rand.NewSource(21))
	mut := seq.UniformErrors(0.15)
	var pairs []Pair
	for i := 0; i < 10; i++ {
		a := seq.Random(rng, 120+rng.Intn(180))
		pairs = append(pairs, Pair{ID: i, A: a, B: mut.Apply(rng, a)})
	}
	out, err := Run(Options{Params: p, Exact: true, Traceback: true, Threads: 2}, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Results {
		want := core.GotohAlign(pairs[r.ID].A, pairs[r.ID].B, p)
		if r.Score != want.Score || !r.InBand {
			t.Fatalf("pair %d: exact mode score %d (InBand=%v), core.GotohAlign %d", r.ID, r.Score, r.InBand, want.Score)
		}
		if r.Cigar.String() != want.Cigar.String() {
			t.Fatalf("pair %d: exact mode CIGAR diverges from core.GotohAlign", r.ID)
		}
	}
	// Band is ignored in exact mode: a zero band must validate.
	if _, err := Run(Options{Params: p, Exact: true}, pairs[:1]); err != nil {
		t.Fatalf("exact mode rejected zero band: %v", err)
	}
}

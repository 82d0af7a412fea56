package host

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"pimnw/internal/core"
	"pimnw/internal/kernel"
	"pimnw/internal/pim"
	"pimnw/internal/seq"
)

func testConfig(ranks int, traceback bool) Config {
	pimCfg := pim.DefaultConfig()
	pimCfg.Ranks = ranks
	return Config{
		PIM: pimCfg,
		Kernel: kernel.Config{
			Geometry:  kernel.DefaultGeometry(),
			Band:      64,
			Params:    core.DefaultParams(),
			Costs:     pim.Asm,
			Traceback: traceback,
			PIM:       pimCfg,
		},
	}
}

func makePairs(seed int64, n, length int, errRate float64) []Pair {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]Pair, n)
	for i := range pairs {
		a := seq.Random(rng, length+rng.Intn(length/3+1))
		b := seq.UniformErrors(errRate).Apply(rng, a)
		pairs[i] = Pair{ID: i, A: a, B: b}
	}
	return pairs
}

func TestLPTBalances(t *testing.T) {
	loads := []int64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	buckets, sums := kernel.LPT(loads, 3)
	var total, max int64
	seen := map[int]bool{}
	for b, bucket := range buckets {
		for _, idx := range bucket {
			if seen[idx] {
				t.Fatalf("item %d assigned twice", idx)
			}
			seen[idx] = true
		}
		total += sums[b]
		if sums[b] > max {
			max = sums[b]
		}
	}
	if len(seen) != len(loads) {
		t.Fatalf("assigned %d of %d items", len(seen), len(loads))
	}
	if total != 55 {
		t.Fatalf("loads lost: %d", total)
	}
	// LPT guarantees makespan <= 4/3 OPT; OPT here is ceil(55/3)=19.
	if max > 19*4/3+1 {
		t.Errorf("LPT makespan %d too uneven", max)
	}
}

func TestAlignPairsMatchesReference(t *testing.T) {
	cfg := testConfig(2, true)
	pairs := makePairs(2, 30, 200, 0.1)
	rep, results, err := AlignPairs(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(pairs) {
		t.Fatalf("%d results for %d pairs", len(results), len(pairs))
	}
	if rep.Alignments != len(pairs) {
		t.Errorf("report alignments = %d", rep.Alignments)
	}
	byID := map[int]Result{}
	for _, r := range results {
		byID[r.ID] = r
	}
	for _, p := range pairs {
		r, ok := byID[p.ID]
		if !ok {
			t.Fatalf("pair %d missing", p.ID)
		}
		want := core.AdaptiveBandAlign(p.A, p.B, cfg.Kernel.Params, cfg.Kernel.Band)
		if r.Score != want.Score {
			t.Errorf("pair %d: score %d, want %d", p.ID, r.Score, want.Score)
		}
		if string(r.Cigar) != want.Cigar.String() {
			t.Errorf("pair %d: cigar mismatch", p.ID)
		}
		if r.Rank < 0 || r.Rank >= cfg.PIM.Ranks {
			t.Errorf("pair %d: rank %d out of range", p.ID, r.Rank)
		}
	}
}

// TestAlignPairsRepeatedIDs: caller IDs are labels, not keys. Pairs that
// share an ID must come back exactly as the same pairs with unique IDs
// do, position by position and with the same timeline, in every
// configuration — and the report must name the shared IDs.
func TestAlignPairsRepeatedIDs(t *testing.T) {
	unique := makePairs(61, 400, 120, 0.08)
	repeated := make([]Pair, len(unique))
	for i, p := range unique {
		repeated[i] = Pair{ID: i % 2, A: p.A, B: p.B}
	}
	verify := testConfig(1, true)
	verify.Verify = true
	faults := testConfig(1, true)
	faults.Faults = pim.FaultConfig{Rate: 0.3, CrashWeight: 1, Seed: 99}
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"plain", func() Config { return testConfig(1, true) }},
		{"verify", func() Config { return verify }},
		{"escalate", func() Config { return escalationConfig(true) }},
		{"fleet", func() Config {
			cfg := testConfig(1, true)
			fleet, err := ParseFleet("pim:1,cpu:2")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Backends = fleet
			return cfg
		}},
		{"faults", func() Config { return faults }},
	}
	key := func(r Result) [4]any {
		return [4]any{r.Score, string(r.Cigar), r.Status, r.Provenance}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantRep, want, err := AlignPairs(tc.cfg(), unique)
			if err != nil {
				t.Fatal(err)
			}
			rep, got, err := AlignPairs(tc.cfg(), repeated)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(repeated) || len(want) != len(unique) {
				t.Fatalf("%d results for repeated IDs, %d for unique, want %d", len(got), len(want), len(unique))
			}
			for i := range got {
				if got[i].ID != repeated[i].ID {
					t.Fatalf("result %d has ID %d, want %d", i, got[i].ID, repeated[i].ID)
				}
				if key(got[i]) != key(want[i]) {
					t.Fatalf("result %d: repeated IDs give %v, unique IDs %v", i, key(got[i]), key(want[i]))
				}
			}
			if rep.MakespanSec != wantRep.MakespanSec || rep.Alignments != wantRep.Alignments ||
				rep.VerifyFailures != 0 || rep.FaultsDetected != wantRep.FaultsDetected {
				t.Errorf("report differs: makespan %v/%v, alignments %d/%d, verify failures %d, faults %d/%d",
					rep.MakespanSec, wantRep.MakespanSec, rep.Alignments, wantRep.Alignments,
					rep.VerifyFailures, rep.FaultsDetected, wantRep.FaultsDetected)
			}
			if len(rep.AbandonedIDs) != len(wantRep.AbandonedIDs) || len(rep.Issues) != len(wantRep.Issues) {
				t.Fatalf("report names %d abandoned / %d issues, want %d / %d",
					len(rep.AbandonedIDs), len(rep.Issues), len(wantRep.AbandonedIDs), len(wantRep.Issues))
			}
			for i, id := range wantRep.AbandonedIDs {
				if rep.AbandonedIDs[i] != id%2 {
					t.Errorf("AbandonedIDs[%d] = %d, want caller ID %d", i, rep.AbandonedIDs[i], id%2)
				}
			}
			for i, is := range wantRep.Issues {
				if rep.Issues[i].ID != is.ID%2 || rep.Issues[i].Status != is.Status {
					t.Errorf("Issues[%d] = %+v, want caller ID %d with %v", i, rep.Issues[i], is.ID%2, is.Status)
				}
			}
		})
	}
}

func TestAlignPairsTimelineSanity(t *testing.T) {
	cfg := testConfig(2, true)
	pairs := makePairs(3, 40, 150, 0.08)
	rep, _, err := AlignPairs(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MakespanSec <= 0 {
		t.Fatal("zero makespan")
	}
	var maxKernel float64
	for _, rs := range rep.Ranks {
		if rs.KernelSec > maxKernel {
			maxKernel = rs.KernelSec
		}
		if rs.EndSec < rs.StartSec {
			t.Errorf("rank %d batch %d: end before start", rs.Rank, rs.Batch)
		}
		if rs.FastestDPUSec > rs.KernelSec {
			t.Errorf("fastest DPU slower than slowest: %+v", rs)
		}
	}
	if rep.MakespanSec < maxKernel {
		t.Errorf("makespan %.6f below slowest kernel %.6f", rep.MakespanSec, maxKernel)
	}
	if f := rep.HostOverheadFraction(); f < 0 || f >= 1 {
		t.Errorf("host overhead fraction = %v", f)
	}
	if rep.BytesIn <= 0 || rep.BytesOut <= 0 {
		t.Errorf("transfer accounting: in=%d out=%d", rep.BytesIn, rep.BytesOut)
	}
}

func TestAlignPairsStrongScaling(t *testing.T) {
	// Doubling ranks should come close to halving the simulated makespan
	// (the paper's Tables 2-4 show near-linear rank scaling). The system
	// must be saturated for that: with 4 ranks = 256 DPUs x 6 pools,
	// 2048 pairs still queue ~1.3 alignments per pool.
	pairs := makePairs(4, 2048, 100, 0.08)
	rep1, _, err := AlignPairs(testConfig(1, true), pairs)
	if err != nil {
		t.Fatal(err)
	}
	rep4, _, err := AlignPairs(testConfig(4, true), pairs)
	if err != nil {
		t.Fatal(err)
	}
	speedup := rep1.MakespanSec / rep4.MakespanSec
	if speedup < 2.5 || speedup > 4.5 {
		t.Errorf("1->4 ranks speedup = %.2f, want near 4", speedup)
	}
}

func TestAlignPairsEmpty(t *testing.T) {
	rep, results, err := AlignPairs(testConfig(1, false), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 || rep.MakespanSec != 0 {
		t.Errorf("empty run: %+v", rep)
	}
}

func TestAlignPairsInvalidConfig(t *testing.T) {
	cfg := testConfig(1, false)
	cfg.Kernel.Band = 3
	if _, _, err := AlignPairs(cfg, makePairs(5, 2, 50, 0.1)); err == nil {
		t.Error("invalid kernel config accepted")
	}
}

// TestOptionsRejectNaNFaultRate: a NaN -fault-rate must not run as a
// silently perfect fabric; the range check lives with pim.FaultConfig.
func TestOptionsRejectNaNFaultRate(t *testing.T) {
	cfg, err := Options{Band: 64, Ranks: 1, Lanes: "auto", FaultRate: math.NaN()}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Validate(); err == nil {
		t.Error("a NaN fault rate passed Validate")
	}
}

func TestAllPairsMatchesReference(t *testing.T) {
	cfg := testConfig(2, false)
	rng := rand.New(rand.NewSource(6))
	root := seq.Random(rng, 300)
	seqs := make([]seq.Seq, 12)
	for i := range seqs {
		seqs[i] = seq.UniformErrors(0.05).Apply(rng, root)
	}
	rep, results, err := AlignPairs(cfg, AllPairs(seqs))
	if err != nil {
		t.Fatal(err)
	}
	indices := AllPairIndices(len(seqs))
	if len(results) != len(indices) {
		t.Fatalf("%d results for %d comparisons", len(results), len(indices))
	}
	for _, r := range results {
		pi := indices[r.ID]
		want := core.AdaptiveBandScore(seqs[pi.I], seqs[pi.J], cfg.Kernel.Params, cfg.Kernel.Band)
		if r.Score != want.Score {
			t.Errorf("pair (%d,%d): score %d, want %d", pi.I, pi.J, r.Score, want.Score)
		}
		if r.Cigar != nil {
			t.Error("score-only mode produced a cigar")
		}
	}
	if rep.MakespanSec <= 0 || rep.TransferInSec <= 0 {
		t.Errorf("report: %+v", rep)
	}
}

func TestAllPairsTooBigForMRAM(t *testing.T) {
	cfg := testConfig(1, false)
	cfg.PIM.MRAM = 4096
	cfg.Kernel.PIM.MRAM = 4096
	rng := rand.New(rand.NewSource(7))
	seqs := []seq.Seq{seq.Random(rng, 9000), seq.Random(rng, 9000), seq.Random(rng, 9000)}
	if _, _, err := AlignPairs(cfg, AllPairs(seqs)); err == nil {
		t.Error("a pair that cannot fit one MRAM bank was accepted")
	}
}

func TestAllPairIndices(t *testing.T) {
	idx := AllPairIndices(4)
	if len(idx) != 6 {
		t.Fatalf("len = %d", len(idx))
	}
	if idx[0] != (PairIndex{0, 1}) || idx[5] != (PairIndex{2, 3}) {
		t.Errorf("indices = %v", idx)
	}
	for _, p := range idx {
		if p.I >= p.J {
			t.Errorf("unordered pair %v", p)
		}
	}
	if got := AllPairIndices(1); len(got) != 0 {
		t.Error("n=1 should have no pairs")
	}
}

func TestParallelFor(t *testing.T) {
	var visited [100]int32
	err := parallelFor(8, 100, func(i int) error {
		atomic.AddInt32(&visited[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range visited {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
	wantErr := errors.New("boom")
	var count int32
	err = parallelFor(4, 1000, func(i int) error {
		if atomic.AddInt32(&count, 1) == 10 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestParallelForSequentialFallback(t *testing.T) {
	order := []int{}
	err := parallelFor(1, 5, func(i int) error {
		order = append(order, i)
		return nil
	})
	if err != nil || len(order) != 5 {
		t.Fatalf("sequential: %v %v", order, err)
	}
}

func TestParallelForPanicRecovered(t *testing.T) {
	// Parallel path: a panicking worker surfaces as an error, not a crash.
	err := parallelFor(4, 50, func(i int) error {
		if i == 7 {
			panic("kernel bug")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "worker panic") ||
		!strings.Contains(err.Error(), "kernel bug") {
		t.Errorf("parallel panic not converted to an error: %v", err)
	}
	// Sequential path recovers too.
	err = parallelFor(1, 3, func(i int) error {
		if i == 1 {
			panic(42)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "item 1") {
		t.Errorf("sequential panic not converted to an error: %v", err)
	}
}

func TestParallelForEarlyCancel(t *testing.T) {
	// After the first error, remaining items must not be dispatched: with
	// every call failing instantly, at most one item per worker runs.
	const workers, n = 4, 10000
	var started int32
	err := parallelFor(workers, n, func(i int) error {
		atomic.AddInt32(&started, 1)
		return errors.New("fail fast")
	})
	if err == nil {
		t.Fatal("no error propagated")
	}
	if got := atomic.LoadInt32(&started); got > workers {
		t.Errorf("%d items ran after cancellation (max %d)", got, workers)
	}
	// Sequential path stops at the first failure.
	var seq int32
	_ = parallelFor(1, 100, func(i int) error {
		seq++
		return errors.New("stop")
	})
	if seq != 1 {
		t.Errorf("sequential ran %d items after an error", seq)
	}
}

package host

import (
	"math/rand"
	"strings"
	"testing"

	"pimnw/internal/core"
	"pimnw/internal/kernel"
	"pimnw/internal/seq"
)

func TestSinglePairSingleRank(t *testing.T) {
	cfg := testConfig(1, true)
	pairs := makePairs(22, 1, 200, 0.05)
	rep, results, err := AlignPairs(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || rep.Batches != 1 {
		t.Fatalf("%d results, %d batches", len(results), rep.Batches)
	}
	want := core.AdaptiveBandAlign(pairs[0].A, pairs[0].B, cfg.Kernel.Params, cfg.Kernel.Band)
	if results[0].Score != want.Score {
		t.Errorf("score %d, want %d", results[0].Score, want.Score)
	}
}

func TestSingleTaskletPoolGeometry(t *testing.T) {
	// T=1 pools have no barriers at all; the kernel must still work.
	cfg := testConfig(1, true)
	cfg.Kernel.Geometry = kernel.Geometry{Pools: 4, TaskletsPerPool: 1}
	pairs := makePairs(23, 8, 150, 0.08)
	_, results, err := AlignPairs(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.InBand {
			t.Errorf("pair %d fell out of band", i)
		}
	}
}

func TestReportInvariants(t *testing.T) {
	cfg := testConfig(3, false)
	pairs := makePairs(24, 96, 120, 0.1)
	rep, _, err := AlignPairs(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.UtilizationMin < 0 || rep.UtilizationMin > 1 {
		t.Errorf("UtilizationMin = %v", rep.UtilizationMin)
	}
	if rep.UtilizationMean < rep.UtilizationMin-1e-9 || rep.UtilizationMean > 1 {
		t.Errorf("UtilizationMean = %v < min %v", rep.UtilizationMean, rep.UtilizationMin)
	}
	if rep.TotalCells <= 0 || rep.TotalInstr <= 0 {
		t.Errorf("counters: cells=%d instr=%d", rep.TotalCells, rep.TotalInstr)
	}
	var endMax float64
	for _, rs := range rep.Ranks {
		if rs.EndSec > endMax {
			endMax = rs.EndSec
		}
	}
	if rep.MakespanSec != endMax {
		t.Errorf("makespan %v != last rank end %v", rep.MakespanSec, endMax)
	}
}

func TestBroadcastUsesAllRanks(t *testing.T) {
	cfg := testConfig(2, false)
	rng := rand.New(rand.NewSource(25))
	root := seq.Random(rng, 250)
	seqs := make([]seq.Seq, 40) // 780 comparisons over 128 DPUs
	for i := range seqs {
		seqs[i] = seq.UniformErrors(0.04).Apply(rng, root)
	}
	rep, results, err := AlignPairs(cfg, AllPairs(seqs))
	if err != nil {
		t.Fatal(err)
	}
	ranksSeen := map[int]bool{}
	for _, r := range results {
		ranksSeen[r.Rank] = true
	}
	if len(ranksSeen) != cfg.PIM.Ranks {
		t.Errorf("only %d of %d ranks used", len(ranksSeen), cfg.PIM.Ranks)
	}
	// All-against-all is symmetric work: the LPT split should keep the
	// slowest/fastest DPU gap small (paper: ~5%).
	for _, rs := range rep.Ranks {
		if rs.LoadedDPUs < 2 {
			continue
		}
		if gap := (rs.KernelSec - rs.FastestDPUSec) / rs.KernelSec; gap > 0.5 {
			t.Errorf("rank %d: %.0f%% spread between fastest and slowest DPU", rs.Rank, 100*gap)
		}
	}
}

func TestProjectTimeline(t *testing.T) {
	cfg := testConfig(2, false)
	batches := []SyntheticBatch{
		{BytesIn: 1 << 20, BytesOut: 1 << 16, KernelSec: 0.5, LoadedDPUs: 64},
		{BytesIn: 1 << 20, BytesOut: 1 << 16, KernelSec: 0.5, LoadedDPUs: 64},
		{BytesIn: 1 << 20, BytesOut: 1 << 16, KernelSec: 0.5, LoadedDPUs: 64},
		{BytesIn: 1 << 20, BytesOut: 1 << 16, KernelSec: 0.5, LoadedDPUs: 64},
	}
	rep := Project(cfg, batches)
	// 4 equal batches over 2 ranks: two waves of 0.5s each.
	if rep.MakespanSec < 1.0 || rep.MakespanSec > 1.1 {
		t.Errorf("makespan = %v, want ~1.0", rep.MakespanSec)
	}
	if rep.Batches != 4 {
		t.Errorf("batches = %d", rep.Batches)
	}
	// Twice the ranks should halve it.
	cfg4 := testConfig(4, false)
	rep4 := Project(cfg4, batches)
	if rep4.MakespanSec > rep.MakespanSec*0.6 {
		t.Errorf("4-rank projection %v not ~half of %v", rep4.MakespanSec, rep.MakespanSec)
	}
}

func TestBalancePolicies(t *testing.T) {
	// Heterogeneous workloads (PacBio-like spread): the LPT policy must
	// give the tightest rank completion (smallest slowest-DPU time),
	// which is the §4.1.2 claim about the rank barrier.
	rng := rand.New(rand.NewSource(26))
	pairs := make([]Pair, 256)
	for i := range pairs {
		n := 50 + rng.Intn(800) // 16x length spread
		a := seq.Random(rng, n)
		pairs[i] = Pair{ID: i, A: a, B: seq.UniformErrors(0.08).Apply(rng, a)}
	}
	makespan := map[BalancePolicy]float64{}
	for _, pol := range []BalancePolicy{BalanceLPT, BalanceRoundRobin, BalanceRandom} {
		cfg := testConfig(1, false)
		cfg.Balance = pol
		rep, results, err := AlignPairs(cfg, pairs)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(pairs) {
			t.Fatalf("policy %d: %d results", pol, len(results))
		}
		makespan[pol] = rep.MakespanSec
	}
	if makespan[BalanceLPT] > makespan[BalanceRoundRobin]*1.001 {
		t.Errorf("LPT (%.4fs) worse than round robin (%.4fs)",
			makespan[BalanceLPT], makespan[BalanceRoundRobin])
	}
	if makespan[BalanceLPT] > makespan[BalanceRandom]*1.001 {
		t.Errorf("LPT (%.4fs) worse than random (%.4fs)",
			makespan[BalanceLPT], makespan[BalanceRandom])
	}
}

func TestAssignPoliciesCoverAllItems(t *testing.T) {
	loads := make([]int64, 100)
	for i := range loads {
		loads[i] = int64(i + 1)
	}
	for _, pol := range []BalancePolicy{BalanceLPT, BalanceRoundRobin, BalanceRandom} {
		buckets := pol.assign(loads, 7, 1)
		seen := map[int]bool{}
		for _, b := range buckets {
			for _, idx := range b {
				if seen[idx] {
					t.Fatalf("policy %d: item %d assigned twice", pol, idx)
				}
				seen[idx] = true
			}
		}
		if len(seen) != len(loads) {
			t.Fatalf("policy %d: %d of %d items assigned", pol, len(seen), len(loads))
		}
	}
}

func TestTimelineRendering(t *testing.T) {
	cfg := testConfig(2, true)
	pairs := makePairs(27, 512, 80, 0.08)
	rep, _, err := AlignPairs(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	tl := rep.Timeline(60)
	if !strings.Contains(tl, "rank  0") || !strings.Contains(tl, "rank  1") {
		t.Errorf("timeline missing rank rows:\n%s", tl)
	}
	if !strings.Contains(tl, "#") {
		t.Errorf("timeline shows no kernel execution:\n%s", tl)
	}
	lines := strings.Split(strings.TrimSpace(tl), "\n")
	if len(lines) != 1+cfg.PIM.Ranks {
		t.Errorf("%d lines, want header + %d ranks", len(lines), cfg.PIM.Ranks)
	}
	if empty := (&Report{}).Timeline(40); !strings.Contains(empty, "empty") {
		t.Errorf("empty report timeline: %q", empty)
	}
}

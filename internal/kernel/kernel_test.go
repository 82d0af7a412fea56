package kernel

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"pimnw/internal/core"
	"pimnw/internal/pim"
	"pimnw/internal/seq"
)

func testConfig(traceback bool) Config {
	return Config{
		Geometry:  DefaultGeometry(),
		Band:      128,
		Params:    core.DefaultParams(),
		Costs:     pim.Asm,
		Traceback: traceback,
		PIM:       pim.DefaultConfig(),
	}
}

func TestDefaultGeometry(t *testing.T) {
	g := DefaultGeometry()
	if g.Pools != 6 || g.TaskletsPerPool != 4 || g.Tasklets() != 24 {
		t.Errorf("default geometry %+v", g)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(true).Validate(); err != nil {
		t.Fatalf("paper geometry rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Geometry.Pools = 0 },
		func(c *Config) { c.Geometry = Geometry{13, 2} }, // 26 > 24 tasklets
		func(c *Config) { c.Band = 1 },
		func(c *Config) { c.Band = 127 },
		func(c *Config) { c.Params.Match = 0 },
		func(c *Config) { c.Costs.CellScore = 0 },
		func(c *Config) { c.PIM.Ranks = 0 },
	}
	for i, mutate := range bad {
		c := testConfig(true)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestAlignmentLevelParallelismCannotFillPipeline(t *testing.T) {
	// §4.2.3: strategy (1) — one alignment per tasklet — runs out of WRAM
	// before reaching the ≥11 tasklets needed for full pipeline usage,
	// which is why the paper uses pooled tasklets.
	feasible := 0
	for tasklets := 1; tasklets <= pim.MaxTasklets; tasklets++ {
		c := testConfig(true)
		c.Geometry = Geometry{Pools: tasklets, TaskletsPerPool: 1}
		if c.Validate() == nil {
			feasible = tasklets
		}
	}
	if feasible >= pim.PipelineReentry {
		t.Errorf("strategy-1 fits %d tasklets; the WRAM budget should cap it below %d",
			feasible, pim.PipelineReentry)
	}
	if feasible < 6 {
		t.Errorf("strategy-1 caps at %d tasklets; expected ~8-10 per the paper", feasible)
	}
	// The hybrid 6x4 geometry must fit.
	if err := testConfig(true).Validate(); err != nil {
		t.Errorf("hybrid geometry rejected: %v", err)
	}
}

func TestStagePairRoundTrip(t *testing.T) {
	cfg := testConfig(false)
	d := cfg.PIM.NewDPU(0)
	rng := rand.New(rand.NewSource(1))
	a, b := seq.Random(rng, 1001), seq.Random(rng, 997)
	pair, err := StagePair(d, 7, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if pair.ID != 7 || pair.ALen != 1001 || pair.BLen != 997 {
		t.Errorf("pair = %+v", pair)
	}
	if !loadSeq(nil, d, pair.AOff, pair.ALen).Equal(a) {
		t.Error("query corrupted through MRAM staging")
	}
	if !loadSeq(nil, d, pair.BOff, pair.BLen).Equal(b) {
		t.Error("target corrupted through MRAM staging")
	}
}

func TestPairWorkload(t *testing.T) {
	p := Pair{ALen: 1000, BLen: 500}
	if got := p.Workload(128); got != 1500*128 {
		t.Errorf("workload = %d", got)
	}
}

func stageBatch(t *testing.T, d *pim.DPU, n, length int, err float64, seed int64) []Pair {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]Pair, 0, n)
	for i := 0; i < n; i++ {
		a := seq.Random(rng, length+rng.Intn(length/4+1))
		b := seq.UniformErrors(err).Apply(rng, a)
		p, errS := StagePair(d, i, a, b)
		if errS != nil {
			t.Fatal(errS)
		}
		pairs = append(pairs, p)
	}
	return pairs
}

func TestRunMatchesReferenceAligner(t *testing.T) {
	cfg := testConfig(true)
	d := cfg.PIM.NewDPU(0)
	pairs := stageBatch(t, d, 13, 400, 0.1, 2)
	out, err := Run(d, cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(pairs) {
		t.Fatalf("%d results for %d pairs", len(out.Results), len(pairs))
	}
	byID := map[int]PairResult{}
	for _, r := range out.Results {
		byID[r.ID] = r
	}
	for _, p := range pairs {
		r, ok := byID[p.ID]
		if !ok {
			t.Fatalf("pair %d missing from results", p.ID)
		}
		a := loadSeq(nil, d, p.AOff, p.ALen)
		b := loadSeq(nil, d, p.BOff, p.BLen)
		want := core.AdaptiveBandAlign(a, b, cfg.Params, cfg.Band)
		if r.Score != want.Score || r.InBand != want.InBand {
			t.Errorf("pair %d: kernel %d/%v, reference %d/%v", p.ID, r.Score, r.InBand, want.Score, want.InBand)
		}
		if string(r.Cigar) != want.Cigar.String() {
			t.Errorf("pair %d: cigar mismatch", p.ID)
		}
	}
}

func TestRunScoreOnlyOmitsCigar(t *testing.T) {
	cfg := testConfig(false)
	d := cfg.PIM.NewDPU(0)
	pairs := stageBatch(t, d, 6, 300, 0.08, 3)
	out, err := Run(d, cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Results {
		if r.Cigar != nil {
			t.Errorf("pair %d: score-only kernel produced a cigar", r.ID)
		}
		if r.Score <= core.NegInf/2 {
			t.Errorf("pair %d: unexpected band failure", r.ID)
		}
	}
}

func TestRunPipelineUtilization(t *testing.T) {
	// The paper reports 95-99% utilisation at 6x4 across datasets.
	cfg := testConfig(true)
	d := cfg.PIM.NewDPU(0)
	pairs := stageBatch(t, d, 12, 800, 0.1, 4)
	out, err := Run(d, cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if u := out.Stats.Utilization(); u < 0.90 || u > 1.0 {
		t.Errorf("6x4 utilization = %.3f, want ~0.95-0.99", u)
	}

	// A single 4-tasklet pool cannot exceed 4/11.
	cfg.Geometry = Geometry{Pools: 1, TaskletsPerPool: 4}
	d2 := cfg.PIM.NewDPU(1)
	pairs2 := stageBatch(t, d2, 12, 800, 0.1, 4)
	out2, err := Run(d2, cfg, pairs2)
	if err != nil {
		t.Fatal(err)
	}
	if u := out2.Stats.Utilization(); u > 4.0/11+0.02 {
		t.Errorf("1x4 utilization = %.3f, cannot exceed %v", u, 4.0/11)
	}
	if out2.Stats.Cycles <= out.Stats.Cycles {
		t.Error("under-threaded geometry should be slower")
	}
}

func TestRunAsmFasterThanPureC(t *testing.T) {
	base := testConfig(true)
	dAsm := base.PIM.NewDPU(0)
	pairsAsm := stageBatch(t, dAsm, 8, 600, 0.1, 5)
	outAsm, err := Run(dAsm, base, pairsAsm)
	if err != nil {
		t.Fatal(err)
	}
	cfgC := base
	cfgC.Costs = pim.PureC
	dC := cfgC.PIM.NewDPU(1)
	pairsC := stageBatch(t, dC, 8, 600, 0.1, 5)
	outC, err := Run(dC, cfgC, pairsC)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(outC.Stats.Cycles) / float64(outAsm.Stats.Cycles)
	if speedup < 1.3 || speedup > 1.8 {
		t.Errorf("asm speedup = %.2f, want in the Table 7 range (1.36-1.69)", speedup)
	}
}

func TestRunMRAMOverflowDetected(t *testing.T) {
	cfg := testConfig(true)
	cfg.PIM.MRAM = 1 << 16 // a 64 KB bank cannot hold the BT structure
	d := cfg.PIM.NewDPU(0)
	rng := rand.New(rand.NewSource(6))
	a := seq.Random(rng, 2000)
	b := seq.UniformErrors(0.05).Apply(rng, a)
	pair, err := StagePair(d, 0, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(d, cfg, []Pair{pair}); err == nil {
		t.Error("BT structure larger than MRAM accepted")
	}
}

func TestRunEmptyBatch(t *testing.T) {
	cfg := testConfig(true)
	d := cfg.PIM.NewDPU(0)
	out, err := Run(d, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 0 {
		t.Error("results from empty batch")
	}
}

func TestRunLoadBalancesPools(t *testing.T) {
	// With many equal pairs, LPT should spread them evenly: the DPU time
	// should be far below P times a single pool's share.
	cfg := testConfig(false)
	cfg.Geometry = Geometry{Pools: 4, TaskletsPerPool: 4}
	d := cfg.PIM.NewDPU(0)
	pairs := stageBatch(t, d, 16, 500, 0.05, 7)
	out, err := Run(d, cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	// All pools busy: utilization close to min(16/11,1).
	if u := out.Stats.Utilization(); u < 0.85 {
		t.Errorf("utilization %.3f suggests pools were starved", u)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := testConfig(true)
	run := func() (int64, []PairResult) {
		d := cfg.PIM.NewDPU(0)
		pairs := stageBatch(t, d, 5, 300, 0.1, 8)
		out, err := Run(d, cfg, pairs)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(out.Results, func(i, j int) bool { return out.Results[i].ID < out.Results[j].ID })
		return out.Stats.Cycles, out.Results
	}
	c1, r1 := run()
	c2, r2 := run()
	if c1 != c2 {
		t.Errorf("cycles differ: %d vs %d", c1, c2)
	}
	for i := range r1 {
		if r1[i].Score != r2[i].Score || string(r1[i].Cigar) != string(r2[i].Cigar) {
			t.Errorf("result %d differs between runs", i)
		}
	}
}

func TestPoolWRAMBudgetShape(t *testing.T) {
	// Traceback kernels need the BT flush buffers; score-only kernels can
	// fit the same geometry in less WRAM.
	if poolWRAM(128, true, 64) <= poolWRAM(128, false, 64) {
		t.Error("traceback pool should cost more WRAM")
	}
	// Budget grows linearly with the band.
	if poolWRAM(256, true, 64)-poolWRAM(128, true, 64) != 4*4*128 {
		t.Error("band scaling of the pool working set is wrong")
	}
	// Narrow lanes halve the per-cell cost of the working set, which is
	// what lets FitGeometry admit wider bands at the same pool count.
	if poolWRAM(256, false, 64)-poolWRAM(256, false, 16) != 4*2*256 {
		t.Error("narrow lanes should halve the lane bytes")
	}
}

func TestWideBandRejectedAtPaperGeometry(t *testing.T) {
	// §3.3/§4.2.1: the WRAM working set scales with the band; at the 6x4
	// geometry a 512-cell traceback band no longer fits the 64 KB
	// scratchpad, while the score-only kernel still does at 256.
	cfg := testConfig(true)
	cfg.Band = 512
	if err := cfg.Validate(); err == nil {
		t.Error("6x4 traceback kernel at band 512 should overflow WRAM")
	}
	cfg = testConfig(false)
	cfg.Band = 256
	if err := cfg.Validate(); err != nil {
		t.Errorf("6x4 score-only kernel at band 256 rejected: %v", err)
	}
}

func TestMRAMPeakReported(t *testing.T) {
	cfg := testConfig(true)
	d := cfg.PIM.NewDPU(0)
	pairs := stageBatch(t, d, 6, 400, 0.08, 11)
	out, err := Run(d, cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if out.MRAMPeak <= d.MRAM.Used() {
		t.Errorf("peak %d should exceed staged bytes %d (BT scratch)", out.MRAMPeak, d.MRAM.Used())
	}
	if out.MRAMPeak > cfg.PIM.MRAM {
		t.Errorf("peak %d beyond capacity yet Run succeeded", out.MRAMPeak)
	}
}

func TestScoreOnlyCheaperThanTraceback(t *testing.T) {
	run := func(tb bool) int64 {
		cfg := testConfig(tb)
		d := cfg.PIM.NewDPU(0)
		pairs := stageBatch(t, d, 8, 500, 0.08, 12)
		out, err := Run(d, cfg, pairs)
		if err != nil {
			t.Fatal(err)
		}
		return out.Stats.Cycles
	}
	score, tb := run(false), run(true)
	if score >= tb {
		t.Errorf("score-only %d cycles not cheaper than traceback %d", score, tb)
	}
	// The gap is the Table 7 16S-vs-others mechanism: roughly the
	// CellTB/CellScore ratio plus the traceback walk.
	if ratio := float64(tb) / float64(score); ratio < 1.1 || ratio > 2.5 {
		t.Errorf("traceback/score cycle ratio %.2f implausible", ratio)
	}
}

func TestFitGeometryTradesPoolsForBand(t *testing.T) {
	cfg := testConfig(true)
	// The paper geometry admits the default band as-is.
	if g, ok := FitGeometry(cfg, cfg.Band, true); !ok || g != cfg.Geometry {
		t.Fatalf("FitGeometry(%d) = %+v, %v; want unchanged %+v", cfg.Band, g, ok, cfg.Geometry)
	}
	// Wider bands must shrink the pool count, never the pool shape, and the
	// result must pass the WRAM admission check it claims to satisfy.
	prevPools := cfg.Geometry.Pools + 1
	grew := false
	for band := cfg.Band * 2; band <= 2048; band *= 2 {
		g, ok := FitGeometry(cfg, band, true)
		if !ok {
			break
		}
		grew = true
		if g.TaskletsPerPool != cfg.Geometry.TaskletsPerPool {
			t.Fatalf("band %d: pool shape changed to %+v", band, g)
		}
		if g.Pools > prevPools {
			t.Fatalf("band %d: pools grew from %d to %d", band, prevPools, g.Pools)
		}
		prevPools = g.Pools
		c := cfg
		c.Geometry, c.Band = g, band
		if err := c.Validate(); err != nil {
			t.Fatalf("band %d: admitted geometry %+v fails validation: %v", band, g, err)
		}
	}
	if !grew {
		t.Fatal("no band beyond the default was admissible; ladder would be empty")
	}
	// Some band is too wide for even one pool.
	if _, ok := FitGeometry(cfg, 1<<20, true); ok {
		t.Fatal("absurd band admitted")
	}
}

func TestFitsMRAM(t *testing.T) {
	p := pim.DefaultConfig()
	if !FitsMRAM(p, 10000, 10000, 1024, true) {
		t.Error("routine long-read pair rejected")
	}
	// BT scratch dominates: (m+n+1)*band/2 bytes must exceed 64 MB here.
	if FitsMRAM(p, 80_000_000, 80_000_000, 1024, true) {
		t.Error("BT scratch beyond the MRAM bank accepted")
	}
	// The same monster pair is fine score-only (no BT).
	if !FitsMRAM(p, 80_000_000, 80_000_000, 1024, false) {
		t.Error("score-only admission should ignore BT scratch")
	}
}

// TestRunReusedDPUMatchesFresh stages long pairs, then shorter ones over
// the stale bank of the same DPU after Reset: results, stats, MRAM peak
// and checksum must equal a fresh DPU's. seq.PackInto ORs bases into its
// window, so this holds only while it zeroes the window first.
func TestRunReusedDPUMatchesFresh(t *testing.T) {
	for _, tb := range []bool{true, false} {
		cfg := testConfig(tb)
		d := cfg.PIM.NewDPU(0)
		if _, err := Run(d, cfg, stageBatch(t, d, 9, 1200, 0.08, 31)); err != nil {
			t.Fatal(err)
		}
		d.Reset(5)
		got, err := Run(d, cfg, stageBatch(t, d, 7, 301, 0.08, 32))
		if err != nil {
			t.Fatal(err)
		}
		fresh := cfg.PIM.NewDPU(5)
		want, err := Run(fresh, cfg, stageBatch(t, fresh, 7, 301, 0.08, 32))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("traceback=%v: reused DPU gave %+v, fresh DPU %+v", tb, got.Stats, want.Stats)
		}
	}
}

// TestRunConcurrentLaunches runs launches of different shapes from several
// goroutines at once, so recycled launch state passes between them: every
// outcome must equal the same launch run alone.
func TestRunConcurrentLaunches(t *testing.T) {
	cfg := testConfig(true)
	type job struct {
		d     *pim.DPU
		pairs []Pair
		want  DPUOutcome
	}
	jobs := make([]job, 8)
	for i := range jobs {
		d := cfg.PIM.NewDPU(i)
		pairs := stageBatch(t, d, 1+i%4, 200+150*i, 0.06, int64(40+i))
		want, err := Run(d, cfg, pairs)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{d, pairs, want}
	}
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got, err := Run(j.d, cfg, j.pairs)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, j.want) {
					t.Errorf("DPU %d: concurrent launch differs from the launch run alone", j.d.ID)
					return
				}
			}
		}(jobs[i])
	}
	wg.Wait()
}

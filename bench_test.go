package pimnw_test

// One benchmark per table and figure of the paper's evaluation (§5), each
// regenerating the corresponding experiment at Quick scale, plus
// micro-benchmarks of the load-bearing kernels. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks report the end-to-end cost of rebuilding a
// table; the kernel benchmarks report cell throughput.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"testing"

	"pimnw/internal/baseline"
	"pimnw/internal/cache"
	"pimnw/internal/core"
	"pimnw/internal/host"
	"pimnw/internal/kernel"
	"pimnw/internal/obs"
	"pimnw/internal/pim"
	"pimnw/internal/seq"
	"pimnw/internal/xp"
)

func benchTable(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := xp.NewRunner(xp.Options{Quick: true})
		if _, err := r.Table(id); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 1: accuracy of static vs adaptive bands.
func BenchmarkTable1Accuracy(b *testing.B) { benchTable(b, "1") }

// Tables 2-4: synthetic dataset runtimes (calibrate + project).
func BenchmarkTable2S1000(b *testing.B)  { benchTable(b, "2") }
func BenchmarkTable3S10000(b *testing.B) { benchTable(b, "3") }
func BenchmarkTable4S30000(b *testing.B) { benchTable(b, "4") }

// Table 5: 16S all-against-all broadcast mode.
func BenchmarkTable5RRNA16S(b *testing.B) { benchTable(b, "5") }

// Table 6: PacBio consensus sets.
func BenchmarkTable6PacBio(b *testing.B) { benchTable(b, "6") }

// Table 7: asm vs pure-C kernel cost tables.
func BenchmarkTable7AsmVsC(b *testing.B) { benchTable(b, "7") }

// Table 8: energy model.
func BenchmarkTable8Energy(b *testing.B) { benchTable(b, "8") }

// §5 text: pipeline utilisation / host overhead.
func BenchmarkUtilizationTable(b *testing.B) { benchTable(b, "utilization") }

// §4.2.3 ablation: pool geometry sweep.
func BenchmarkAblationGeometry(b *testing.B) { benchTable(b, "ablation") }

// Figure 1: a short exact alignment with traceback.
func BenchmarkFig1ExactAlign(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := seq.Random(rng, 500)
	q := seq.UniformErrors(0.08).Apply(rng, a)
	p := core.DefaultParams()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.GotohAlign(a, q, p)
	}
}

// Figure 3: the adaptive window trajectory.
func BenchmarkFig3AdaptivePath(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := seq.Random(rng, 5000)
	q := seq.UniformErrors(0.08).Apply(rng, a)
	p := core.DefaultParams()
	for i := 0; i < b.N; i++ {
		core.AdaptiveBandPath(a, q, p, 128)
	}
}

// --- kernel micro-benchmarks ---

func benchPair(n int) (seq.Seq, seq.Seq) {
	rng := rand.New(rand.NewSource(int64(n)))
	a := seq.Random(rng, n)
	return a, seq.UniformErrors(0.05).Apply(rng, a)
}

func BenchmarkAdaptiveBandScore10k(b *testing.B) {
	a, q := benchPair(10_000)
	p := core.DefaultParams()
	b.SetBytes(int64(len(a) + len(q)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.AdaptiveBandScore(a, q, p, 128)
	}
}

// The two score engines pinned individually: AdaptiveBandScore10k above
// measures whatever the lane-width dispatch picks, so a regression in one
// engine could hide behind the other. These two keep the 16-bit
// saturating engine and the full-width recurrence separately in the
// baseline, and their ratio is the measured narrow-lane speedup.
func BenchmarkAdaptiveBandScoreNarrow10k(b *testing.B) {
	a, q := benchPair(10_000)
	p := core.DefaultParams()
	b.SetBytes(int64(len(a) + len(q)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := core.AdaptiveBandScoreNarrow(a, q, p, 128); res.Overflowed {
			b.Fatal("narrow engine overflowed on the benchmark pair")
		}
	}
}

func BenchmarkAdaptiveBandScoreWide10k(b *testing.B) {
	a, q := benchPair(10_000)
	p := core.DefaultParams()
	b.SetBytes(int64(len(a) + len(q)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.AdaptiveBandScoreWide(a, q, p, 128)
	}
}

func BenchmarkAdaptiveBandAlign10k(b *testing.B) {
	a, q := benchPair(10_000)
	p := core.DefaultParams()
	b.SetBytes(int64(len(a) + len(q)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.AdaptiveBandAlign(a, q, p, 128)
	}
}

// The serving shape: one s1000_bulk pair (1 kb, 5 % errors, band 128,
// traceback) on a held, warmed scratch arena, as a kernel worker runs it.
// Its 240 509 cells are under a tenth of the 10 kb pair's, and about 13 %
// of its anti-diagonals are corners, where the span opens or closes and
// flanks and edge words dominate; benchgate bounds its ns/op against
// AdaptiveBandAlign10k's, so the per-cell cost of the short pair cannot
// drift away from the long one's.
func BenchmarkAdaptiveBandAlign1k(b *testing.B) {
	a, q := benchPair(1000)
	p := core.DefaultParams()
	s := core.NewScratch()
	s.AdaptiveBandAlign(a, q, p, 128) // warm the arena
	b.SetBytes(int64(len(a) + len(q)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AdaptiveBandAlign(a, q, p, 128)
	}
}

// The traceback twin of the pinned score engines: AdaptiveBandAlign10k
// above measures the narrow-first dispatch, this one the full-width engine
// it falls back to (and -lanes 64 pins). Their ratio is the measured
// narrow-lane traceback speedup.
func BenchmarkAdaptiveBandAlignWide10k(b *testing.B) {
	a, q := benchPair(10_000)
	p := core.DefaultParams()
	b.SetBytes(int64(len(a) + len(q)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.AdaptiveBandAlignWide(a, q, p, 128)
	}
}

// Band sweep of the default (narrow-first) engine: per-band cell throughput
// and the zero-allocation steady state, on a held scratch arena as the
// kernel and baseline workers use it. ns/op scales ~linearly with w; the
// allocs/op column is the regression tripwire ci.sh gates on.
func benchAdaptiveSweep(b *testing.B, traceback bool) {
	a, q := benchPair(4000)
	p := core.DefaultParams()
	for _, w := range []int{32, 64, 128, 256, 512} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			s := core.NewScratch()
			if traceback {
				s.AdaptiveBandAlign(a, q, p, w) // warm the arena
			} else {
				s.AdaptiveBandScore(a, q, p, w)
			}
			b.SetBytes(int64(len(a) + len(q)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if traceback {
					s.AdaptiveBandAlign(a, q, p, w)
				} else {
					s.AdaptiveBandScore(a, q, p, w)
				}
			}
		})
	}
}

func BenchmarkAdaptiveBandScore(b *testing.B) { benchAdaptiveSweep(b, false) }
func BenchmarkAdaptiveBandAlign(b *testing.B) { benchAdaptiveSweep(b, true) }

func BenchmarkStaticBandScore10k(b *testing.B) {
	a, q := benchPair(10_000)
	p := core.DefaultParams()
	b.SetBytes(int64(len(a) + len(q)))
	for i := 0; i < b.N; i++ {
		core.StaticBandScore(a, q, p, 256)
	}
}

func BenchmarkGotohFullScore2k(b *testing.B) {
	a, q := benchPair(2000)
	p := core.DefaultParams()
	for i := 0; i < b.N; i++ {
		core.GotohScore(a, q, p)
	}
}

func BenchmarkCPUBaselineBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pairs := make([]baseline.Pair, 32)
	for i := range pairs {
		a := seq.Random(rng, 2000)
		pairs[i] = baseline.Pair{ID: i, A: a, B: seq.UniformErrors(0.05).Apply(rng, a)}
	}
	opts := baseline.Options{Params: core.DefaultParams(), Band: 256}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Run(opts, pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPUKernelBatch prices one kernel launch of 12 1 kb traceback
// pairs. The pairs are drawn once and staged per iteration on one DPU,
// Reset between launches as the host's launch site reuses its DPUs, so
// every iteration does the same work: alloc-gated.
func BenchmarkDPUKernelBatch(b *testing.B) {
	kcfg := kernel.Config{
		Geometry:  kernel.DefaultGeometry(),
		Band:      128,
		Params:    core.DefaultParams(),
		Costs:     pim.Asm,
		Traceback: true,
		PIM:       pim.DefaultConfig(),
	}
	rng := rand.New(rand.NewSource(4))
	seqs := make([][2]seq.Seq, 12)
	for j := range seqs {
		a := seq.Random(rng, 1000)
		seqs[j] = [2]seq.Seq{a, seq.UniformErrors(0.05).Apply(rng, a)}
	}
	d := kcfg.PIM.NewDPU(0)
	pairs := make([]kernel.Pair, len(seqs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d.Reset(0)
		for j, s := range seqs {
			sp, err := kernel.StagePair(d, j, s[0], s[1])
			if err != nil {
				b.Fatal(err)
			}
			pairs[j] = sp
		}
		b.StartTimer()
		if _, err := kernel.Run(d, kcfg, pairs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHostAlignPairs(b *testing.B) {
	pimCfg := pim.DefaultConfig()
	pimCfg.Ranks = 2
	cfg := host.Config{
		PIM: pimCfg,
		Kernel: kernel.Config{
			Geometry:  kernel.DefaultGeometry(),
			Band:      64,
			Params:    core.DefaultParams(),
			Costs:     pim.Asm,
			Traceback: true,
			PIM:       pimCfg,
		},
	}
	rng := rand.New(rand.NewSource(5))
	pairs := make([]host.Pair, 64)
	for i := range pairs {
		a := seq.Random(rng, 500)
		pairs[i] = host.Pair{ID: i, A: a, B: seq.UniformErrors(0.05).Apply(rng, a)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := host.AlignPairs(cfg, pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostEscalation prices the result-integrity fallback loop: an
// indel-heavy pair set at a deliberately narrow initial band, so the run
// exercises clip detection, several ladder rounds and host-side CIGAR
// validation rather than the happy path.
func BenchmarkHostEscalation(b *testing.B) {
	// go test folds the binary's stderr into the bench output stream; the
	// ladder's per-round progress lines would split the result line that
	// cmd/benchgate parses.
	obs.SetLogOutput(io.Discard)
	defer obs.SetLogOutput(os.Stderr)
	pimCfg := pim.DefaultConfig()
	pimCfg.Ranks = 2
	cfg := host.Config{
		PIM: pimCfg,
		Kernel: kernel.Config{
			Geometry:  kernel.DefaultGeometry(),
			Band:      16,
			Params:    core.DefaultParams(),
			Costs:     pim.Asm,
			Traceback: true,
			PIM:       pimCfg,
		},
		Escalate: true,
		MaxBand:  256,
		Verify:   true,
	}
	rng := rand.New(rand.NewSource(8))
	mut := seq.Mutator{
		SubRate: 0.02, InsRate: 0.03, DelRate: 0.03, IndelExt: 0.6,
		BigGapRate: 0.004, BigGapMin: 16, BigGapMax: 48,
	}
	pairs := make([]host.Pair, 32)
	for i := range pairs {
		a := seq.Random(rng, 500)
		pairs[i] = host.Pair{ID: i, A: a, B: mut.Apply(rng, a)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, _, err := host.AlignPairs(cfg, pairs)
		if err != nil {
			b.Fatal(err)
		}
		if rep.EscalationRounds == 0 {
			b.Fatal("escalation benchmark never escalated")
		}
	}
}

// BenchmarkLPT prices the per-batch assignment step on a full serving
// micro-batch spread over a rank's 64 DPUs: the heap-based min-scan
// (ISSUE 5) runs in O(n log d) against the old O(n·d) linear scan.
func BenchmarkLPT(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	loads := make([]int64, 4096)
	for i := range loads {
		loads[i] = 1 + rng.Int63n(1_000_000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host.LPTAssign(loads, 64)
	}
}

// BenchmarkPlacement prices the cost-model-driven backend placement step
// on a full micro-batch spread over a heterogeneous fleet: weighted LPT
// over per-backend seconds-per-unit rates, run once per micro-batch on
// the serving path. Alloc-gated — the bucket slices are the only
// allowed allocations.
func BenchmarkPlacement(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	loads := make([]int64, 4096)
	for i := range loads {
		loads[i] = 1 + rng.Int63n(1_000_000)
	}
	// A heterogeneous 4-backend fleet: two full-rate PiM servers, one at
	// a slower clock, one CPU pool an order of magnitude behind.
	secPerUnit := []float64{1.0, 1.0, 1.5, 12.0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		host.PlacementAssign(loads, secPerUnit)
	}
}

func BenchmarkFluidSimulator(b *testing.B) {
	run, _ := pim.NewDPURun(24)
	for _, tr := range run.Traces {
		for s := 0; s < 100; s++ {
			tr.Exec(5000)
			tr.DMARead(1024)
			tr.Barrier(1)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pim.FluidSimulate(run); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFluidSimulatorServing prices the simulator on s1000_bulk's
// serving shape: a 64-pair micro-batch over 40 ranks leaves one 1 kb
// traceback pair per DPU, so one pool of the 6×4 geometry is busy and the
// other 20 tasklets boot idle. The traces follow the kernel's at band 128
// under the asm cost table: 16-step BT-flush intervals of the DP phase,
// then the master's streamed traceback. Alloc-gated: a reused run
// simulates without allocating.
func BenchmarkFluidSimulatorServing(b *testing.B) {
	const steps, band, rowBytes, cigarBytes = 2000, 128, 64, 160
	c := pim.Asm
	run, _ := pim.NewDPURun(kernel.DefaultGeometry().Tasklets())
	pool := run.Traces[:kernel.DefaultGeometry().TaskletsPerPool]
	master := pool[0]
	master.Exec(c.AlignSetup)
	for s := 0; s < steps; s += 16 {
		for _, tr := range pool {
			tr.Exec(16*band/int64(len(pool))*c.CellTB + 16*c.StepTasklet)
		}
		master.Exec(16 * c.StepMaster)
		master.DMARead(8)
		master.DMAWrite(16 * rowBytes)
		for _, tr := range pool {
			tr.Barrier(0)
		}
	}
	for bt := int64((steps + 1) * rowBytes); bt > 0; bt -= pim.DMAMaxBytes {
		master.DMARead(min(bt, pim.DMAMaxBytes))
		master.Exec(cigarBytes * pim.DMAMaxBytes / ((steps + 1) * rowBytes) * c.TracebackCol)
	}
	master.DMAWrite(16 + cigarBytes)
	for _, tr := range pool {
		tr.Barrier(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pim.FluidSimulate(run); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactSimulator(b *testing.B) {
	run, _ := pim.NewDPURun(16)
	for _, tr := range run.Traces {
		tr.Exec(2000)
		tr.DMARead(512)
		tr.Exec(2000)
		tr.Barrier(1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pim.ExactSimulate(run); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheHit10k measures the full serving-path cache hit: digest
// both operands, derive the content-addressed key, and look it up in the
// hot tier — the work a duplicate submission costs instead of a kernel
// dispatch. The lookup is alloc-gated: a hit must not allocate.
func BenchmarkCacheHit10k(b *testing.B) {
	c, err := cache.Open(cache.Options{
		Dir: b.TempDir(), Fsync: cache.FsyncNever, HotEntries: 1 << 14,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(99))
	const n = 10_000
	type pair struct{ a, bs seq.Seq }
	pairs := make([]pair, n)
	params := core.DefaultParams()
	for i := range pairs {
		a := seq.Random(rng, 200)
		bs := seq.UniformErrors(0.05).Apply(rng, a)
		pairs[i] = pair{a, bs}
		k := cache.Key{
			A: seq.DigestSeq(a), B: seq.DigestSeq(bs),
			Params: params, Band: 128, Lanes: 64,
		}
		v := cache.Value{Score: int32(i), InBand: true, Status: "ok", Provenance: "pim"}
		if err := c.Insert(k, v); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%n]
		k := cache.Key{
			A: seq.DigestSeq(p.a), B: seq.DigestSeq(p.bs),
			Params: params, Band: 128, Lanes: 64,
		}
		if _, ok := c.Lookup(k); !ok {
			b.Fatal("miss on an inserted key")
		}
	}
}

// BenchmarkWALAppend measures one cache insert — frame encode, checksum,
// WAL append, index update — with fsync off, so the number is the CPU
// cost of the durable path, not the disk's.
func BenchmarkWALAppend(b *testing.B) {
	c, err := cache.Open(cache.Options{
		Dir: b.TempDir(), Fsync: cache.FsyncNever,
		MaxEntries: 1 << 30, HotEntries: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	k := cache.Key{
		A:      seq.Digest{Hi: 0x1111, Lo: 0},
		B:      seq.Digest{Hi: 0x2222, Lo: 0x3333},
		Params: core.DefaultParams(), Band: 128, Lanes: 64,
	}
	v := cache.Value{Score: 1234, InBand: true, Status: "ok", Provenance: "pim", Cigar: []byte("120M1D79M")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.A.Lo = uint64(i) // every record unique: appends, never overwrites
		if err := c.Insert(k, v); err != nil {
			b.Fatal(err)
		}
	}
}

func Benchmark2BitPacking(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	s := seq.Random(rng, 100_000)
	dst := make([]byte, seq.PackedSize(len(s)))
	b.SetBytes(int64(len(s)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq.PackInto(dst, s)
	}
}

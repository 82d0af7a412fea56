// Command pimalign aligns pairs of DNA sequences with the paper's
// adaptive banded Needleman & Wunsch, either on the simulated UPMEM PiM
// system (host + DPU kernel, with a timing report) or on the CPU baseline.
//
// Input: two FASTA files of equal record counts; record i of the first is
// aligned against record i of the second. Output: one line per pair with
// the score and (unless -score-only) the CIGAR. With -mode allpairs the
// input is one FASTA file and the pair list is every record against every
// later one, score-only (§5.3's all-against-all); everything below applies
// to it unchanged, because it is the same run on a different pair list.
//
// Usage:
//
//	pimalign -a queries.fa -b targets.fa [-engine pim|cpu] [-band 128]
//	         [-mode pairs|allpairs]
//	         [-static] [-ranks 40] [-score-only] [-threads N] [-v]
//	         [-escalation] [-max-band W] [-verify] [-cache-dir DIR]
//	         [-metrics FILE] [-trace-out FILE] [-report-json FILE]
//	         [-fault-rate P] [-fault-seed N] [-max-retries N]
//	         [-batch-deadline SEC] [-cpuprofile FILE] [-memprofile FILE]
//
// Profiling: -cpuprofile writes a pprof CPU profile covering the whole
// run; -memprofile writes a heap profile snapshotted (post-GC) at exit.
// Inspect with `go tool pprof`.
//
// Observability (pim engine): -metrics dumps a Prometheus-text snapshot
// of the run's counters/histograms, -trace-out writes a Chrome
// trace-event JSON file (open in Perfetto or chrome://tracing) combining
// the modelled rank timeline with the host's wall-clock pipeline spans,
// and -report-json writes the machine-readable run report. "-" writes to
// stdout.
//
// Result integrity (pim engine): -escalation re-dispatches
// clipped or out-of-band pairs at doubled band widths up to -max-band,
// degrading to score-only kernels and finally the exact CPU baseline, so
// every pair returns a trusted score with a provenance label. -verify
// re-derives each traceback result's score from its CIGAR on the host and
// treats mismatches as detected corruption (redispatched like a transfer
// fault).
//
// Fault injection (pim engine): -fault-rate injects
// deterministic per-DPU faults (stalls, slowdowns, crashes, transfer
// corruptions) at the given probability, seeded by -fault-seed; the host
// recovers by redispatching failed DPUs' pairs onto survivors, up to
// -max-retries attempts per batch. -batch-deadline bounds each attempt in
// modelled seconds so stalled DPUs are detected rather than waited out.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"pimnw/internal/baseline"
	"pimnw/internal/cache"
	"pimnw/internal/core"
	"pimnw/internal/host"
	"pimnw/internal/obs"
	"pimnw/internal/seq"
)

func main() {
	obs.SetLogPrefix("pimalign")
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pimalign:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var opts host.Options
	opts.Bind(fs) // -lanes -fleet -fault-* -max-retries -batch-deadline -escalation -max-band -verify
	fs.IntVar(&opts.Band, "band", 128, "band size (cells per anti-diagonal / row)")
	fs.IntVar(&opts.Ranks, "ranks", 40, "PiM ranks (pim engine)")
	fs.BoolVar(&opts.ScoreOnly, "score-only", false, "skip traceback/CIGAR")
	var cli obs.CLI
	cli.Bind(fs) // -v -log-json -metrics -trace-out -report-json -cpuprofile -memprofile
	var (
		aPath    = fs.String("a", "", "FASTA file of query sequences")
		bPath    = fs.String("b", "", "FASTA file of target sequences (omit with -mode allpairs)")
		mode     = fs.String("mode", "pairs", "pairs (record i of -a vs record i of -b) or allpairs (every record of -a against every later one, score-only, as in §5.3)")
		engine   = fs.String("engine", "pim", "alignment engine: pim (simulated UPMEM server) or cpu (baseline)")
		static   = fs.Bool("static", false, "use the static band instead of the adaptive one (cpu engine)")
		threads  = fs.Int("threads", 0, "CPU threads (cpu engine; 0 = all)")
		timeline = fs.Bool("timeline", false, "print the simulated rank timeline (pim engine)")
		cacheDir = fs.String("cache-dir", "", "directory for the persistent result cache (pim engine; empty = caching disabled)")
	)
	fs.Parse(args)
	if err := cli.Start(); err != nil {
		return err
	}
	defer cli.Stop()
	if *aPath == "" {
		fs.Usage()
		return fmt.Errorf("-a is required")
	}
	queries, err := readFasta(*aPath)
	if err != nil {
		return err
	}
	obs.Debugf("read %d query records from %s", len(queries), *aPath)

	var targets []seq.Record
	switch *mode {
	case "pairs":
		if *bPath == "" {
			fs.Usage()
			return fmt.Errorf("-b is required in pairs mode")
		}
		if targets, err = readFasta(*bPath); err != nil {
			return err
		}
		obs.Debugf("read %d target records from %s", len(targets), *bPath)
		if len(queries) != len(targets) {
			return fmt.Errorf("%d queries vs %d targets", len(queries), len(targets))
		}
	case "allpairs":
		// §5.3's all-against-all is a pair list like any other: pair k is
		// host.AllPairIndices' k-th comparison, run score-only.
		recs, indices := queries, host.AllPairIndices(len(queries))
		queries, targets = make([]seq.Record, len(indices)), make([]seq.Record, len(indices))
		for k, pi := range indices {
			queries[k], targets[k] = recs[pi.I], recs[pi.J]
		}
		opts.ScoreOnly = true
	default:
		return fmt.Errorf("unknown -mode %q (want pairs or allpairs)", *mode)
	}

	switch *engine {
	case "pim":
		return runPiM(queries, targets, opts, *timeline, &cli, *cacheDir)
	case "cpu":
		if cli.WantsArtifacts() {
			obs.Logf("note: -metrics/-trace-out/-report-json apply to the pim engine only")
		}
		if *cacheDir != "" {
			obs.Logf("note: -cache-dir applies to the pim engine only")
		}
		if opts.Fleet != "" {
			obs.Logf("note: -fleet applies to the pim engine only")
		}
		if opts.FaultRate > 0 {
			obs.Logf("note: -fault-rate applies to the pim engine only")
		}
		if opts.Escalation || opts.Verify {
			obs.Logf("note: -escalation/-verify apply to the pim engine only")
		}
		return runCPU(queries, targets, opts.Band, *static, *threads, !opts.ScoreOnly)
	default:
		return fmt.Errorf("unknown engine %q", *engine)
	}
}

func readFasta(path string) ([]seq.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return seq.ReadFASTA(f, nil)
}

func runPiM(queries, targets []seq.Record, opts host.Options, timeline bool, cli *obs.CLI, cacheDir string) error {
	cfg, err := opts.Config()
	if err != nil {
		return err
	}
	backends := cfg.Backends
	if len(backends) > 0 {
		parts := make([]string, len(backends))
		for i, be := range backends {
			parts[i] = fmt.Sprintf("%s (%d ranks)", be.Name(), be.Ranks())
		}
		obs.Logf("fleet placement across %d backends: %s", len(backends), strings.Join(parts, ", "))
	}
	if opts.Verify && opts.ScoreOnly {
		obs.Logf("note: -verify needs CIGARs; ignored with -score-only")
	}
	pairs := make([]host.Pair, len(queries))
	for i := range queries {
		pairs[i] = host.Pair{ID: i, A: queries[i].Seq, B: targets[i].Seq}
	}
	// The run goes through the streaming session (cache lookups happen
	// at admission); MaxBatchPairs = len(pairs) keeps the whole workload
	// one micro-batch (AlignPairsStream switches the linger clock off),
	// which is bit-identical to host.AlignPairs, report included.
	scfg := host.SessionConfig{Host: cfg, MaxBatchPairs: len(pairs)}
	if cacheDir != "" {
		c, err := cache.Open(cache.Options{Dir: cacheDir})
		if err != nil {
			return err
		}
		defer c.Close()
		scfg.Cache = c
	}
	rep, results, err := host.AlignPairsStream(context.Background(), scfg, pairs)
	if err != nil {
		return err
	}
	// Streamed in submission order, which is record order.
	for _, r := range results {
		printResult(queries[r.ID].Name, targets[r.ID].Name, r)
	}
	// In fleet mode -ranks is overridden by the per-backend spec, so the
	// summary counts the ranks that actually served.
	servedRanks := opts.Ranks
	if len(backends) > 0 {
		servedRanks = 0
		for _, be := range backends {
			servedRanks += be.Ranks()
		}
	}
	obs.Logf("%d alignments on %d simulated ranks: %.3fs modelled (%.1f%% host overhead, %.0f%% min pipeline util)",
		rep.Alignments, servedRanks, rep.MakespanSec, 100*rep.HostOverheadFraction(), 100*rep.UtilizationMin)
	for _, bs := range rep.Backends {
		note := ""
		if bs.Down {
			note = " [went down; work redispatched]"
		}
		obs.Logf("backend %s: %d pairs in %d batches, %.3fs modelled window, %d redispatched%s",
			bs.Name, bs.Pairs, bs.Batches, bs.MakespanSec, bs.Redispatched, note)
	}
	obs.Debugf("%d batches, %d cells, %d instructions, %d B in / %d B out",
		rep.Batches, rep.TotalCells, rep.TotalInstr, rep.BytesIn, rep.BytesOut)
	if cfg.Faults.Enabled() {
		obs.Logf("fault recovery: %d detected, %d retries, %d redispatches, %d pairs abandoned (%.3fs retry time)",
			rep.FaultsDetected, rep.Retries, rep.Redispatches, rep.AbandonedPairs, rep.RetrySec)
	}
	if cfg.Escalate {
		obs.Logf("escalation: %d out-of-band + %d clipped pairs, %d re-dispatches over %d rounds, %d degraded to score-only, %d to cpu-exact (%.3fs cpu fallback)",
			rep.OutOfBandPairs, rep.ClippedPairs, rep.Escalations, rep.EscalationRounds,
			rep.DegradedScoreOnly, rep.DegradedCPU, rep.CPUFallbackSec)
	}
	if cfg.Verify {
		obs.Logf("verify: %d results checked, %d mismatches", rep.VerifyChecked, rep.VerifyFailures)
	}
	if cacheDir != "" {
		obs.Logf("result cache: %d hits, %d misses, %d duplicates deduped",
			rep.CacheHits, rep.CacheMisses, rep.DedupedPairs)
	}
	if timeline {
		fmt.Fprint(os.Stderr, rep.Timeline(72))
	}
	return cli.WriteArtifacts("host (wall clock)", rep.ChromeTraceEvents, rep.WriteJSON)
}

func runCPU(queries, targets []seq.Record, band int, static bool, threads int, traceback bool) error {
	if !static {
		// The adaptive aligner is not the baseline's engine; run it
		// directly through the core API on a worker pool-free loop.
		p := core.DefaultParams()
		for i := range queries {
			var res core.Result
			if traceback {
				res = core.AdaptiveBandAlign(queries[i].Seq, targets[i].Seq, p, band)
			} else {
				res = core.AdaptiveBandScore(queries[i].Seq, targets[i].Seq, p, band)
			}
			printCPUResult(queries[i].Name, targets[i].Name, res.Score, res.InBand, res.Cigar.String())
		}
		return nil
	}
	opts := baseline.Options{Params: core.DefaultParams(), Band: band, Threads: threads, Traceback: traceback}
	pairs := make([]baseline.Pair, len(queries))
	for i := range queries {
		pairs[i] = baseline.Pair{ID: i, A: queries[i].Seq, B: targets[i].Seq}
	}
	out, err := baseline.Run(opts, pairs)
	if err != nil {
		return err
	}
	for _, r := range out.Results {
		printCPUResult(queries[r.ID].Name, targets[r.ID].Name, r.Score, r.InBand, r.Cigar.String())
	}
	obs.Logf("cpu baseline: %.3fs wall, %d cells", out.WallSeconds, out.Cells)
	return nil
}

// printResult renders one pim-engine result with its typed status: pairs
// with no usable score print FAIL plus the status name, untrusted or
// rescued pairs carry a trailing status/provenance column, and the common
// ok case stays the plain score[+CIGAR] line.
func printResult(qName, tName string, r host.Result) {
	switch r.Status {
	case host.StatusOutOfBand, host.StatusAbandoned:
		fmt.Printf("%s\t%s\tFAIL\t%s\n", qName, tName, r.Status)
		return
	}
	cols := []string{qName, tName, fmt.Sprint(r.Score)}
	if len(r.Cigar) > 0 {
		cols = append(cols, string(r.Cigar))
	}
	if r.Status != host.StatusOK {
		note := r.Status.String()
		if r.Status.Trusted() && r.Provenance != "" {
			note = r.Provenance
		}
		cols = append(cols, note)
	}
	fmt.Println(strings.Join(cols, "\t"))
}

// printCPUResult renders one cpu-engine result (no typed status there).
func printCPUResult(qName, tName string, score int32, inBand bool, cig string) {
	if !inBand {
		fmt.Printf("%s\t%s\tFAIL\tout-of-band\n", qName, tName)
		return
	}
	if cig == "" {
		fmt.Printf("%s\t%s\t%d\n", qName, tName, score)
		return
	}
	fmt.Printf("%s\t%s\t%d\t%s\n", qName, tName, score, cig)
}

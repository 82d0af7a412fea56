package host

import (
	"fmt"
	"math"
	"sync"

	"pimnw/internal/kernel"
	"pimnw/internal/obs"
	"pimnw/internal/pim"
)

// pairDescriptorBytes models the per-pair metadata transferred alongside
// the packed sequences (offsets, lengths, identifiers).
const pairDescriptorBytes = 24

// resultHeaderBytes models the fixed part of one result record.
const resultHeaderBytes = 16

// batchExec is the outcome of executing one rank-sized batch, recovery
// included. Its Counters are what the batch adds to the run's tallies;
// runBatch and runAttempt accumulate into them, and scheduleTimeline
// fills in the bus time before folding them into the report.
type batchExec struct {
	Counters
	results    []Result
	minDPUSec  float64 // fastest accepted DPU launch
	stats      pim.DPUStats
	loadedDPUs int
	utilMin    float64
	utilSum    float64
	faults     []FaultEvent // batch-relative; rebased by scheduleTimeline
}

// AlignPairs runs the paper's main-loop workflow (§4.1) over independent
// pairs: balance, dispatch, execute, collect. It returns the simulated
// timeline report and exactly one result per input pair, in input order,
// whatever the configuration. With Config.Escalate set, pairs whose
// banded result is out-of-band or clipped are walked down the
// degradation ladder (escalate.go) until every pair has a trusted
// answer; either way each result carries a typed Status and a Provenance
// label. Without escalation a pair abandoned under injected faults comes
// back as StatusAbandoned with Rank and DPU -1, and Report.Alignments
// does not count it. Pair IDs are the caller's labels, carried through
// verbatim; they may repeat.
func AlignPairs(cfg Config, pairs []Pair) (*Report, []Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if len(pairs) == 0 {
		return newReport(cfg.TraceID), nil, nil
	}
	sp := obs.StartSpan("host.align_pairs")
	sp.SetAttrInt("pairs", int64(len(pairs)))
	if cfg.TraceID != "" {
		sp.SetAttr("trace_id", cfg.TraceID)
	}
	defer sp.End()

	rep, results, err := alignBatch(cfg, pairs, sp)
	if err != nil {
		return nil, nil, err
	}
	rep.publishMetrics()
	return rep, results, nil
}

// alignBatch is the one batch path under AlignPairs and every session
// micro-batch: it computes exactly one result per pair, in input order,
// and a report. Metrics publication is left to the caller, so a session
// publishes once over its merged report.
//
// It owns pair identity. Caller IDs may repeat, so each pair runs under
// a dense ID — its index in the list handed down — and on the way out
// every result, AbandonedIDs entry and Issue is mapped back to the
// caller's ID. With cfg.Backends set the pairs are sharded across the
// fleet (fleet.go); otherwise they run on the single fabric cfg.PIM
// describes — an unnamed PiM server, so reports carry no backend names.
// An empty batch never touches the fabric, and the report says so.
func alignBatch(cfg Config, pairs []Pair, sp *obs.Span) (*Report, []Result, error) {
	if len(pairs) == 0 {
		return newReport(cfg.TraceID), nil, nil
	}
	dense := make([]Pair, len(pairs))
	for i, p := range pairs {
		dense[i] = Pair{ID: i, A: p.A, B: p.B}
	}
	var (
		rep     *Report
		results []Result
		err     error
	)
	if len(cfg.Backends) > 0 {
		rep, results, err = alignFleet(cfg, dense, sp)
	} else {
		rep, results, err = alignOnceOn(&PiMBackend{ranks: cfg.PIM.Ranks, freqMHz: cfg.PIM.FreqMHz}, cfg, dense, sp)
	}
	if err != nil {
		return nil, nil, err
	}
	for i := range results {
		results[i].ID = pairs[i].ID
	}
	rep.relabel(func(id int) int { return pairs[id].ID })
	return rep, results, nil
}

// alignOnceOn runs the complete pipeline — dispatch round, then the
// escalation ladder or the first-round classification — on one backend
// and returns one result per pair, in input order. pairs[i].ID must be i.
// Every fleet shard goes through here, so each server walks the same
// ladder the single fabric would.
func alignOnceOn(be Backend, cfg Config, pairs []Pair, sp *obs.Span) (*Report, []Result, error) {
	rep, round, err := be.Round(cfg, pairs, sp)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Escalate {
		results, err := escalate(be, cfg, pairs, rep, round, sp)
		if err != nil {
			return nil, nil, err
		}
		return rep, results, nil
	}
	// No ladder: the first-round classification is terminal.
	prov := kernelProvenance(cfg.Kernel)
	results := make([]Result, len(pairs))
	for _, r := range round {
		if !classify(rep, &r, prov) {
			rep.addIssue(PairIssue{ID: r.ID, Status: r.Status, Provenance: prov})
		}
		rep.countProvenance(prov)
		results[r.ID] = r
	}
	for _, id := range rep.AbandonedIDs {
		results[id] = Result{PairResult: kernel.PairResult{ID: id}, Rank: -1, DPU: -1, Status: StatusAbandoned}
		rep.addIssue(PairIssue{ID: id, Status: StatusAbandoned})
	}
	return rep, results, nil
}

// classify stamps a first-round result with the provenance of the engine
// that ran it and the status it earns on its own, tallies a band or
// precision failure into rep, and reports whether the answer is trusted
// as it stands.
func classify(rep *Report, r *Result, prov string) bool {
	r.Provenance = prov
	switch {
	case r.Overflowed:
		r.Status = StatusOverflowed
		rep.OverflowedPairs++
	case !r.InBand:
		r.Status = StatusOutOfBand
		rep.OutOfBandPairs++
	case r.Clipped:
		r.Status = StatusClipped
		rep.ClippedPairs++
	default:
		r.Status = StatusOK
	}
	return r.Status == StatusOK
}

// kernelProvenance names the engine a kernel config stands for.
func kernelProvenance(k kernel.Config) string {
	if k.Traceback {
		return fmt.Sprintf("dpu-banded@%d", k.Band)
	}
	if k.Lanes(k.Band, k.Traceback) == 16 {
		return fmt.Sprintf("dpu-narrow@%d", k.Band)
	}
	return fmt.Sprintf("dpu-score-only@%d", k.Band)
}

// alignPairsRound executes one dispatch round — the body shared by the
// plain run, every rung of the escalation ladder and every PiM fleet
// server. It builds the round's fault model from the cfg.Faults it is
// handed, so callers decorrelate rounds by adjusting the seed and never
// carry a model around. The caller owns validation and metrics
// publication.
func alignPairsRound(cfg Config, pairs []Pair, sp *obs.Span) (*Report, []Result, error) {
	rep := newReport(cfg.TraceID)
	if len(pairs) == 0 {
		return rep, nil, nil
	}
	faults, err := pim.NewFaultModel(cfg.Faults)
	if err != nil {
		return nil, nil, err
	}

	// Split into rank-sized batches, balancing pair workloads across them
	// (the host spreads work over ranks).
	bsp := sp.Child("host.balance")
	nBatches := cfg.PIM.Ranks
	if nBatches > len(pairs) {
		nBatches = len(pairs)
	}
	loads := make([]int64, len(pairs))
	for i, p := range pairs {
		loads[i] = p.Workload(cfg.Kernel.Band)
	}
	var batches [][]Pair
	for _, bucket := range LPTAssign(loads, nBatches) {
		if len(bucket) == 0 {
			continue
		}
		b := make([]Pair, len(bucket))
		for i, idx := range bucket {
			b[i] = pairs[idx]
		}
		batches = append(batches, b)
	}
	bsp.SetAttrInt("batches", int64(len(batches)))
	bsp.End()

	execs := make([]batchExec, len(batches))
	if err := parallelFor(cfg.workers(), len(batches), func(bi int) error {
		// Batch spans are roots so each concurrent batch gets its own
		// trace lane; encode/kernel sub-spans nest inside.
		bs := obs.StartSpan("host.batch")
		bs.SetAttrInt("batch", int64(bi))
		if cfg.TraceID != "" {
			bs.SetAttr("trace_id", cfg.TraceID)
		}
		defer bs.End()
		ex, err := runBatch(cfg, faults, batches[bi], bi, bs)
		if err != nil {
			return err
		}
		execs[bi] = ex
		return nil
	}); err != nil {
		return nil, nil, err
	}

	dsp := sp.Child("host.dispatch")
	scheduleTimeline(cfg, execs, rep)
	dsp.End()

	csp := sp.Child("host.collect")
	var results []Result
	for bi := range execs {
		rank := rep.Ranks[bi].Rank
		for i := range execs[bi].results {
			execs[bi].results[i].Rank = rank
		}
		results = append(results, execs[bi].results...)
	}
	csp.End()
	rep.Batches = len(batches)
	return rep, results, nil
}

// publishMetrics feeds the run-level outcome into the default metrics
// registry; a no-op when metrics are disabled.
func (r *Report) publishMetrics() {
	reg := obs.Default()
	if reg == nil {
		return
	}
	reg.Counter("host_batches_total").Add(int64(r.Batches))
	reg.Counter("host_alignments_total").Add(int64(r.Alignments))
	reg.Counter("host_bytes_in_total").Add(r.BytesIn)
	reg.Counter("host_bytes_out_total").Add(r.BytesOut)
	reg.Gauge("host_makespan_seconds").Set(r.MakespanSec)
	reg.Gauge("host_overhead_fraction").Set(r.HostOverheadFraction())
	reg.Gauge("host_utilization_min").Set(r.UtilizationMin)
	reg.Gauge("host_utilization_mean").Set(r.UtilizationMean)
	reg.Counter("host_retries_total").Add(int64(r.Retries))
	reg.Counter("host_redispatches_total").Add(int64(r.Redispatches))
	reg.Counter("host_faults_detected_total").Add(int64(r.FaultsDetected))
	reg.Counter("host_abandoned_pairs_total").Add(int64(r.AbandonedPairs))
	reg.Gauge("host_wait_seconds").Set(r.WaitSec)
	reg.Gauge("host_retry_seconds").Set(r.RetrySec)
	reg.Counter("host_out_of_band_pairs_total").Add(int64(r.OutOfBandPairs))
	reg.Counter("host_clipped_pairs_total").Add(int64(r.ClippedPairs))
	reg.Counter("host_overflowed_pairs_total").Add(int64(r.OverflowedPairs))
	reg.Counter("host_escalations_total").Add(int64(r.Escalations))
	reg.Counter("host_escalation_rounds_total").Add(int64(r.EscalationRounds))
	reg.Counter("host_degraded_score_only_total").Add(int64(r.DegradedScoreOnly))
	reg.Counter("host_degraded_cpu_total").Add(int64(r.DegradedCPU))
	reg.Counter("host_verify_checked_total").Add(int64(r.VerifyChecked))
	reg.Counter("host_verify_failures_total").Add(int64(r.VerifyFailures))
	reg.Gauge("host_cpu_fallback_seconds").Set(r.CPUFallbackSec)
	reg.Gauge("host_verify_seconds").Set(r.VerifySec)
	reg.Counter("host_cache_hits_total").Add(int64(r.CacheHits))
	reg.Counter("host_cache_misses_total").Add(int64(r.CacheMisses))
	reg.Counter("host_deduped_pairs_total").Add(int64(r.DedupedPairs))
	for _, bs := range r.Backends {
		reg.Counter("host_backend_" + bs.Name + "_pairs_total").Add(int64(bs.Pairs))
		reg.Counter("host_backend_" + bs.Name + "_batches_total").Add(int64(bs.Batches))
		reg.Counter("host_backend_" + bs.Name + "_redispatched_total").Add(int64(bs.Redispatched))
		reg.Gauge("host_backend_" + bs.Name + "_makespan_seconds").Set(bs.MakespanSec)
		down := 0.0
		if bs.Down {
			down = 1
		}
		reg.Gauge("host_backend_" + bs.Name + "_down").Set(down)
	}
}

// scheduleTimeline lays executed batches onto the simulated clock: a FIFO
// of batches over the ranks, transfers serialised on the shared DDR bus,
// kernels running rank-concurrently, collection gated by the rank barrier.
func scheduleTimeline(cfg Config, execs []batchExec, rep *Report) {
	rankFree := make([]float64, cfg.PIM.Ranks)
	// Input and output transfers each serialise among themselves on the
	// DDR bus; the SDK's threaded transfer engine overlaps the two
	// directions well enough that modelling them as separate channels
	// matches the measured behaviour better than one global bus lock.
	busInFree, busOutFree := 0.0, 0.0
	launch := float64(cfg.PIM.RankLaunchOverheadUS * 1e-6)
	var makespan, utilSum float64
	for bi := range execs {
		ex := &execs[bi]
		r := 0
		for i := 1; i < len(rankFree); i++ {
			if rankFree[i] < rankFree[r] {
				r = i
			}
		}
		start := math.Max(rankFree[r], busInFree)
		inDur := cfg.PIM.HostTransferSeconds(ex.BytesIn)
		busInFree = start + inDur
		kStart := start + inDur + launch
		// The rank is busy for compute plus the recovery waits; only the
		// compute share is reported as KernelSec.
		kEnd := kStart + ex.KernelSecSum + ex.WaitSec
		outStart := math.Max(kEnd, busOutFree)
		outDur := cfg.PIM.HostTransferSeconds(ex.BytesOut)
		busOutFree = outStart + outDur
		rankFree[r] = outStart + outDur
		if rankFree[r] > makespan {
			makespan = rankFree[r]
		}

		// Rebase the batch-relative fault timestamps onto the run
		// timeline now that the batch has a slot on it.
		var faults []FaultEvent
		if len(ex.faults) > 0 {
			faults = make([]FaultEvent, len(ex.faults))
			for i, f := range ex.faults {
				f.AtSec += kStart
				faults[i] = f
			}
		}
		rep.Ranks = append(rep.Ranks, RankStats{
			Rank: r, Batch: bi, StartSec: start,
			TransferInSec: inDur, KernelSec: ex.KernelSecSum,
			FastestDPUSec: ex.minDPUSec, TransferOutSec: outDur,
			EndSec: rankFree[r], BytesIn: ex.BytesIn, BytesOut: ex.BytesOut,
			DPUStats: ex.stats, LoadedDPUs: ex.loadedDPUs,
			Attempts: ex.Retries + 1, WaitSec: ex.WaitSec, RetrySec: ex.RetrySec,
			Faults: faults,
		})
		ex.TransferInSec, ex.TransferOutSec = inDur, outDur
		rep.Counters.Add(&ex.Counters)
		if ex.loadedDPUs > 0 {
			if ex.utilMin < rep.UtilizationMin {
				rep.UtilizationMin = ex.utilMin
			}
			utilSum += ex.utilSum / float64(ex.loadedDPUs)
		}
	}
	if len(execs) > 0 {
		rep.UtilizationMean = utilSum / float64(len(execs))
	}
	rep.MakespanSec = makespan
}

// parallelFor runs fn(0..n-1) on up to workers goroutines, returning the
// first error. A panicking worker is recovered into an error instead of
// tearing the process down, so one poisoned batch cannot kill a serving
// host.
func parallelFor(workers, n int, fn func(int) error) error {
	run := func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("host: worker panic on item %d: %v", i, r)
			}
		}()
		return fn(i)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     int
	)
	grab := func() int {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= n {
			return -1
		}
		i := next
		next++
		return i
	}
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := grab()
				if i < 0 {
					return
				}
				if err := run(i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

package host

import (
	"errors"
	"fmt"
	"math"
	"time"

	"pimnw/internal/kernel"
	"pimnw/internal/obs"
	"pimnw/internal/pim"
	"pimnw/internal/seq"
	"pimnw/internal/verify"
)

// maxBackoffShift caps the exponential backoff doubling so the modelled
// wait never overflows (2^20 base intervals is already hours).
const maxBackoffShift = 20

// dpuAttempt is the outcome of one DPU launch within a batch attempt.
type dpuAttempt struct {
	out     kernel.DPUOutcome
	bytesIn int64
	sec     float64 // modelled execution time of this launch
	dpu     int     // rank-relative DPU index
	used    bool
	fail    pim.FaultKind // FaultNone = accepted
	// Result-validation outcome (Config.Verify): checks performed, the
	// failures among them, the measured wall-clock the checks cost
	// (summed across DPU launches), and whether the launch must be
	// rejected for carrying invalid results (handled like a corrupted
	// transfer).
	verified   int
	badResults int
	verifySec  float64
	invalid    bool
}

// runBatch executes one rank-sized batch with the host's recovery
// protocol (the fault-tolerant extension of §4.1's dispatch loop):
//
//  1. Balance the pending pairs over the rank's surviving DPUs (LPT by
//     default) and launch the kernel on each loaded DPU.
//  2. Detect failures when the rank barrier resolves: crashed launches
//     (the SDK call errored), corrupted result transfers (per-batch
//     checksum mismatch), and DPUs still running at the batch deadline
//     (stalls and severe slowdowns).
//  3. Accept every healthy DPU's results; collect the failed DPUs' pairs
//     as residual work. Crashed and timed-out DPUs are taken out of
//     rotation for the rest of the batch; a corrupted transfer leaves the
//     DPU in play (the fault was on the bus, not the compute).
//  4. Back off (exponential, deterministic jitter), re-run the balance
//     over the residual pairs, and redispatch — up to cfg.MaxRetries
//     times, after which the remaining pairs are abandoned and reported.
//
// The batch's modelled busy window stretches accordingly: kernelSec
// accumulates every attempt's slowest DPU (capped at the deadline) —
// compute only — while the backoff waits between attempts and fail-fast
// fault detection accumulate in waitSec, so per-rank KernelSec,
// utilisation and the Perfetto kernel lanes reflect compute, not
// waiting. Because the kernel is deterministic,
// a pair redispatched onto any DPU reproduces the exact scores and
// CIGARs of a fault-free run — the invariant the recovery tests assert.
func runBatch(cfg Config, faults *pim.FaultModel, pairs []Pair, batch int, sp *obs.Span) (batchExec, error) {
	ex := batchExec{minDPUSec: math.Inf(1), utilMin: 1}
	deadline := cfg.BatchDeadlineSec
	if deadline <= 0 {
		deadline = math.Inf(1)
	}
	launch := cfg.PIM.RankLaunchOverheadUS * 1e-6

	pending := pairs
	alive := make([]int, pim.DPUsPerRank)
	for i := range alive {
		alive[i] = i
	}

	for attempt := 0; len(pending) > 0; attempt++ {
		if attempt > 0 {
			ex.Retries++
		}
		asp := sp.Child("host.attempt")
		asp.SetAttrInt("attempt", int64(attempt))
		asp.SetAttrInt("pairs", int64(len(pending)))

		// computeSec is DPU execution time this attempt; waitSec is time
		// the rank spent waiting (fault detection with nothing running).
		var computeSec, waitSec float64
		var failed []Pair
		if faults.DrawRankDrop(batch, attempt) {
			// The whole rank fell off the bus; the launch call fails
			// fast, so detection only costs the launch overhead — and no
			// kernel ever ran, so the cost is waiting, not compute.
			ex.faults = append(ex.faults, FaultEvent{
				Batch: batch, Attempt: attempt, DPU: -1,
				Kind: pim.FaultRankDrop.String(), AtSec: ex.KernelSecSum + ex.WaitSec,
			})
			obs.Flight().Recordf("fault", cfg.TraceID,
				"batch %d attempt %d: rank dropped off the bus (%d pairs)",
				batch, attempt, len(pending))
			waitSec = launch
			failed = pending
			asp.SetAttr("outcome", "rank_drop")
		} else {
			var err error
			computeSec, failed, err = ex.runAttempt(cfg, faults, pending, batch, attempt, deadline, &alive, asp)
			if err != nil {
				asp.End()
				return ex, err
			}
		}
		asp.End()

		ex.KernelSecSum += computeSec
		ex.WaitSec += waitSec
		if attempt > 0 || len(failed) == len(pending) {
			// Time past the first launch window, or a first launch that
			// produced nothing, is recovery cost.
			ex.RetrySec += computeSec + waitSec
		}
		pending = failed
		if len(pending) == 0 {
			break
		}
		if attempt >= cfg.MaxRetries || len(alive) == 0 {
			for _, p := range pending {
				ex.AbandonedIDs = append(ex.AbandonedIDs, p.ID)
			}
			ex.AbandonedPairs += len(pending)
			obs.Info("abandoning pairs: retries exhausted",
				"trace_id", cfg.TraceID, "batch", batch,
				"pairs", len(pending), "attempts", attempt+1,
				"surviving_dpus", len(alive))
			// Abandonment is the event the flight recorder exists for:
			// record it, then dump the whole ring to the log so the
			// faults and escalations leading up to it are preserved next
			// to the failure.
			obs.Flight().Recordf("abandon", cfg.TraceID,
				"batch %d: %d pairs abandoned after %d attempts (%d DPUs surviving)",
				batch, len(pending), attempt+1, len(alive))
			obs.Flight().DumpToLog("abandonment")
			break
		}
		shift := attempt
		if shift > maxBackoffShift {
			shift = maxBackoffShift
		}
		backoff := float64(cfg.RetryBackoffSec * float64(int64(1)<<shift) *
			(1 + float64(0.5*faults.Jitter(batch, attempt))))
		// The backoff interval is pure waiting: charging it to kernelSec
		// would inflate reported kernel time with fault-rate-dependent
		// idle time and push HostOverheadFraction negative.
		ex.WaitSec += backoff
		ex.RetrySec += backoff
		ex.Redispatches += len(pending)
	}
	if math.IsInf(ex.minDPUSec, 1) {
		ex.minDPUSec = 0
	}
	ex.FaultsDetected = len(ex.faults)
	return ex, nil
}

// runAttempt stages and launches the pending pairs over the surviving
// DPUs, verifies what comes back, and returns the attempt's modelled
// compute time (slowest DPU, deadline-capped) plus the pairs that must be
// redispatched. Hard-failed DPUs
// (crash, timeout) are removed from alive in place.
func (ex *batchExec) runAttempt(cfg Config, faults *pim.FaultModel, pending []Pair, batch, attempt int,
	deadline float64, alive *[]int, sp *obs.Span) (float64, []Pair, error) {

	lsp := sp.Child("host.balance_rank")
	loads := make([]int64, len(pending))
	for i, p := range pending {
		loads[i] = p.Workload(cfg.Kernel.Band)
	}
	buckets := cfg.Balance.assign(loads, len(*alive), int64(len(pending)))
	lsp.End()

	outs := make([]dpuAttempt, len(*alive))
	err := parallelFor(cfg.workers(), len(*alive), func(ai int) error {
		if len(buckets[ai]) == 0 {
			return nil
		}
		di := (*alive)[ai]
		d := cfg.PIM.NewDPU(di)
		d.Fault = faults.Draw(batch, attempt, di)
		esp := sp.Child("host.encode")
		esp.SetAttrInt("dpu", int64(di))
		kp := make([]kernel.Pair, 0, len(buckets[ai]))
		var bytesIn int64
		for _, idx := range buckets[ai] {
			p := pending[idx]
			staged, err := kernel.StagePair(d, p.ID, p.A, p.B)
			if err != nil {
				return fmt.Errorf("host: staging pair %d on DPU %d: %w", p.ID, di, err)
			}
			bytesIn += int64(seq.PackedSize(len(p.A))+seq.PackedSize(len(p.B))) + pairDescriptorBytes
			kp = append(kp, staged)
		}
		esp.End()
		ksp := sp.Child("host.kernel")
		ksp.SetAttrInt("dpu", int64(di))
		out, err := kernel.Run(d, cfg.Kernel, kp)
		ksp.End()
		if err != nil {
			var fe *pim.FaultError
			if errors.As(err, &fe) {
				// An injected crash: recoverable, handled by redispatch.
				outs[ai] = dpuAttempt{bytesIn: bytesIn, dpu: di, used: true, fail: fe.Kind}
				return nil
			}
			return fmt.Errorf("host: DPU %d: %w", di, err)
		}
		da := dpuAttempt{out: out, bytesIn: bytesIn, dpu: di, used: true,
			sec: cfg.PIM.CyclesToSeconds(out.Stats.Cycles)}
		if da.sec > deadline {
			da.fail = pim.FaultStall
		} else if kernel.ChecksumResults(out.Results) != out.Checksum {
			da.fail = pim.FaultCorrupt
		} else if cfg.Verify && cfg.Kernel.Traceback {
			// Defense in depth past the transfer checksum: re-derive every
			// in-band score from its CIGAR and the cost table. A launch
			// with any invalid result is rejected wholesale — detected
			// corruption, same handling as a checksum mismatch. The wall
			// clock it costs is measured (host-side work, like the CPU
			// rung) and reported as VerifySec.
			vStart := time.Now()
			da.verified, da.badResults = verifyOutcome(cfg, pending, buckets[ai], out.Results)
			da.verifySec = time.Since(vStart).Seconds()
			da.invalid = da.badResults > 0
		}
		outs[ai] = da
		return nil
	})
	if err != nil {
		return 0, nil, err
	}

	var attemptSec float64
	var failed []Pair
	survivors := (*alive)[:0]
	for ai := range outs {
		o := &outs[ai]
		if !o.used {
			survivors = append(survivors, (*alive)[ai])
			continue
		}
		ex.BytesIn += o.bytesIn // retransfers on retry attempts cost bus time too
		ex.VerifyChecked += o.verified
		ex.VerifyFailures += o.badResults
		ex.VerifySec += o.verifySec
		sec := o.sec
		if sec > deadline {
			sec = deadline // the host gives up on the DPU at the deadline
		}
		if sec > attemptSec {
			attemptSec = sec
		}
		if o.fail == pim.FaultNone && !o.invalid {
			ex.accept(o)
			survivors = append(survivors, o.dpu)
			continue
		}
		// Detection moment: a crash surfaces when the launch call
		// returns, a timeout at the deadline, a corruption when the
		// checksum (or the per-result validation) is verified at
		// collection.
		kind := o.fail.String()
		if o.fail == pim.FaultNone {
			kind = "validation"
		}
		at := ex.KernelSecSum + ex.WaitSec + sec
		ex.faults = append(ex.faults, FaultEvent{
			Batch: batch, Attempt: attempt, DPU: o.dpu,
			Kind: kind, AtSec: at,
		})
		obs.Flight().Recordf("fault", cfg.TraceID,
			"batch %d attempt %d dpu %d: %s", batch, attempt, o.dpu, kind)
		for _, idx := range buckets[ai] {
			failed = append(failed, pending[idx])
		}
		if o.fail == pim.FaultCorrupt || o.invalid {
			// Transient bus (or payload) fault: the DPU stays in rotation.
			survivors = append(survivors, o.dpu)
		}
	}
	*alive = survivors
	return attemptSec, failed, nil
}

// verifyOutcome re-derives every in-band result of one DPU launch from
// its CIGAR (internal/verify): structural validity, sequence consumption
// and score reconstruction under the run's cost table. It returns the
// number of results checked and how many of them failed. Out-of-band
// results carry the score sentinel and no path, so there is nothing to
// re-derive; a result whose ID matches no staged pair is itself a failure.
func verifyOutcome(cfg Config, pending []Pair, bucket []int, results []kernel.PairResult) (checked, bad int) {
	byID := make(map[int]Pair, len(bucket))
	for _, idx := range bucket {
		byID[pending[idx].ID] = pending[idx]
	}
	for _, r := range results {
		if !r.InBand {
			continue
		}
		p, ok := byID[r.ID]
		if !ok {
			bad++
			obs.Logf("verify: result for pair %d, which was never staged on this DPU", r.ID)
			continue
		}
		checked++
		if err := verify.CheckPair(p.A, p.B, cfg.Kernel.Params, r.Score, string(r.Cigar)); err != nil {
			bad++
			obs.Logf("verify: pair %d: %v", r.ID, err)
		}
	}
	return checked, bad
}

// accept merges one healthy DPU launch into the batch outcome.
func (ex *batchExec) accept(o *dpuAttempt) {
	ex.loadedDPUs++
	if o.sec < ex.minDPUSec {
		ex.minDPUSec = o.sec
	}
	u := o.out.Stats.Utilization()
	ex.utilSum += u
	if u < ex.utilMin {
		ex.utilMin = u
	}
	ex.stats.Add(o.out.Stats)
	ex.TotalInstr += o.out.Stats.Instr
	ex.Alignments += len(o.out.Results)
	for _, r := range o.out.Results {
		ex.BytesOut += resultHeaderBytes + int64(len(r.Cigar))
		ex.TotalCells += r.Cells
		ex.results = append(ex.results, Result{PairResult: r, DPU: o.dpu})
	}
}

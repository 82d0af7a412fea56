package host

import (
	"fmt"
	"log/slog"
	"time"

	"pimnw/internal/baseline"
	"pimnw/internal/kernel"
	"pimnw/internal/obs"
	"pimnw/internal/verify"
)

// rung is one DPU step of the degradation ladder: a band width and the
// geometry that admits it (kernel.FitGeometry trades pools for WRAM as
// the band doubles).
type rung struct {
	band      int
	geom      kernel.Geometry
	traceback bool
	// overflowOnly marks the same-band full-width rung that backs a
	// narrow-lane base kernel: it only receives pairs the narrow kernel
	// saturated on — a clipped or out-of-band pair needs width, and
	// re-running it at the same band would reproduce the same failure.
	overflowOnly bool
}

// buildLadder enumerates the DPU rungs below the configured kernel:
// doubled bands in the requested mode while any geometry admits them,
// then — for traceback runs — one score-only rung at the widest feasible
// band, strictly wider than the deepest traceback rung (a same-width
// score-only kernel would reproduce the same clip). The exact CPU
// baseline is the implicit final rung and is not listed here.
func buildLadder(cfg Config) []rung {
	var rungs []rung
	maxBand := cfg.maxBand()
	// Ladder rungs always run the modelled full-width kernel: escalation
	// is the correctness path, and a narrow kernel that saturated once
	// would be re-risking the same saturation at every wider band. Only
	// the geometry is fitted at 64 here; a traceback rung still computes
	// narrow-first (see escalate).
	wideK := cfg.Kernel
	wideK.LaneWidth = 64
	// A narrow-lane base kernel gets one extra rung before the band
	// doubles: the full-width kernel at the *same* band, taking exactly the
	// pairs the narrow kernel overflowed on — saturation is a precision
	// failure, not a band failure.
	if cfg.Kernel.Lanes(cfg.Kernel.Band, cfg.Kernel.Traceback) == 16 {
		if g, ok := kernel.FitGeometry(wideK, cfg.Kernel.Band, false); ok {
			rungs = append(rungs, rung{band: cfg.Kernel.Band, geom: g, traceback: false, overflowOnly: true})
		}
	}
	for b := cfg.Kernel.Band * 2; b <= maxBand; b *= 2 {
		g, ok := kernel.FitGeometry(wideK, b, cfg.Kernel.Traceback)
		if !ok {
			break // the working set grows with the band: wider cannot fit either
		}
		rungs = append(rungs, rung{band: b, geom: g, traceback: cfg.Kernel.Traceback})
	}
	if cfg.Kernel.Traceback {
		floor := cfg.Kernel.Band
		if len(rungs) > 0 {
			floor = rungs[len(rungs)-1].band
		}
		for b := maxBand; b > floor; b /= 2 {
			if g, ok := kernel.FitGeometry(wideK, b, false); ok {
				rungs = append(rungs, rung{band: b, geom: g, traceback: false})
				break
			}
		}
	}
	return rungs
}

// escalate walks every out-of-band or clipped pair of the first round
// down the degradation ladder until it has a trusted answer:
//
//	dpu-banded@2w, dpu-banded@4w, ...   (pools traded for WRAM)
//	dpu-score-only@<widest feasible>    (traceback runs only)
//	cpu-exact                           (full-matrix Gotoh, always feasible)
//
// Pairs whose sequences cannot fit a rung's MRAM footprint skip it
// (FitsMRAM); pairs a round abandons under injected faults are rescued by
// the CPU rung, so with escalation on nothing is ever dropped. Escalation
// rounds run sequentially after the first round on the simulated
// timeline; the CPU rung is host-side work and is accounted separately in
// Report.CPUFallbackSec. Every DPU rung executes on the backend that ran
// the first round, so a fleet shard escalates on its own server.
//
// pairs[i].ID must be i. A rung receives its pairs in the order the
// previous round returned them, which is part of the model: LPT breaks
// ties by position. Results come back in input order, each stamped with
// its Status and the Provenance of the engine that answered it.
func escalate(be Backend, cfg Config, pairs []Pair, rep *Report, first []Result, sp *obs.Span) ([]Result, error) {
	// final holds every pair's answer so far, indexed by ID; a pair still
	// pending keeps its untrusted first-round classification until a rung
	// overwrites it.
	final := make([]Result, len(pairs))
	baseProv := kernelProvenance(cfg.Kernel)
	var pending []int
	for _, r := range first {
		if !classify(rep, &r, baseProv) {
			pending = append(pending, r.ID)
		}
		final[r.ID] = r
	}
	// Pairs the first round abandoned (retries exhausted under faults) are
	// rescued by the CPU rung rather than dropped: with escalation on,
	// nothing is ever abandoned.
	cpuIDs := append([]int(nil), rep.AbandonedIDs...)
	rep.AbandonedPairs, rep.AbandonedIDs = 0, nil

	round := 0
	for _, rg := range buildLadder(cfg) {
		if len(pending) == 0 {
			break
		}
		// Per-pair MRAM admission: band width only grows down the ladder,
		// so a pair that cannot fit this rung's footprint waits for the
		// score-only rung (no BT scratch) or the CPU.
		var runnable, skipped []int
		for _, id := range pending {
			p := pairs[id]
			if rg.overflowOnly && final[id].Status != StatusOverflowed {
				skipped = append(skipped, id)
				continue
			}
			if kernel.FitsMRAM(cfg.PIM, len(p.A), len(p.B), rg.band, rg.traceback) {
				runnable = append(runnable, id)
			} else {
				skipped = append(skipped, id)
			}
		}
		if len(runnable) == 0 {
			pending = skipped
			continue
		}
		round++

		roundCfg := cfg
		roundCfg.Kernel.Band = rg.band
		roundCfg.Kernel.Geometry = rg.geom
		roundCfg.Kernel.Traceback = rg.traceback
		// Ladder rungs are always *modelled* full-width. A score-only rung
		// says so by pinning the lane width; a traceback rung is modelled
		// at 64 under any lane width (Config.Lanes) and keeps the
		// configured one, so only an explicit -lanes 64 pins the
		// full-width *engine* there too (kernel.Config.Align).
		if !rg.traceback {
			roundCfg.Kernel.LaneWidth = 64
		}
		prov := kernelProvenance(roundCfg.Kernel)
		// Decorrelate this round's injected faults from the earlier
		// rounds': the (batch, attempt, dpu) draw coordinates recur every
		// round, and reusing the seed would make the same fault chase the
		// same pairs all the way down the ladder.
		roundCfg.Faults.Seed = cfg.Faults.Seed + int64(round)*1000003

		rp := make([]Pair, len(runnable))
		for i, id := range runnable {
			rp[i] = pairs[id]
		}
		esp := sp.Child("host.escalate")
		esp.SetAttrInt("round", int64(round))
		esp.SetAttrInt("band", int64(rg.band))
		esp.SetAttrInt("pairs", int64(len(rp)))
		sub, subResults, err := be.Round(roundCfg, rp, esp)
		esp.End()
		if err != nil {
			return nil, err
		}
		start := rep.MakespanSec
		// What the round abandoned is rescued on the CPU rung, like the
		// first round's, so it never reaches the merged tallies.
		cpuIDs = append(cpuIDs, sub.AbandonedIDs...)
		sub.AbandonedPairs, sub.AbandonedIDs = 0, nil
		rep.Then(sub)
		rep.EscalationRounds++
		rep.Escalations += len(runnable)
		rep.Escalation = append(rep.Escalation, EscalationRound{
			Round: round, Band: rg.band, Provenance: prov,
			Pairs: len(runnable), StartSec: start, EndSec: rep.MakespanSec,
		})
		slog.Info("escalation round", "kind", "escalation", "trace_id", cfg.TraceID,
			"round", round, "pairs", len(runnable), "rung", prov)

		next := skipped
		for _, r := range subResults {
			if r.Overflowed || !r.InBand || r.Clipped {
				next = append(next, r.ID)
				continue
			}
			if rg.traceback == cfg.Kernel.Traceback {
				r.Status = StatusEscalated
			} else {
				r.Status = StatusDegradedScoreOnly
				rep.DegradedScoreOnly++
			}
			r.Provenance = prov
			final[r.ID] = r
		}
		pending = next
	}

	// The last rung: everything still unresolved gets the exact
	// full-matrix answer on the host CPU.
	cpuIDs = append(cpuIDs, pending...)
	if len(cpuIDs) > 0 {
		opts := baseline.Options{
			Params:    cfg.Kernel.Params,
			Threads:   cfg.Workers,
			Traceback: cfg.Kernel.Traceback,
			Exact:     true,
		}
		bp := make([]baseline.Pair, len(cpuIDs))
		for i, id := range cpuIDs {
			bp[i] = baseline.Pair{ID: id, A: pairs[id].A, B: pairs[id].B}
		}
		csp := sp.Child("host.cpu_rescue")
		csp.SetAttrInt("pairs", int64(len(bp)))
		out, err := baseline.Run(opts, bp)
		csp.End()
		if err != nil {
			return nil, err
		}
		rep.CPUFallbackSec += out.WallSeconds
		rep.DegradedCPU += len(cpuIDs)
		slog.Info("cpu rescue", "kind", "escalation", "trace_id", cfg.TraceID,
			"pairs", len(cpuIDs), "host_sec", out.WallSeconds)
		for _, br := range out.Results {
			pr := kernel.PairResult{ID: br.ID, Score: br.Score, InBand: true, Cells: br.Cells}
			if br.Cigar != nil {
				pr.Cigar = []byte(br.Cigar.String())
			}
			if cfg.Verify && cfg.Kernel.Traceback {
				rep.VerifyChecked++
				p := pairs[br.ID]
				vStart := time.Now()
				err := verify.CheckPair(p.A, p.B, cfg.Kernel.Params, br.Score, string(pr.Cigar))
				rep.VerifySec += time.Since(vStart).Seconds()
				if err != nil {
					rep.VerifyFailures++
					slog.Info("verify mismatch", "kind", "verify", "trace_id", cfg.TraceID,
						"pair", br.ID, "rung", "cpu-exact", "err", err)
				}
			}
			final[br.ID] = Result{PairResult: pr, Rank: -1, DPU: -1,
				Status: StatusDegradedCPU, Provenance: "cpu-exact"}
		}
	}

	// Every pair must have resolved on some rung.
	for id := range final {
		r := &final[id]
		if r.Provenance == "" || !r.Status.Trusted() {
			return nil, fmt.Errorf("host: pair %d fell through the degradation ladder", id)
		}
		rep.countProvenance(r.Provenance)
		switch r.Status {
		case StatusDegradedScoreOnly, StatusDegradedCPU:
			rep.addIssue(PairIssue{ID: r.ID, Status: r.Status, Provenance: r.Provenance})
		}
	}
	rep.Alignments = len(final)
	return final, nil
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pimnw/internal/cache"
	"pimnw/internal/core"
	"pimnw/internal/host"
	"pimnw/internal/kernel"
	"pimnw/internal/obs"
	"pimnw/internal/pim"
)

// The layer ladder replays a sample of a workload's bodies in-process,
// once per rung, each rung being one public entry point given the inputs
// the rung above would hand it:
//
//	session   host.NewSession / Submit / Results / Close   (one per body)
//	fleet     host.AlignPairs with Backends                (fleet workloads)
//	dispatch  host.AlignPairs                              (one per micro-batch)
//	kernel    host.LPTAssign x2, pim NewDPU, kernel.StagePair, kernel.Run
//	core      Scratch.AdaptiveBand{Align,ScoreNarrow,ScoreWide} (+Cigar.String)
//
// Everything runs with Workers 1 and MaxConcurrentBatches 1, so a rung's
// wall time is its CPU time and rung - next rung is the rung's own cost.

// ladderCells bounds the sample: bodies are added (or the first one is
// cut short) until their estimated DP cells reach it, which keeps one
// pass over all rungs near a tenth of a second.
const ladderCells = 10e6

// ladderReps is the repetition floor; rungs are interleaved inside each.
const ladderReps = 9

// kernelRound is one launch of the kernel over a set of pairs: the base
// round of a micro-batch, or one escalation rung.
type kernelRound struct {
	cfg   kernel.Config
	pairs []host.Pair
}

// ladder holds the sample, the per-repetition rung times (seconds for the
// whole sample) and what the rungs counted.
type ladder struct {
	w      *workload
	cfg    host.Config // single fabric, Workers 1
	fleet  []host.Backend
	cache  *cache.Cache
	sample [][]host.Pair // one entry per sampled body
	scale  float64       // per-request value = sample total * scale

	rounds []kernelRound // kernel/core plan for the whole sample

	session, fleetT, dispatch, kern, coreT []float64
	stage, run, lpt, placement             []float64

	reports []*host.Report // dispatch rung, first repetition
	cells   int64          // DP cells the core rung evaluated
	dpuRuns int
	cpuRung int // pairs the ladder's last rung (exact CPU baseline) would take
}

// hostConfig mirrors cmd/alignd's sessionConfig for a workload, with the
// host-side parallelism pinned to one worker.
func hostConfig(w *workload) host.Config {
	pc := pim.DefaultConfig()
	traceback := w.class == "bulk"
	return host.Config{
		PIM: pc,
		Kernel: kernel.Config{
			Geometry:  kernel.DefaultGeometry(),
			Band:      128,
			Params:    core.DefaultParams(),
			Costs:     pim.Asm,
			Traceback: traceback,
			PIM:       pc,
		},
		Workers:         1,
		Faults:          pim.FaultConfig{Rate: w.faultRate, Seed: 1},
		MaxRetries:      3,
		RetryBackoffSec: 1e-3,
		Escalate:        w.escalation,
		Verify:          w.verify && traceback,
	}
}

func newLadder(w *workload, pool []*body, scratchDir string) (*ladder, error) {
	l := &ladder{w: w, cfg: hostConfig(w)}
	var err error
	if l.fleet, err = host.ParseFleet(w.fleet); err != nil {
		return nil, err
	}

	perPair := float64(2*w.seqLen) * float64(l.cfg.Kernel.Band)
	if w.escalation {
		perPair *= 6 // the doubled-band rungs cost a few base rounds more
	}
	switch {
	case w.cached:
		// No rung below the session runs on a warm cache; the sample is
		// sized by the prefill it costs instead.
		for _, b := range pool[:min(8, len(pool))] {
			l.sample = append(l.sample, b.pairs)
		}
		l.scale = 1 / float64(len(l.sample))
	case perPair*float64(w.pairs) > ladderCells:
		n := max(1, int(ladderCells/perPair))
		l.sample = [][]host.Pair{pool[0].pairs[:n]}
		l.scale = float64(w.pairs) / float64(n)
	default:
		n := min(len(pool), max(1, int(ladderCells/(perPair*float64(w.pairs)))))
		for _, b := range pool[:n] {
			l.sample = append(l.sample, b.pairs)
		}
		l.scale = 1 / float64(n)
	}

	if w.cached {
		var pairs int
		for _, b := range l.sample {
			pairs += len(b)
		}
		l.cache, err = cache.Open(cache.Options{
			Dir:        filepath.Join(scratchDir, "ladder-cache"),
			HotEntries: pairs * 2 / 3, // the daemon's pool : hot-tier ratio
		})
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (l *ladder) close() {
	if l.cache != nil {
		l.cache.Close()
	}
}

// microBatches cuts a body the way a session flushing on size does.
func (l *ladder) microBatches(pairs []host.Pair) [][]host.Pair {
	size := l.w.batchPairs
	if size == 0 {
		size = 4 * pim.DPUsPerRank // the session's default
	}
	var out [][]host.Pair
	for len(pairs) > size {
		out = append(out, pairs[:size])
		pairs = pairs[size:]
	}
	return append(out, pairs)
}

func (l *ladder) sessionRung() error {
	cfg := l.cfg
	cfg.Backends = l.fleet
	for _, pairs := range l.sample {
		s, err := host.NewSession(context.Background(), host.SessionConfig{
			Host: cfg, MaxBatchPairs: l.w.batchPairs, MaxConcurrentBatches: 1, Cache: l.cache,
		})
		if err != nil {
			return err
		}
		for _, p := range pairs {
			if err := s.Submit(p); err != nil {
				return err
			}
		}
		closed := make(chan error, 1)
		go func() { closed <- s.Close() }()
		n := 0
		for range s.Results() {
			n++
		}
		if err := <-closed; err != nil {
			return err
		}
		if n != len(pairs) {
			return fmt.Errorf("session rung: %d results for %d pairs", n, len(pairs))
		}
	}
	return nil
}

// dispatchRung runs host.AlignPairs per micro-batch. On a warm cache the
// session answers every pair itself and hands nothing down.
func (l *ladder) dispatchRung(backends []host.Backend, keep bool) error {
	if l.w.cached {
		return nil
	}
	cfg := l.cfg
	cfg.Backends = backends
	for _, pairs := range l.sample {
		for _, mb := range l.microBatches(pairs) {
			rep, _, err := host.AlignPairs(cfg, mb)
			if err != nil {
				return err
			}
			if keep {
				l.reports = append(l.reports, rep)
			}
		}
	}
	return nil
}

// launch is what one dispatch round does below the host package: balance
// the pairs over ranks, then over each rank's DPUs (LPT both times), stage
// every loaded DPU and run the kernel on it. t collects the split.
func (l *ladder) launch(r kernelRound, t *launchTimes) ([]kernel.PairResult, error) {
	band := r.cfg.Band
	t0 := time.Now()
	loads := make([]int64, len(r.pairs))
	for i, p := range r.pairs {
		loads[i] = p.Workload(band)
	}
	ranks := host.LPTAssign(loads, min(l.cfg.PIM.Ranks, len(r.pairs)))
	t.lpt += time.Since(t0)
	var out []kernel.PairResult
	for _, rank := range ranks {
		t0 = time.Now()
		rl := make([]int64, len(rank))
		for i, idx := range rank {
			rl[i] = loads[idx]
		}
		dpus := host.LPTAssign(rl, pim.DPUsPerRank)
		t.lpt += time.Since(t0)
		for di, bucket := range dpus {
			if len(bucket) == 0 {
				continue
			}
			t0 = time.Now()
			d := l.cfg.PIM.NewDPU(di)
			kp := make([]kernel.Pair, 0, len(bucket))
			for _, bi := range bucket {
				p := r.pairs[rank[bi]]
				staged, err := kernel.StagePair(d, p.ID, p.A, p.B)
				if err != nil {
					return nil, err
				}
				kp = append(kp, staged)
			}
			t1 := time.Now()
			res, err := kernel.Run(d, r.cfg, kp)
			if err != nil {
				return nil, err
			}
			t.stage += t1.Sub(t0)
			t.run += time.Since(t1)
			t.runs++
			out = append(out, res.Results...)
		}
	}
	return out, nil
}

type launchTimes struct {
	lpt, stage, run time.Duration
	runs            int
}

// plan works out, once and off the clock, which kernel rounds dispatch
// drives for the sample: the base round of every micro-batch and, with
// escalation on, the wider-band rungs its clipped pairs walk (the rung
// list host's escalation builds, from the same public geometry checks).
func (l *ladder) plan() error {
	if l.w.cached {
		return nil
	}
	rungs := l.escalationRungs()
	for _, pairs := range l.sample {
		for _, mb := range l.microBatches(pairs) {
			byID := make(map[int]host.Pair, len(mb))
			for _, p := range mb {
				byID[p.ID] = p
			}
			// run appends one round to the plan and returns the pairs it
			// left without a trusted answer.
			run := func(r kernelRound) ([]host.Pair, error) {
				l.rounds = append(l.rounds, r)
				res, err := l.launch(r, &launchTimes{})
				var failed []host.Pair
				for _, pr := range res {
					if pr.Overflowed || !pr.InBand || pr.Clipped {
						failed = append(failed, byID[pr.ID])
					}
				}
				return failed, err
			}
			pending, err := run(kernelRound{cfg: l.cfg.Kernel, pairs: mb})
			if err != nil {
				return err
			}
			for _, k := range rungs {
				if len(pending) == 0 {
					break
				}
				var runnable, skipped []host.Pair
				for _, p := range pending {
					if kernel.FitsMRAM(l.cfg.PIM, len(p.A), len(p.B), k.Band, k.Traceback) {
						runnable = append(runnable, p)
					} else {
						skipped = append(skipped, p)
					}
				}
				if len(runnable) == 0 {
					continue
				}
				failed, err := run(kernelRound{cfg: k, pairs: runnable})
				if err != nil {
					return err
				}
				pending = append(skipped, failed...)
			}
			l.cpuRung += len(pending)
		}
	}
	return nil
}

// escalationRungs lists the kernel configs below a traceback base kernel
// (the only kind the escalating workloads use): doubled bands at full lane
// width while a geometry admits them, then one score-only rung at the
// widest feasible band.
func (l *ladder) escalationRungs() []kernel.Config {
	if !l.cfg.Escalate {
		return nil
	}
	wide := l.cfg.Kernel
	wide.LaneWidth = 64
	var rungs []kernel.Config
	add := func(band int, traceback bool) bool {
		g, ok := kernel.FitGeometry(wide, band, traceback)
		if ok {
			k := wide
			k.Band, k.Geometry, k.Traceback = band, g, traceback
			rungs = append(rungs, k)
		}
		return ok
	}
	floor := wide.Band
	for b := wide.Band * 2; b <= host.DefaultMaxBand && add(b, true); b *= 2 {
		floor = b
	}
	for b := host.DefaultMaxBand; b > floor; b /= 2 {
		if add(b, false) {
			break
		}
	}
	return rungs
}

func (l *ladder) kernelRung() (launchTimes, error) {
	var t launchTimes
	for _, r := range l.rounds {
		if _, err := l.launch(r, &t); err != nil {
			return t, err
		}
	}
	return t, nil
}

// coreRung calls the DP engine the kernel would pick, pair by pair, and
// serializes the CIGAR as the kernel does.
func (l *ladder) coreRung() (cells int64) {
	s := core.GetScratch()
	defer core.PutScratch(s)
	for _, r := range l.rounds {
		k := r.cfg
		for _, p := range r.pairs {
			var res core.Result
			switch {
			case k.Traceback:
				res = s.AdaptiveBandAlign(p.A, p.B, k.Params, k.Band)
				if res.Cigar != nil {
					sinkString = res.Cigar.String()
				}
			case k.Lanes(k.Band, false) == 16:
				res = s.AdaptiveBandScoreNarrow(p.A, p.B, k.Params, k.Band)
			default:
				res = s.AdaptiveBandScoreWide(p.A, p.B, k.Params, k.Band)
			}
			cells += res.Cells
		}
	}
	return cells
}

// sinkString keeps the compiler from dropping the CIGAR serialization.
var sinkString string

func (l *ladder) placementRung() {
	if len(l.fleet) == 0 {
		return
	}
	const unit = 1 << 20 // the load quantum host's fleet placement prices backends at
	sec := make([]float64, len(l.fleet))
	for i, be := range l.fleet {
		sec[i] = be.EstimateSec(&l.cfg, unit) / unit
	}
	for _, pairs := range l.sample {
		for _, mb := range l.microBatches(pairs) {
			loads := make([]int64, len(mb))
			for i, p := range mb {
				loads[i] = p.Workload(l.cfg.Kernel.Band)
			}
			host.PlacementAssign(loads, sec)
		}
	}
}

// measure runs the ladder under a live metrics registry, flight recorder
// and log file, as the daemon has them, for at least ladderReps
// interleaved repetitions or until budget is spent.
func (l *ladder) measure(budget time.Duration, logPath string) error {
	logf, err := os.Create(logPath)
	if err != nil {
		return err
	}
	defer logf.Close()
	obs.SetLogOutput(logf)
	defer obs.SetLogOutput(os.Stderr)
	obs.SetDefault(obs.NewRegistry())
	defer obs.SetDefault(nil)
	obs.SetFlight(obs.NewFlightRecorder(0))
	defer obs.SetFlight(nil)

	// Off the clock: build the kernel plan, fill the cache, warm every rung.
	if err := l.plan(); err != nil {
		return err
	}
	if err := l.sessionRung(); err != nil {
		return err
	}
	if err := l.dispatchRung(nil, true); err != nil {
		return err
	}

	// timed appends f's wall seconds to dst.
	timed := func(dst *[]float64, f func() error) error {
		t0 := time.Now()
		err := f()
		*dst = append(*dst, time.Since(t0).Seconds())
		return err
	}
	start := time.Now()
	for rep := 0; rep < ladderReps || (time.Since(start) < budget && rep < 4*ladderReps); rep++ {
		if err := timed(&l.session, l.sessionRung); err != nil {
			return err
		}
		if l.w.cached {
			// Every pair is answered from the cache inside the session:
			// the rungs below it get no input and cost nothing.
			for _, dst := range []*[]float64{&l.dispatch, &l.kern, &l.stage, &l.run, &l.lpt, &l.coreT} {
				*dst = append(*dst, 0)
			}
			continue
		}
		if len(l.fleet) > 0 {
			if err := timed(&l.fleetT, func() error { return l.dispatchRung(l.fleet, false) }); err != nil {
				return err
			}
			timed(&l.placement, func() error { l.placementRung(); return nil })
		}
		if err := timed(&l.dispatch, func() error { return l.dispatchRung(nil, false) }); err != nil {
			return err
		}
		var lt launchTimes
		if err := timed(&l.kern, func() (err error) { lt, err = l.kernelRung(); return err }); err != nil {
			return err
		}
		l.stage = append(l.stage, lt.stage.Seconds())
		l.run = append(l.run, lt.run.Seconds())
		l.lpt = append(l.lpt, lt.lpt.Seconds())
		l.dpuRuns = lt.runs
		timed(&l.coreT, func() error { l.cells = l.coreRung(); return nil })
	}
	return nil
}

package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"pimnw/internal/obs"
)

// instances is how many daemons an untraced run measures on. Each is set
// up from scratch (spawn, /healthz, warm-up pass, cache prefill) and
// serves a third of the window: setup_s and peak_rss_mb are medians of the
// three, latencies pool the three sub-windows' samples, throughput and CPU
// are totals over them. A daemon keeps a mode for its whole life —
// throughput a few percent up or down, small_open's p50 at 1.4 or 1.8 ms
// with the same CPU per pair (heap layout, GC pacing, where the scheduler
// parked its threads) — so a run that sees three is steadier than a run
// that sees one.
const instances = 3

// bench is one benchmark process: where it works and the daemon binary.
type bench struct {
	p      *paths
	alignd string
	nextID int // scratch directory counter

	mu   sync.Mutex
	live *daemon // the daemon now running, for the signal handler to kill
}

func (b *bench) setLive(d *daemon) {
	b.mu.Lock()
	b.live = d
	b.mu.Unlock()
}

// killLive is the signal handler's clean-up: an interrupted benchmark
// must not leave its daemon behind.
func (b *bench) killLive() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.live != nil {
		b.live.kill()
	}
}

func (b *bench) scratch(name string) string {
	b.nextID++
	return filepath.Join(b.p.run, name+"-"+strconv.Itoa(b.nextID))
}

// setUp spawns a daemon for the workload and brings it to the state the
// window expects: every body answered once (which also makes every first
// response pass its full check off the clock), the cache filled and every
// body replayed from it on the cached workload.
func (b *bench) setUp(r *runner) (*daemon, float64, error) {
	t0 := time.Now()
	d, err := startDaemon(b.alignd, r.w, b.p, b.scratch(r.w.name))
	if err != nil {
		return nil, 0, err
	}
	b.setLive(d)
	r.attach(d)
	passes := 1
	if r.w.cached {
		passes = 2 // prefill (all misses and inserts), then a warm pass
	}
	for pass := 0; pass < passes; pass++ {
		r.wantCached = r.w.cached && pass == 1
		// Warm-up is a fixed number of requests, never a fixed time, so
		// two commits warm up on identical work.
		n := max(len(r.pool), warmRequests(r.w))
		if _, err := r.runWindow(d, 0, n); err != nil {
			d.kill()
			return nil, 0, err
		}
	}
	return d, time.Since(t0).Seconds(), nil
}

// warmRequests is the warm-up floor for the workload whose pool is
// answered in a blink: five seconds' worth of the offered load, which the
// closed-loop warm-up pass gets through in under one. Fewer (one second's
// worth, 0.2 s) left setup_s mostly process spawn, which jitters by half.
func warmRequests(w *workload) int {
	return int(5 * w.openRate)
}

// runUntraced measures the end-to-end metrics of one workload.
func (b *bench) runUntraced(w *workload, seed int64, seconds float64) (*result, error) {
	pool := generatePool(w, seed)
	r := newRunner(w, pool)
	var setups, rss []float64
	total := &window{}
	for k := 0; k < instances; k++ {
		d, setup, err := b.setUp(r)
		if err != nil {
			return nil, err
		}
		win, err := r.runWindow(d, seconds/instances, 0)
		if err != nil {
			d.kill()
			return nil, err
		}
		peak, err := d.peakRSSMB()
		if err != nil {
			d.kill()
			return nil, err
		}
		if err := d.stop(); err != nil {
			return nil, err
		}
		setups, rss = append(setups, setup), append(rss, peak)
		total.samples = append(total.samples, win.samples...)
		total.wallSec += win.wallSec
		total.pairsOK += win.pairsOK
		total.cpuSec += win.cpuSec
	}
	res := b.finish(r, seed, seconds, false)
	v := windowMetrics(total, res)
	v["peak_rss_mb"] = median(rss)
	v["trusted_share"] = trustedShare(r.answers())
	v["setup_s"] = median(setups)
	res.fill(endToEnd, v)
	return res, nil
}

// answers is the parsed first response of every body: the cached phase's
// where there is one (it was checked equal to the computed one).
func (r *runner) answers() [][]wireResult {
	if r.w.cached {
		return r.first[1]
	}
	return r.first[0]
}

// finish runs the deferred oracle check and gathers what every run
// reports whatever its mode.
func (b *bench) finish(r *runner, seed int64, seconds float64, traced bool) *result {
	for _, msg := range checkOracle(r.w, r.pool, r.answers(), seed) {
		r.fail("oracle: " + msg)
	}
	res := &result{
		Workload: r.w.name, Traced: traced, Seed: seed, Seconds: seconds,
		Attempted: int(r.attempted.Load()), Failed: int(r.failed.Load()),
		Extra:         map[string]float64{},
		AnswersDigest: answersDigest(r.answers()),
	}
	res.Extra["failed_share"] = float64(res.Failed) / float64(max(1, res.Attempted))
	for _, f := range r.failures {
		res.Notes = append(res.Notes, "FAILED "+f)
	}
	return res
}

// windowMetrics turns a window's samples into the latency and capacity
// numbers, noting the sample counts and any percentile without ten
// samples beyond it.
func windowMetrics(win *window, res *result) map[string]float64 {
	var lat, ttfr []float64
	for _, s := range win.samples {
		if s.failure == "" {
			lat = append(lat, s.latMs)
			ttfr = append(ttfr, s.ttfrMs)
		}
	}
	sort.Float64s(lat)
	sort.Float64s(ttfr)
	v := map[string]float64{
		"pairs_per_s": float64(win.pairsOK) / win.wallSec,
		"req_p50_ms":  percentile(lat, 0.50),
		"req_p90_ms":  percentile(lat, 0.90),
		"ttfr_p50_ms": percentile(ttfr, 0.50),
	}
	if win.pairsOK > 0 {
		v["cpu_ms_per_pair"] = win.cpuSec * 1e3 / float64(win.pairsOK)
	}
	late := 0
	for _, s := range win.samples {
		if s.lateMs > 1 {
			late++
		}
	}
	res.Extra["late_share"] = float64(late) / float64(max(1, len(win.samples)))
	res.Extra["window_requests"] = float64(len(win.samples))
	res.Extra["window_seconds"] = win.wallSec
	if beyond(len(lat), 0.90) < 10 {
		res.Notes = append(res.Notes, fmt.Sprintf("low_n req_p90_ms: %d samples", len(lat)))
	}
	return v
}

// runTraced produces the per-layer metrics of one workload: an untraced
// reference window and a traced window on one daemon (client spans,
// /debug/vars before and after, the daemon's own spans via /debug/trace),
// then, with the daemon gone, the in-process ladder and the leaf probes.
func (b *bench) runTraced(w *workload, seed int64, seconds float64) (*result, error) {
	pool := generatePool(w, seed)
	r := newRunner(w, pool)
	d, _, err := b.setUp(r)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()

	plain, err := r.runWindow(d, 0.4*seconds, 0)
	if err != nil {
		return nil, err
	}
	before, err := d.vars()
	if err != nil {
		return nil, err
	}
	capSec := max(1, int(0.6*seconds))
	type capture struct {
		events []obs.TraceEvent
		err    error
	}
	capDone := make(chan capture, 1)
	capStart := time.Now()
	go func() {
		ev, err := d.captureTrace(capSec)
		capDone <- capture{ev, err}
	}()
	r.traced = true
	win, err := r.runWindow(d, 0.6*seconds, 0)
	r.traced = false
	if err != nil {
		return nil, err
	}
	after, err := d.vars()
	if err != nil {
		return nil, err
	}
	capd := <-capDone
	if capd.err != nil {
		return nil, capd.err
	}
	stopped = true
	if err := d.stop(); err != nil {
		return nil, err
	}

	var spans []span
	for lane := range r.spans {
		spans = append(spans, r.spans[lane]...)
	}
	if err := writeSpans(filepath.Join(b.p.out, "trace_"+w.name+".json"), win.start, spans, capd.events); err != nil {
		return nil, err
	}

	lad, err := newLadder(w, pool, b.scratch("ladder"))
	if err != nil {
		return nil, err
	}
	defer lad.close()
	if err := lad.measure(time.Duration(0.3*seconds*float64(time.Second)), filepath.Join(b.p.out, w.name+".ladder.log")); err != nil {
		return nil, err
	}
	pr, err := runProbes(w, pool, seed, b.scratch("probes"))
	if err != nil {
		return nil, err
	}

	res := b.finish(r, seed, seconds, true)
	v := map[string]float64{}
	for k, x := range pr {
		v[k] = x
	}
	clientLayer(v, win, res)
	daemonLayers(v, w, win, before, after)
	ladderLayers(v, lad, res)
	spanLayers(v, capd.events, win, capStart, capSec)

	// Mean service time outside the handler, and handler time outside the
	// session rung: both differences of means taken under different load,
	// so clamp and flag rather than print a negative.
	var svc []float64
	for _, s := range win.samples {
		svc = append(svc, s.svcMs)
	}
	v["alignd.outside_handler_ms_per_req"] = clampNote(res, "alignd.outside_handler_ms_per_req", mean(svc)-v["alignd.handler_ms_per_req"])
	v["alignd.outside_session_ms_per_req"] = clampNote(res, "alignd.outside_session_ms_per_req", v["alignd.handler_ms_per_req"]-v["session.ms_per_req"])

	pw, tw := float64(plain.pairsOK)/plain.wallSec, float64(win.pairsOK)/win.wallSec
	if pw > 0 {
		v["trace.overhead_pct"] = 100 * (pw - tw) / pw
	}
	res.Extra["untraced_pairs_per_s"] = pw
	res.Extra["traced_pairs_per_s"] = tw
	res.fill(perLayer, v)
	return res, nil
}

func clampNote(res *result, name string, x float64) float64 {
	if x < 0 {
		res.Notes = append(res.Notes, fmt.Sprintf("unresolved %s: %.3f clamped to 0", name, x))
		return 0
	}
	return x
}

func clientLayer(v map[string]float64, win *window, res *result) {
	var lat []float64
	late := 0
	for _, s := range win.samples {
		lat = append(lat, s.latMs)
		if s.lateMs > 1 {
			late++
		}
	}
	sort.Float64s(lat)
	n := float64(max(1, len(win.samples)))
	var lates []float64
	for _, s := range win.samples {
		lates = append(lates, s.lateMs)
	}
	sort.Float64s(lates)
	res.Extra["late_p50_ms"] = percentile(lates, 0.5)
	res.Extra["late_p90_ms"] = percentile(lates, 0.9)
	res.Extra["late_p99_ms"] = percentile(lates, 0.99)
	v["client.req_p99_ms"] = percentile(lat, 0.99)
	v["client.late_share"] = float64(late) / n
	v["client.cpu_ms_per_req"] = win.clientCPU * 1e3 / n
	v["client.requests"] = float64(len(win.samples))
	v["client.failed_share"] = res.Extra["failed_share"]
	if beyond(len(lat), 0.99) < 10 {
		res.Notes = append(res.Notes, fmt.Sprintf("low_n client.req_p99_ms: %d samples", len(lat)))
	}
}

// daemonLayers reads the layers' own counters: differences of the
// daemon's registry and runtime statistics across the traced window.
func daemonLayers(v map[string]float64, w *workload, win *window, before, after *varsSnapshot) {
	count := func(name string) float64 {
		return float64(after.Metrics.Counters[name] - before.Metrics.Counters[name])
	}
	// histMean is the mean of the observations a histogram took in the
	// window, in the histogram's own unit.
	histMean := func(name string) float64 {
		a, b := after.Metrics.Histograms[name], before.Metrics.Histograms[name]
		if a.Count == b.Count {
			return 0
		}
		return (a.Sum - b.Sum) / float64(a.Count-b.Count)
	}
	pairs := float64(max(1, win.pairsOK))

	v["alignd.handler_ms_per_req"] = 1e3 * histMean("alignd_request_seconds")
	v["alignd.rejects"] = count("alignd_requests_rejected_total")

	// The session sums both waits over a request's pairs; divided by the
	// pairs they read as the mean wait of one pair of an average request.
	perPair := 1e3 / float64(w.pairs)
	v["session.queue_wait_ms_per_req"] = perPair * histMean(`alignd_stage_seconds{stage="queue_wait"}`)
	v["session.linger_ms_per_req"] = perPair * histMean(`alignd_stage_seconds{stage="linger"}`)
	v["session.batches"] = count("session_batches_total")
	v["session.flush_size"] = count("session_flush_size_total")
	v["session.flush_linger"] = count("session_flush_linger_total")
	v["session.flush_close"] = count("session_flush_close_total")
	v["session.batch_pairs_mean"] = histMean("session_batch_pairs")

	v["dispatch.rank_batches"] = count("host_batches_total")
	v["dispatch.retries"] = count("host_retries_total")
	v["dispatch.redispatches"] = count("host_redispatches_total")
	v["dispatch.faults_detected"] = count("host_faults_detected_total")
	v["dispatch.escalations"] = count("host_escalations_total")
	v["dispatch.escalation_rounds"] = count("host_escalation_rounds_total")
	v["dispatch.degraded_cpu"] = count("host_degraded_cpu_total")

	v["fleet.pairs_pim0"] = count("host_backend_pim0_pairs_total")
	v["fleet.pairs_pim1"] = count("host_backend_pim1_pairs_total")
	v["fleet.pairs_cpu2"] = count("host_backend_cpu2_pairs_total")

	v["kernel.dpu_runs"] = count("pim_dpu_runs_total")
	v["verify.checked"] = count("host_verify_checked_total")
	v["verify.failures"] = count("host_verify_failures_total")

	hits, misses := count("cache_hits_total"), count("cache_misses_total")
	v["cache.hits"], v["cache.misses"] = hits, misses
	v["cache.inserts"] = count("cache_inserts_total")
	v["cache.evictions"] = count("cache_evictions_total")
	if hits+misses > 0 {
		v["cache.hit_ratio"] = hits / (hits + misses)
	}

	ra, rb := after.Runtime, before.Runtime
	v["daemon.alloc_kb_per_pair"] = float64(ra.TotalAlloc-rb.TotalAlloc) / 1024 / pairs
	v["daemon.mallocs_per_pair"] = float64(ra.Mallocs-rb.Mallocs) / pairs
	v["daemon.gc_count"] = float64(ra.NumGC - rb.NumGC)
	v["daemon.gc_pause_ms"] = float64(ra.PauseTotalNs-rb.PauseTotalNs) / 1e6
	v["daemon.cpu_util"] = win.cpuSec / win.wallSec / float64(runtime.NumCPU())
	v["daemon.goroutines_end"] = float64(ra.Goroutines)
}

// ladderLayers converts rung times (seconds per sample) to milliseconds
// per request and subtracts neighbours for self times. A rung that does
// not stand clear of the one below it by more than its own inter-quartile
// spread is flagged unresolved.
func ladderLayers(v map[string]float64, l *ladder, res *result) {
	perReq := func(samples []float64) float64 { return median(samples) * 1e3 * l.scale }
	self := func(name string, rung, next []float64) float64 {
		s, unresolved := selfTime(rung, next)
		if unresolved && median(rung) > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("unresolved %s: rung %.3f ms, next %.3f ms, rung IQR %.3f ms (per sample)",
				name, 1e3*median(rung), 1e3*median(next), 1e3*iqr(rung)))
		}
		return s * 1e3 * l.scale
	}
	belowSession := l.dispatch
	if len(l.fleet) > 0 {
		belowSession = l.fleetT
		v["fleet.ms_per_req"] = perReq(l.fleetT)
		v["fleet.self_ms_per_req"] = self("fleet.self_ms_per_req", l.fleetT, l.dispatch)
		v["fleet.placement_us_per_req"] = 1e3 * perReq(l.placement)
	}
	v["session.ms_per_req"] = perReq(l.session)
	v["session.self_ms_per_req"] = self("session.self_ms_per_req", l.session, belowSession)
	v["dispatch.ms_per_req"] = perReq(l.dispatch)
	v["dispatch.self_ms_per_req"] = self("dispatch.self_ms_per_req", l.dispatch, l.kern)
	v["dispatch.lpt_us_per_req"] = 1e3 * perReq(l.lpt)
	v["kernel.ms_per_req"] = perReq(l.kern)
	v["kernel.stage_ms_per_req"] = perReq(l.stage)
	v["kernel.run_ms_per_req"] = perReq(l.run)
	v["kernel.self_ms_per_req"] = self("kernel.self_ms_per_req", l.run, l.coreT)
	v["core.ms_per_req"] = perReq(l.coreT)
	v["core.cells_per_req"] = float64(l.cells) * l.scale
	if l.cells > 0 {
		v["core.ns_per_cell"] = median(l.coreT) * 1e9 / float64(l.cells)
	}
	res.Extra["ladder_reps"] = float64(len(l.session))
	res.Extra["ladder_scale"] = l.scale
	res.Extra["ladder_dpu_runs_per_req"] = float64(l.dpuRuns) * l.scale
	res.Extra["ladder_cpu_rung_pairs"] = float64(l.cpuRung)

	// The modelled twin, from the dispatch rung's reports: simulated
	// seconds and counts for the ladder sample, never scaled or timed.
	var mk, frac, util float64
	for _, rep := range l.reports {
		mk += rep.MakespanSec
		frac += rep.HostOverheadFraction() * rep.MakespanSec
		util += rep.UtilizationMean
		v["pim.model_kernel_s_sum"] += rep.KernelSecSum
		v["pim.model_transfer_in_ms"] += 1e3 * rep.TransferInSec
		v["pim.model_transfer_out_ms"] += 1e3 * rep.TransferOutSec
		v["pim.model_cells"] += float64(rep.TotalCells)
		v["pim.model_instr"] += float64(rep.TotalInstr)
		v["pim.model_bytes_in"] += float64(rep.BytesIn)
		v["pim.model_bytes_out"] += float64(rep.BytesOut)
	}
	v["pim.model_makespan_ms"] = 1e3 * mk
	if mk > 0 {
		v["pim.model_host_overhead_frac"] = frac / mk
		v["pim.model_util_mean"] = util / float64(len(l.reports))
	}
	// The measured budget beside it: the share of the session rung that is
	// not DP compute.
	if s := median(l.session); s > 0 {
		res.Extra["measured_host_overhead_frac"] = math.Max(0, 1-median(l.coreT)/s)
	}
}

func iqr(v []float64) float64 {
	q1, _, q3 := quartiles(v)
	return q3 - q1
}

// spanLayers aggregates the daemon's own spans by name and self time and
// spreads them over the requests that completed inside the capture — a
// cross-check of the single-threaded ladder taken under concurrent load.
func spanLayers(v map[string]float64, events []obs.TraceEvent, win *window, capStart time.Time, capSec int) {
	capEnd := capStart.Add(time.Duration(capSec) * time.Second)
	reqs := 0
	for _, s := range win.samples {
		if s.endAt.After(capStart) && s.endAt.Before(capEnd) {
			reqs++
		}
	}
	if reqs == 0 {
		return
	}
	self := spanSelfTimes(events)
	for metric, name := range map[string]string{
		"span.host_session_batch_ms_per_req": "host.session_batch",
		"span.host_batch_ms_per_req":         "host.batch",
		"span.host_encode_ms_per_req":        "host.encode",
		"span.host_kernel_ms_per_req":        "host.kernel",
		"span.host_escalate_ms_per_req":      "host.escalate",
		"span.host_fleet_shard_ms_per_req":   "host.fleet_shard",
	} {
		v[metric] = self[name] / 1e3 / float64(reqs)
	}
}

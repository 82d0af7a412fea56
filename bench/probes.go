package main

import (
	"context"
	"math/rand"
	"path/filepath"
	"time"

	"pimnw/internal/admission"
	"pimnw/internal/admission/config"
	"pimnw/internal/baseline"
	"pimnw/internal/cache"
	"pimnw/internal/core"
	"pimnw/internal/host"
	"pimnw/internal/obs"
	"pimnw/internal/seq"
	"pimnw/internal/verify"
)

// Leaf probes time the public calls the ladder does not reach, each in a
// tight single-threaded loop: the cost of the call itself, without HTTP,
// contention or cache misses in the surrounding code.

// nsPerOp runs f in five batches of iters calls and returns the median
// batch's nanoseconds per call.
func nsPerOp(iters int, f func()) float64 {
	batches := make([]float64, 5)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		batches[b] = float64(time.Since(t0).Nanoseconds()) / float64(iters)
	}
	return median(batches)
}

// probeClass defeats constant folding of the label concatenation below.
var probeClass = "bulk"

// runProbes returns every leaf-probe reading, keyed by per-layer metric
// name.
func runProbes(w *workload, pool []*body, seed int64, scratchDir string) (map[string]float64, error) {
	out := map[string]float64{}
	def := config.Default()

	ctl, err := admission.NewController(def.AdmissionLimits())
	if err != nil {
		return nil, err
	}
	out["admission.allow_ns"] = nsPerOp(20000, func() { ctl.Allow("", "127.0.0.1") })

	gate := host.NewGate(host.GateConfig{
		Slots:            def.Queues.Slots,
		InteractiveQueue: def.Queues.Interactive,
		BulkQueue:        def.Queues.Bulk,
		MaxRetryAfter:    def.Queues.MaxRetryAfter,
	})
	ctx := context.Background()
	out["gate.acquire_release_ns"] = nsPerOp(20000, func() {
		if gate.Acquire(ctx, host.ClassBulk) == nil {
			gate.Release()
		}
	})

	// The daemon names labelled series by string concatenation and looks
	// them up in the registry on every observation; so does the probe.
	reg := obs.NewRegistry()
	buckets := []float64{1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1, 3, 10}
	out["obs.counter_ns"] = nsPerOp(20000, func() {
		reg.Counter(`alignd_class_requests_total{class="` + probeClass + `"}`).Add(1)
	})
	out["obs.histogram_observe_ns"] = nsPerOp(20000, func() {
		reg.Histogram(`alignd_stage_seconds{stage="`+probeClass+`"}`, buckets).Observe(1e-3)
	})

	rng := rand.New(rand.NewSource(seed))
	kb := seq.Random(rng, 1000)
	kbText := kb.String()
	out["seq.digest_ns_per_kb"] = nsPerOp(5000, func() { seq.DigestSeq(kb) })
	out["seq.fromstring_ns_per_kb"] = nsPerOp(2000, func() { seq.FromString(kbText, nil) })

	// verify and the exact baseline, on the workload's own pairs cut to at
	// most 2 kb so a 10 kb pair does not cost a full 100 M-cell matrix.
	params := core.DefaultParams()
	var pairs []host.Pair
	for _, p := range pool[0].pairs[:min(8, len(pool[0].pairs))] {
		pairs = append(pairs, host.Pair{ID: p.ID, A: p.A[:min(2000, len(p.A))], B: p.B[:min(2000, len(p.B))]})
	}
	cigars := make([]string, len(pairs))
	scores := make([]int32, len(pairs))
	for i, p := range pairs {
		res := core.AdaptiveBandAlign(p.A, p.B, params, 128)
		if res.Cigar != nil {
			cigars[i], scores[i] = res.Cigar.String(), res.Score
		}
	}
	out["verify.us_per_pair"] = nsPerOp(3, func() {
		for i, p := range pairs {
			if cigars[i] != "" {
				verify.CheckPair(p.A, p.B, params, scores[i], cigars[i])
			}
		}
	}) / 1e3 / float64(len(pairs))
	bp := make([]baseline.Pair, min(4, len(pairs)))
	for i := range bp {
		bp[i] = baseline.Pair{ID: pairs[i].ID, A: pairs[i].A, B: pairs[i].B}
	}
	opts := baseline.Options{Params: params, Exact: true, Threads: 1, Traceback: w.class == "bulk"}
	out["baseline.us_per_pair"] = nsPerOp(1, func() { baseline.Run(opts, bp) }) / 1e3 / float64(len(bp))

	if err := probeCache(out, rng, filepath.Join(scratchDir, "probe-cache")); err != nil {
		return nil, err
	}
	return out, nil
}

// probeCache times the result cache's four paths on 1 kb CIGAR values:
// insert (WAL append, interval fsync as the daemon runs it), hot-tier
// hit, miss, and — after a reopen, which replays the index but leaves the
// hot tier empty — the WAL-read hit.
func probeCache(out map[string]float64, rng *rand.Rand, dir string) error {
	const n = 1024
	keys := make([]cache.Key, 2*n)
	for i := range keys {
		keys[i] = cache.Key{
			A: seq.DigestSeq(seq.Random(rng, 64)), B: seq.DigestSeq(seq.Random(rng, 64)),
			Params: core.DefaultParams(), Band: 128, Lanes: 64, Flags: cache.FlagTraceback,
		}
	}
	val := cache.Value{Score: 1234, InBand: true, Status: "ok", Provenance: "dpu-banded@128",
		Cigar: []byte("120=1X45=2I300=1D77=1X200=3D250=")}
	c, err := cache.Open(cache.Options{Dir: dir})
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, k := range keys[:n] {
		if err := c.Insert(k, val); err != nil {
			c.Close()
			return err
		}
	}
	out["cache.insert_us"] = float64(time.Since(t0).Microseconds()) / n
	i := 0
	out["cache.lookup_hot_ns"] = nsPerOp(n, func() { c.Lookup(keys[i%n]); i++ })
	out["cache.lookup_miss_ns"] = nsPerOp(n, func() { c.Lookup(keys[n+i%n]); i++ })
	if err := c.Close(); err != nil {
		return err
	}
	if c, err = cache.Open(cache.Options{Dir: dir}); err != nil {
		return err
	}
	defer c.Close()
	t0 = time.Now()
	for _, k := range keys[:n] {
		c.Lookup(k)
	}
	out["cache.lookup_disk_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	return nil
}

package main

// metricSpec names one reported number. BENCHMARK.json lists the same
// names, units and bounds; TestBenchmarkJSONMatchesTables keeps the two
// from drifting.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of alignd sees, reported per workload by the
// untraced run. failed_share is reported beside these but is not one of
// them: it reads 0 on every healthy run, and a bound stated as a share of
// the parent's median cannot guard a zero. Failures instead make the run
// incorrect (exit status 1, "correct": false).
//
// The bounds are set by the noisiest workload and the noisiest hour: a
// metric's spread between ten runs of one commit (inter-quartile distance
// over median) must stay inside its bound on every workload, and the aim
// is a third of it. Four sets of ten runs on this shared 2-core box read
// 1.5-5% on the closed-loop workloads in a quiet hour and up to 8% in a
// busy one; small_open (1.5 ms requests, open loop) read 4-19% on its
// latencies and 3-11% on its CPU; and the box's own speed drifted by up
// to 19% between two back-to-back sets of three suites. Hence 25%, the
// most the contract allows, on everything timing-dependent.
var endToEnd = []metricSpec{
	{"pairs_per_s", "pairs/s", "higher", 0.25},
	{"req_p50_ms", "ms", "lower", 0.25},
	{"req_p90_ms", "ms", "lower", 0.25},
	{"ttfr_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_pair", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"trusted_share", "ratio", "higher", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the traced run's output, named <module>.<what>. Times with a
// _per_req suffix come from the in-process ladder or from daemon counters
// divided by the window's requests; *_ns and *_us without it are leaf
// probes; pim.model_* are simulated statistics and must repeat exactly.
var perLayer = []metricSpec{
	{"client.req_p99_ms", "ms", "lower", 0},
	{"client.late_share", "ratio", "lower", 0},
	{"client.cpu_ms_per_req", "ms", "lower", 0},
	{"client.requests", "count", "higher", 0},
	{"client.failed_share", "ratio", "lower", 0},

	{"alignd.handler_ms_per_req", "ms", "lower", 0},
	{"alignd.outside_handler_ms_per_req", "ms", "lower", 0},
	{"alignd.outside_session_ms_per_req", "ms", "lower", 0},
	{"alignd.rejects", "count", "lower", 0},

	{"admission.allow_ns", "ns", "lower", 0},
	{"gate.acquire_release_ns", "ns", "lower", 0},

	{"session.ms_per_req", "ms", "lower", 0},
	{"session.self_ms_per_req", "ms", "lower", 0},
	{"session.queue_wait_ms_per_req", "ms", "lower", 0},
	{"session.linger_ms_per_req", "ms", "lower", 0},
	{"session.batches", "count", "lower", 0},
	{"session.flush_size", "count", "higher", 0},
	{"session.flush_linger", "count", "lower", 0},
	{"session.flush_close", "count", "lower", 0},
	{"session.batch_pairs_mean", "pairs", "higher", 0},

	{"dispatch.ms_per_req", "ms", "lower", 0},
	{"dispatch.self_ms_per_req", "ms", "lower", 0},
	{"dispatch.lpt_us_per_req", "us", "lower", 0},
	{"dispatch.rank_batches", "count", "lower", 0},
	{"dispatch.retries", "count", "lower", 0},
	{"dispatch.redispatches", "count", "lower", 0},
	{"dispatch.faults_detected", "count", "lower", 0},
	{"dispatch.escalations", "count", "lower", 0},
	{"dispatch.escalation_rounds", "count", "lower", 0},
	{"dispatch.degraded_cpu", "count", "lower", 0},

	{"fleet.ms_per_req", "ms", "lower", 0},
	{"fleet.self_ms_per_req", "ms", "lower", 0},
	{"fleet.placement_us_per_req", "us", "lower", 0},
	{"fleet.pairs_pim0", "count", "higher", 0},
	{"fleet.pairs_pim1", "count", "higher", 0},
	{"fleet.pairs_cpu2", "count", "higher", 0},

	{"kernel.ms_per_req", "ms", "lower", 0},
	{"kernel.stage_ms_per_req", "ms", "lower", 0},
	{"kernel.run_ms_per_req", "ms", "lower", 0},
	{"kernel.self_ms_per_req", "ms", "lower", 0},
	{"kernel.dpu_runs", "count", "lower", 0},

	{"pim.model_makespan_ms", "ms", "lower", 0},
	{"pim.model_kernel_s_sum", "s", "lower", 0},
	{"pim.model_transfer_in_ms", "ms", "lower", 0},
	{"pim.model_transfer_out_ms", "ms", "lower", 0},
	{"pim.model_host_overhead_frac", "ratio", "lower", 0},
	{"pim.model_util_mean", "ratio", "higher", 0},
	{"pim.model_cells", "count", "lower", 0},
	{"pim.model_instr", "count", "lower", 0},
	{"pim.model_bytes_in", "count", "lower", 0},
	{"pim.model_bytes_out", "count", "lower", 0},

	{"core.ms_per_req", "ms", "lower", 0},
	{"core.ns_per_cell", "ns", "lower", 0},
	{"core.cells_per_req", "count", "lower", 0},

	{"verify.us_per_pair", "us", "lower", 0},
	{"verify.checked", "count", "higher", 0},
	{"verify.failures", "count", "lower", 0},
	{"baseline.us_per_pair", "us", "lower", 0},

	{"cache.lookup_hot_ns", "ns", "lower", 0},
	{"cache.lookup_disk_ns", "ns", "lower", 0},
	{"cache.lookup_miss_ns", "ns", "lower", 0},
	{"cache.insert_us", "us", "lower", 0},
	{"cache.hits", "count", "higher", 0},
	{"cache.misses", "count", "lower", 0},
	{"cache.inserts", "count", "lower", 0},
	{"cache.evictions", "count", "lower", 0},
	{"cache.hit_ratio", "ratio", "higher", 0},
	{"seq.digest_ns_per_kb", "ns", "lower", 0},
	{"seq.fromstring_ns_per_kb", "ns", "lower", 0},

	{"obs.counter_ns", "ns", "lower", 0},
	{"obs.histogram_observe_ns", "ns", "lower", 0},

	{"daemon.alloc_kb_per_pair", "KB", "lower", 0},
	{"daemon.mallocs_per_pair", "count", "lower", 0},
	{"daemon.gc_count", "count", "lower", 0},
	{"daemon.gc_pause_ms", "ms", "lower", 0},
	{"daemon.cpu_util", "ratio", "lower", 0},
	{"daemon.goroutines_end", "count", "lower", 0},

	{"span.host_session_batch_ms_per_req", "ms", "lower", 0},
	{"span.host_batch_ms_per_req", "ms", "lower", 0},
	{"span.host_encode_ms_per_req", "ms", "lower", 0},
	{"span.host_kernel_ms_per_req", "ms", "lower", 0},
	{"span.host_escalate_ms_per_req", "ms", "lower", 0},
	{"span.host_fleet_shard_ms_per_req", "ms", "lower", 0},

	{"trace.overhead_pct", "%", "lower", 0},
}

// exactMetrics must agree to the last digit between two runs of one seed:
// simulated statistics, a seed-determined share and a cell count. A
// simulator speed-up may not move any of them.
var exactMetrics = []string{
	"trusted_share", "core.cells_per_req",
	"pim.model_makespan_ms", "pim.model_kernel_s_sum", "pim.model_transfer_in_ms",
	"pim.model_transfer_out_ms", "pim.model_host_overhead_frac", "pim.model_util_mean",
	"pim.model_cells", "pim.model_instr", "pim.model_bytes_in", "pim.model_bytes_out",
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Extra are readings printed beside the contract's metrics:
	// failed_share, the sample counts behind the percentiles.
	Extra map[string]float64 `json:"extra,omitempty"`
	// Notes flag what a reader must not over-trust: low_n percentiles,
	// unresolved ladder rungs, failure messages.
	Notes []string `json:"notes,omitempty"`
	// AnswersDigest identifies the daemon's answers for the pool, leaving
	// out placement and delivery; fleet_bulk's must equal s1000_bulk's.
	AnswersDigest string `json:"answers_digest"`
}

// fill reports every metric of the table, zero where the run had nothing
// to say, in the table's units.
func (r *result) fill(specs []metricSpec, values map[string]float64) {
	r.Metrics = make(map[string]metric, len(specs))
	for _, s := range specs {
		r.Metrics[s.name] = metric{Value: values[s.name], Unit: s.unit}
	}
}

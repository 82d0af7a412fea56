package host

import (
	"bytes"
	"encoding/json"
	"testing"

	"pimnw/internal/obs"
	"pimnw/internal/seq"
)

// TestObservabilityIntegration runs the full pipeline with metrics and
// tracing enabled and checks the three run artifacts against the Report:
// the Prometheus counters, the Chrome trace events, and the JSON report.
func TestObservabilityIntegration(t *testing.T) {
	reg, tr := obs.NewRegistry(), obs.NewTracer()
	obs.SetDefault(reg)
	obs.SetDefaultTracer(tr)
	defer obs.SetDefault(nil)
	defer obs.SetDefaultTracer(nil)

	cfg := testConfig(2, true)
	pairs := makePairs(7, 16, 120, 0.1)
	rep, results, err := AlignPairs(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(pairs) {
		t.Fatalf("results = %d, want %d", len(results), len(pairs))
	}

	// The acceptance criterion: the metric and the report count the same
	// cells, alignments, and batches.
	if got := reg.Counter("pim_cells_total").Value(); got != rep.TotalCells {
		t.Errorf("pim_cells_total = %d, Report.TotalCells = %d", got, rep.TotalCells)
	}
	if got := reg.Counter("pim_alignments_total").Value(); got != int64(rep.Alignments) {
		t.Errorf("pim_alignments_total = %d, Report.Alignments = %d", got, rep.Alignments)
	}
	if got := reg.Counter("host_batches_total").Value(); got != int64(rep.Batches) {
		t.Errorf("host_batches_total = %d, Report.Batches = %d", got, rep.Batches)
	}
	if got := reg.Gauge("host_makespan_seconds").Value(); got != rep.MakespanSec {
		t.Errorf("host_makespan_seconds = %v, Report.MakespanSec = %v", got, rep.MakespanSec)
	}

	// Every rank batch must appear in the Chrome trace as the three
	// pipeline slices (transfer in, kernel, transfer out) on pid rank+1.
	events := rep.ChromeTraceEvents()
	type lane struct{ pid, tid int }
	slices := map[lane]int{}
	for _, ev := range events {
		if ev.Ph == "X" {
			slices[lane{ev.Pid, ev.Tid}]++
		}
	}
	perRankBatches := map[int]int{}
	for _, rs := range rep.Ranks {
		perRankBatches[rs.Rank]++
	}
	if len(rep.Ranks) == 0 {
		t.Fatal("report has no rank batches")
	}
	for rank, batches := range perRankBatches {
		for tid := 0; tid <= 2; tid++ {
			if got := slices[lane{rank + 1, tid}]; got != batches {
				t.Errorf("rank %d tid %d: %d slices, want %d (one per batch)",
					rank, tid, got, batches)
			}
		}
	}

	// The serialized trace must be a JSON array where every event carries
	// the six required trace-event keys.
	var buf bytes.Buffer
	if err := obs.WriteTraceEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(parsed) != len(events) {
		t.Fatalf("serialized %d events, emitted %d", len(parsed), len(events))
	}
	for i, ev := range parsed {
		for _, key := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("event %d missing %q: %v", i, key, ev)
			}
		}
		if ev["ph"] == "X" {
			if _, ok := ev["dur"]; !ok {
				t.Fatalf("complete event %d missing dur: %v", i, ev)
			}
		}
	}

	// The wall-clock tracer recorded the pipeline span hierarchy.
	names := map[string]bool{}
	for _, ev := range tr.Events(0) {
		names[ev.Name] = true
	}
	for _, want := range []string{
		"host.align_pairs", "host.balance", "host.batch",
		"host.encode", "host.kernel", "host.dispatch", "host.collect",
	} {
		if !names[want] {
			t.Errorf("tracer missing span %q (have %v)", want, names)
		}
	}

	// The JSON report round-trips with the documented fields.
	buf.Reset()
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rj); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	for _, key := range []string{
		"makespan_sec", "host_overhead_fraction", "total_cells",
		"alignments", "batches", "utilization_min", "utilization_mean", "ranks",
	} {
		if _, ok := rj[key]; !ok {
			t.Errorf("report JSON missing %q", key)
		}
	}
	if got := rj["total_cells"].(float64); int64(got) != rep.TotalCells {
		t.Errorf("report JSON total_cells = %v, want %d", got, rep.TotalCells)
	}
	if got := rj["ranks"].([]any); len(got) != len(rep.Ranks) {
		t.Errorf("report JSON ranks = %d entries, want %d", len(got), len(rep.Ranks))
	}
}

// TestVerifySecondsPublished: the two measured host-side costs are
// exported as siblings — host_verify_seconds used to be missing next to
// host_cpu_fallback_seconds.
func TestVerifySecondsPublished(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)

	cfg := testConfig(2, true)
	cfg.Verify = true
	rep, _, err := AlignPairs(cfg, makePairs(8, 16, 200, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if rep.VerifyChecked == 0 || rep.VerifySec <= 0 {
		t.Fatalf("verify did not run: %d checks in %vs", rep.VerifyChecked, rep.VerifySec)
	}
	if got := reg.Gauge("host_verify_seconds").Value(); got != rep.VerifySec {
		t.Errorf("host_verify_seconds = %v, Report.VerifySec = %v", got, rep.VerifySec)
	}
}

// TestObservabilityBroadcastPath covers the all-against-all workload too:
// it is a pair list on the one pipeline, so the same metric/report
// invariants hold and the spans are the pipeline's.
func TestObservabilityBroadcastPath(t *testing.T) {
	reg, tr := obs.NewRegistry(), obs.NewTracer()
	obs.SetDefault(reg)
	obs.SetDefaultTracer(tr)
	defer obs.SetDefault(nil)
	defer obs.SetDefaultTracer(nil)

	cfg := testConfig(1, false)
	pairs := makePairs(9, 5, 80, 0.08)
	seqs := make([]seq.Seq, len(pairs))
	for i, p := range pairs {
		seqs[i] = p.A
	}
	rep, results, err := AlignPairs(cfg, AllPairs(seqs))
	if err != nil {
		t.Fatal(err)
	}
	wantAlignments := len(seqs) * (len(seqs) - 1) / 2
	if len(results) != wantAlignments {
		t.Fatalf("results = %d, want %d", len(results), wantAlignments)
	}
	if got := reg.Counter("pim_cells_total").Value(); got != rep.TotalCells {
		t.Errorf("pim_cells_total = %d, Report.TotalCells = %d", got, rep.TotalCells)
	}
	names := map[string]bool{}
	for _, ev := range tr.Events(0) {
		names[ev.Name] = true
	}
	for _, want := range []string{"host.align_pairs", "host.batch", "host.kernel", "host.collect"} {
		if !names[want] {
			t.Errorf("tracer missing span %q (have %v)", want, names)
		}
	}
}

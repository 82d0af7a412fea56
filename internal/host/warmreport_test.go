package host

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"pimnw/internal/obs"
)

// Satellite regression for the all-cache-hit edge case: a fully-warm
// session executes nothing on the fabric, so its merged report is
// zero-duration (no batches, no ranks, zero makespan). Every derived
// metric and exporter must stay finite and valid on that report —
// HostOverheadFraction must not divide by the zero makespan, the stage
// breakdown must not go NaN, the ASCII timeline must render its empty
// form, and both the Chrome trace and JSON exporters must emit valid
// output (the stock JSON encoder errors outright on NaN/Inf, so a bad
// value here used to surface as a 500 from the serving endpoints).
func TestSessionAllHitsZeroDurationReport(t *testing.T) {
	pairs := makePairs(63, 48, 140, 0.06)
	cfg := SessionConfig{Host: testConfig(2, true), MaxBatchPairs: 16, QueueLimit: len(pairs)}
	cfg.Host.Escalate = true // certify every pair so the warm run is all hits
	cfg.Cache = openHostCache(t)

	streamAll(t, cfg, pairs) // fill

	// Warm run through an explicit Session so Stages() is reachable.
	s, err := NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, p := range pairs {
			if err := s.Submit(p); err != nil {
				t.Error(err)
				break
			}
		}
		s.Close()
	}()
	n := 0
	for range s.Results() {
		n++
	}
	if n != len(pairs) {
		t.Fatalf("warm session streamed %d results for %d pairs", n, len(pairs))
	}
	rep := s.Report()
	if rep.CacheHits != len(pairs) {
		t.Fatalf("warm session: %d hits for %d pairs", rep.CacheHits, len(pairs))
	}
	if rep.Batches != 0 || len(rep.Ranks) != 0 || rep.MakespanSec != 0 {
		t.Fatalf("warm session touched the fabric: %d batches, %d ranks, makespan %v",
			rep.Batches, len(rep.Ranks), rep.MakespanSec)
	}

	finite := func(name string, v float64) {
		t.Helper()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s = %v on a zero-duration report", name, v)
		}
	}
	f := rep.HostOverheadFraction()
	finite("HostOverheadFraction", f)
	if f != 0 {
		t.Errorf("HostOverheadFraction = %v, want 0 when nothing executed", f)
	}
	finite("UtilizationMin", rep.UtilizationMin)
	finite("UtilizationMean", rep.UtilizationMean)

	st := s.Stages()
	finite("Stages.QueueWaitSec", st.QueueWaitSec)
	finite("Stages.LingerSec", st.LingerSec)
	finite("Stages.KernelSec", st.KernelSec)
	finite("Stages.WaitRetrySec", st.WaitRetrySec)
	finite("Stages.EscalationSec", st.EscalationSec)
	finite("Stages.VerifySec", st.VerifySec)

	if tl := rep.Timeline(80); tl != "(empty timeline)\n" {
		t.Errorf("Timeline on zero-duration report = %q", tl)
	}

	for _, ev := range rep.ChromeTraceEvents() {
		finite("trace event Ts", ev.Ts)
		finite("trace event Dur", ev.Dur)
	}
	var trace bytes.Buffer
	if err := obs.WriteTraceEvents(&trace, rep.ChromeTraceEvents()); err != nil {
		t.Fatalf("WriteTraceEvents on zero-duration report: %v", err)
	}
	var traceDoc any
	if err := json.Unmarshal(trace.Bytes(), &traceDoc); err != nil {
		t.Fatalf("Chrome trace of zero-duration report is not valid JSON: %v", err)
	}

	var rj bytes.Buffer
	if err := rep.WriteJSON(&rj); err != nil {
		t.Fatalf("WriteJSON on zero-duration report: %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(rj.Bytes(), &doc); err != nil {
		t.Fatalf("report JSON is not valid JSON: %v", err)
	}
	if hof, ok := doc["host_overhead_fraction"].(float64); !ok || hof != 0 {
		t.Errorf("report JSON host_overhead_fraction = %v, want 0", doc["host_overhead_fraction"])
	}
	// The exporter used to mirror Report by hand and forgot the cache
	// tallies; the tagged struct carries them.
	if hits, ok := doc["cache_hits"].(float64); !ok || int(hits) != len(pairs) {
		t.Errorf("report JSON cache_hits = %v, want %d", doc["cache_hits"], len(pairs))
	}
}

// TestEmptyReportsAgree pins every way the pipeline can report "nothing
// executed on the fabric" to the same timeline: neutral utilizations, the
// run's trace ID, no batches — and exports that stay finite and valid.
func TestEmptyReportsAgree(t *testing.T) {
	const traceID = "empty-trace"
	cfg := testConfig(2, true)
	cfg.Escalate = true
	cfg.TraceID = traceID

	idle := func(t *testing.T) *Report {
		s, err := NewSession(context.Background(), SessionConfig{Host: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return s.Report()
	}
	allHits := func(t *testing.T) *Report {
		pairs := makePairs(64, 8, 120, 0.05)
		scfg := SessionConfig{Host: cfg, Cache: openHostCache(t)}
		streamAll(t, scfg, pairs)
		rep, _ := streamAll(t, scfg, pairs)
		if rep.CacheHits != len(pairs) {
			t.Fatalf("warm run: %d hits for %d pairs", rep.CacheHits, len(pairs))
		}
		return rep
	}
	cases := []struct {
		name string
		get  func(t *testing.T) *Report
	}{
		{"AlignPairs with no pairs", func(t *testing.T) *Report {
			rep, _, err := AlignPairs(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}},
		{"idle session", idle},
		{"all-hit micro-batch", allHits},
		{"fleet with nothing placed", func(t *testing.T) *Report {
			fcfg := cfg
			fcfg.Backends = twoBackendFleet()
			rep, _, err := alignFleet(fcfg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}},
	}
	for _, tc := range cases {
		rep := tc.get(t)
		if f := rep.HostOverheadFraction(); f != 0 {
			t.Errorf("%s: HostOverheadFraction = %v, want 0", tc.name, f)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Errorf("%s: WriteJSON: %v", tc.name, err)
		} else if !json.Valid(buf.Bytes()) {
			t.Errorf("%s: report JSON is invalid", tc.name)
		}
		buf.Reset()
		if err := obs.WriteTraceEvents(&buf, rep.ChromeTraceEvents()); err != nil {
			t.Errorf("%s: WriteTraceEvents: %v", tc.name, err)
		} else if !json.Valid(buf.Bytes()) {
			t.Errorf("%s: Chrome trace is invalid JSON", tc.name)
		}
		// What the run tallied and which servers it had differ by
		// construction; the timeline must not.
		got := *rep
		got.Counters, got.Backends = Counters{}, nil
		if want := *newReport(traceID); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: empty report = %+v, want %+v", tc.name, got, want)
		}
	}
}

package host

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pimnw/internal/pim"
)

var updateGolden = flag.Bool("update-report-golden", false,
	"rewrite internal/host/testdata/report_golden/*.json from the current code")

// goldenReports runs the fixed seeded matrix the report algebra is pinned
// on: every way the pipeline composes reports (plain round, sequential
// micro-batches, escalation rounds, recovery, concurrent fleet servers
// with a mid-run loss, all-hit cache replay).
func goldenReports(t *testing.T) map[string]*Report {
	t.Helper()
	out := map[string]*Report{}
	// A modelled report is a function of micro-batch composition (fault
	// draws are keyed by batch); streamAll goes through AlignPairsStream,
	// which switches the linger clock off, so only size and Close cut a
	// batch, never the wall clock.
	run := func(name string, cfg SessionConfig, pairs []Pair) {
		t.Helper()
		rep, _ := streamAll(t, cfg, pairs)
		out[name] = rep
	}

	pairs := makePairs(901, 48, 300, 0.06)
	rep, _, err := AlignPairs(testConfig(2, true), pairs)
	if err != nil {
		t.Fatal(err)
	}
	out["oneshot"] = rep

	// Micro-batches of a session run concurrently but merge in sequence
	// order, and none of these cases shares mutable state across batches,
	// so the merged report is deterministic.
	run("session3", SessionConfig{Host: testConfig(2, true), MaxBatchPairs: 16, QueueLimit: len(pairs)}, pairs)

	esc := escalationConfig(true)
	run("escalation", SessionConfig{Host: esc, MaxBatchPairs: 16, QueueLimit: 40}, indelPairs(902, 40, 260))

	faulty := testConfig(2, true)
	faulty.Faults = pim.FaultConfig{Rate: 0.05, Seed: 11}
	faulty.MaxRetries = 3
	faulty.RetryBackoffSec = 1e-3
	faulty.Escalate = true
	run("faults", SessionConfig{Host: faulty, MaxBatchPairs: 64, QueueLimit: 160}, makePairs(904, 160, 150, 0.06))

	out["fleet_loss"] = goldenFleetLoss(t)

	warm := SessionConfig{Host: testConfig(2, true), MaxBatchPairs: 16, QueueLimit: len(pairs)}
	warm.Host.Escalate = true
	warm.Host.TraceID = "golden-warm"
	warm.Cache = openHostCache(t)
	streamAll(t, warm, pairs)
	run("warm_cache", warm, pairs)
	return out
}

// goldenFleetLoss streams three micro-batches through a pim:20,pim:20,cpu:4
// fleet and kills the second PiM server after the first batch has been
// delivered, so the report folds a same-server redispatch round, a lost
// shard and sequential fleet micro-batches. One batch in flight at a time
// keeps the moment of the loss deterministic.
func goldenFleetLoss(t *testing.T) *Report {
	t.Helper()
	fleet, err := ParseFleet("pim:20,pim:20,cpu:4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(4, true)
	cfg.Escalate = true
	cfg.Backends = fleet
	pairs := makePairs(903, 60, 300, 0.1)
	s, err := NewSession(context.Background(), SessionConfig{
		Host: cfg, MaxBatchPairs: 20, QueueLimit: len(pairs), MaxConcurrentBatches: 1, MaxLinger: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(ps []Pair) {
		for _, p := range ps {
			if err := s.Submit(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(pairs[:20])
	for i := 0; i < 20; i++ {
		<-s.Results()
	}
	fleet[1].(*PiMBackend).FailRounds(1)
	go func() {
		submit(pairs[20:])
		s.Close()
	}()
	n := 20
	for range s.Results() {
		n++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(pairs) {
		t.Fatalf("fleet session streamed %d results for %d pairs", n, len(pairs))
	}
	return s.Report()
}

// TestReportGoldenDifferential pins the report algebra against the
// reports the hand-enumerated merges produced at the commit before they
// were deleted: every key of the committed goldens must come back
// byte-for-byte. The two measured wall-clock fields are zeroed on both
// sides; the cache tallies, which the old exporter forgot, are the only
// keys allowed to be new.
func TestReportGoldenDifferential(t *testing.T) {
	dir := filepath.Join("testdata", "report_golden")
	added := map[string]bool{"cache_hits": true, "cache_misses": true, "deduped_pairs": true}
	for name, rep := range goldenReports(t) {
		rep.CPUFallbackSec, rep.VerifySec = 0, 0
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		path := filepath.Join(dir, name+".json")
		if *updateGolden {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want, got map[string]json.RawMessage
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("%s: golden: %v", name, err)
		}
		if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for k, w := range want {
			if g, ok := got[k]; !ok {
				t.Errorf("%s: key %q disappeared", name, k)
			} else if !bytes.Equal(w, g) {
				t.Errorf("%s: key %q changed:\n got %s\nwant %s", name, k, g, w)
			}
		}
		for k := range got {
			if _, ok := want[k]; !ok && !added[k] {
				t.Errorf("%s: unexpected new key %q", name, k)
			}
		}
	}
}

package host

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"

	"pimnw/internal/core"
	"pimnw/internal/obs"
	"pimnw/internal/pim"
)

// resultKey collapses one alignment to the fields that must survive
// recovery bit-identically.
type resultKey struct {
	Score  int32
	InBand bool
	Cigar  string
}

func resultMap(t *testing.T, results []Result) map[int]resultKey {
	t.Helper()
	m := make(map[int]resultKey, len(results))
	for _, r := range results {
		if _, dup := m[r.ID]; dup {
			t.Fatalf("pair %d delivered twice", r.ID)
		}
		m[r.ID] = resultKey{Score: r.Score, InBand: r.InBand, Cigar: string(r.Cigar)}
	}
	return m
}

// maxKernelSec is the slowest healthy rank window, the anchor for batch
// deadlines in these tests.
func maxKernelSec(rep *Report) float64 {
	var m float64
	for _, rs := range rep.Ranks {
		if rs.KernelSec > m {
			m = rs.KernelSec
		}
	}
	return m
}

// TestAlignPairsBitIdenticalUnderFaults is the acceptance test of the
// recovery subsystem: with faults injected at 5 % and retries enabled,
// every score and CIGAR must equal the fault-free run's, because the
// kernel is deterministic and recovery redispatches rather than skips.
func TestAlignPairsBitIdenticalUnderFaults(t *testing.T) {
	pairs := makePairs(21, 100, 200, 0.1)
	clean := testConfig(2, true)
	cleanRep, cleanResults, err := AlignPairs(clean, pairs)
	if err != nil {
		t.Fatal(err)
	}

	faulty := testConfig(2, true)
	faulty.Faults = pim.FaultConfig{Rate: 0.05, Seed: 1234}
	faulty.MaxRetries = 8
	faulty.BatchDeadlineSec = 1.5 * maxKernelSec(cleanRep)
	faulty.RetryBackoffSec = 1e-4
	rep, results, err := AlignPairs(faulty, pairs)
	if err != nil {
		t.Fatal(err)
	}

	if rep.AbandonedPairs != 0 {
		t.Fatalf("recovery abandoned %d pairs (IDs %v)", rep.AbandonedPairs, rep.AbandonedIDs)
	}
	if rep.FaultsDetected == 0 || rep.Retries == 0 {
		t.Fatalf("fault injection inert: %d faults detected, %d retries — the test is not exercising recovery",
			rep.FaultsDetected, rep.Retries)
	}
	want := resultMap(t, cleanResults)
	got := resultMap(t, results)
	if len(got) != len(want) {
		t.Fatalf("%d results under faults, %d fault-free", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("pair %d missing under faults", id)
		}
		if g != w {
			t.Errorf("pair %d diverged under faults: %+v vs %+v", id, g, w)
		}
	}
	if rep.RetrySec <= 0 {
		t.Error("retries happened but RetrySec is zero")
	}
	if rep.MakespanSec <= cleanRep.MakespanSec {
		t.Errorf("faulted makespan %.6f not above clean %.6f", rep.MakespanSec, cleanRep.MakespanSec)
	}
}

// TestAlignPairsCorruptionNeverLeaks hammers the checksum path: with a
// high corruption rate every accepted result must still match the
// reference aligner — a corrupted transfer that slipped through
// verification would surface here as a wrong score or CIGAR.
func TestAlignPairsCorruptionNeverLeaks(t *testing.T) {
	cfg := testConfig(1, true)
	cfg.Faults = pim.FaultConfig{Rate: 0.5, CorruptWeight: 1, Seed: 7}
	cfg.MaxRetries = 10
	pairs := makePairs(22, 60, 150, 0.08)
	rep, results, err := AlignPairs(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultsDetected == 0 {
		t.Fatal("no corruptions detected at 50% rate")
	}
	if rep.AbandonedPairs != 0 {
		t.Fatalf("corruption is transient; nothing should be abandoned, got %d", rep.AbandonedPairs)
	}
	for _, r := range results {
		p := pairs[r.ID]
		want := core.AdaptiveBandAlign(p.A, p.B, cfg.Kernel.Params, cfg.Kernel.Band)
		if r.Score != want.Score || string(r.Cigar) != want.Cigar.String() {
			t.Fatalf("pair %d: corrupted result leaked through the checksum", r.ID)
		}
	}
}

// TestAlignPairsGracefulDegradation: with retries disabled and crashes
// injected, the run must complete without error, return one result per
// pair in input order — the dropped ones as StatusAbandoned placeholders —
// and account for every dropped pair.
func TestAlignPairsGracefulDegradation(t *testing.T) {
	cfg := testConfig(1, true)
	cfg.Faults = pim.FaultConfig{Rate: 0.3, CrashWeight: 1, Seed: 99}
	cfg.MaxRetries = 0
	pairs := makePairs(23, 80, 120, 0.08)
	rep, results, err := AlignPairs(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AbandonedPairs == 0 {
		t.Fatal("30% crash rate with no retries should abandon pairs")
	}
	if len(results) != len(pairs) {
		t.Fatalf("%d results for %d pairs", len(results), len(pairs))
	}
	if len(rep.AbandonedIDs) != rep.AbandonedPairs {
		t.Fatalf("AbandonedIDs has %d entries for %d abandoned pairs",
			len(rep.AbandonedIDs), rep.AbandonedPairs)
	}
	abandoned := map[int]bool{}
	for _, id := range rep.AbandonedIDs {
		abandoned[id] = true
	}
	placeholders := 0
	for i, r := range results {
		if r.ID != pairs[i].ID {
			t.Fatalf("result %d has ID %d, want input order (%d)", i, r.ID, pairs[i].ID)
		}
		if r.Status == StatusAbandoned {
			placeholders++
			if !abandoned[r.ID] || r.Rank != -1 || r.DPU != -1 {
				t.Errorf("pair %d: placeholder %+v not reported as abandoned at rank/DPU -1", r.ID, r)
			}
			continue
		}
		if abandoned[r.ID] {
			t.Errorf("pair %d both delivered and abandoned", r.ID)
		}
		// Survivors are still bit-correct.
		p := pairs[r.ID]
		want := core.AdaptiveBandAlign(p.A, p.B, cfg.Kernel.Params, cfg.Kernel.Band)
		if r.Score != want.Score {
			t.Errorf("pair %d: surviving score wrong", r.ID)
		}
	}
	if placeholders != rep.AbandonedPairs {
		t.Errorf("%d abandoned placeholders for %d abandoned pairs", placeholders, rep.AbandonedPairs)
	}
	if want := len(pairs) - rep.AbandonedPairs; rep.Alignments != want {
		t.Errorf("report alignments %d, want the %d survivors", rep.Alignments, want)
	}
}

// TestAlignPairsRankDropRecovery: whole-rank dropouts are detected at
// launch and the batch relaunches until the rank comes back.
func TestAlignPairsRankDropRecovery(t *testing.T) {
	cfg := testConfig(2, true)
	cfg.Faults = pim.FaultConfig{RankDropRate: 0.4, Seed: 5}
	cfg.MaxRetries = 12
	pairs := makePairs(24, 50, 150, 0.08)
	rep, results, err := AlignPairs(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AbandonedPairs != 0 {
		t.Fatalf("abandoned %d pairs", rep.AbandonedPairs)
	}
	if len(results) != len(pairs) {
		t.Fatalf("%d results for %d pairs", len(results), len(pairs))
	}
	if rep.FaultsDetected == 0 || rep.Retries == 0 {
		t.Fatalf("no rank drops fired at 40%% rate (faults=%d retries=%d)",
			rep.FaultsDetected, rep.Retries)
	}
	for _, rs := range rep.Ranks {
		for _, f := range rs.Faults {
			if f.Kind != pim.FaultRankDrop.String() {
				t.Errorf("unexpected fault kind %q", f.Kind)
			}
			if f.DPU != -1 {
				t.Errorf("rank-level fault attributed to DPU %d", f.DPU)
			}
		}
	}
}

// TestAlignPairsStallNeedsDeadline: without a batch deadline a stalled
// DPU is waited out (slow but correct, zero retries); with one it is
// detected and its pairs redispatched.
func TestAlignPairsStallNeedsDeadline(t *testing.T) {
	pairs := makePairs(25, 60, 150, 0.08)
	base := testConfig(1, true)
	cleanRep, _, err := AlignPairs(base, pairs)
	if err != nil {
		t.Fatal(err)
	}

	stalled := testConfig(1, true)
	stalled.Faults = pim.FaultConfig{Rate: 0.1, StallWeight: 1, Seed: 3}
	stalled.MaxRetries = 8
	noDeadlineRep, noDeadlineResults, err := AlignPairs(stalled, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if noDeadlineRep.Retries != 0 {
		t.Errorf("no deadline: stalls should be waited out, got %d retries", noDeadlineRep.Retries)
	}
	if len(noDeadlineResults) != len(pairs) {
		t.Fatalf("no deadline: %d results", len(noDeadlineResults))
	}
	if noDeadlineRep.MakespanSec < 10*cleanRep.MakespanSec {
		t.Errorf("stall factor 512 barely moved the makespan: %.6f vs clean %.6f",
			noDeadlineRep.MakespanSec, cleanRep.MakespanSec)
	}

	stalled.BatchDeadlineSec = 1.5 * maxKernelSec(cleanRep)
	deadlineRep, deadlineResults, err := AlignPairs(stalled, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if deadlineRep.Retries == 0 {
		t.Error("deadline set: stalls should be detected and retried")
	}
	if deadlineRep.AbandonedPairs != 0 || len(deadlineResults) != len(pairs) {
		t.Fatalf("deadline recovery incomplete: %d results, %d abandoned",
			len(deadlineResults), deadlineRep.AbandonedPairs)
	}
	if deadlineRep.MakespanSec >= noDeadlineRep.MakespanSec {
		t.Errorf("deadline recovery (%.6fs) not faster than waiting out the stall (%.6fs)",
			deadlineRep.MakespanSec, noDeadlineRep.MakespanSec)
	}
}

// TestAlignPairsFaultsDeterministic: the same seed reproduces the exact
// recovery trajectory; a different seed changes it.
func TestAlignPairsFaultsDeterministic(t *testing.T) {
	mk := func(seed int64) *Report {
		cfg := testConfig(1, true)
		cfg.Faults = pim.FaultConfig{Rate: 0.15, Seed: seed}
		cfg.MaxRetries = 8
		cfg.RetryBackoffSec = 1e-4
		rep, _, err := AlignPairs(cfg, makePairs(26, 64, 120, 0.08))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := mk(11), mk(11)
	if a.FaultsDetected != b.FaultsDetected || a.Retries != b.Retries ||
		a.Redispatches != b.Redispatches || a.MakespanSec != b.MakespanSec {
		t.Errorf("same seed, different recovery: %+v vs %+v", a, b)
	}
	c := mk(12)
	if a.FaultsDetected == c.FaultsDetected && a.MakespanSec == c.MakespanSec {
		t.Error("different seeds reproduced identical fault trajectories")
	}
}

// TestReportRecoveryInvariants checks the bookkeeping the report carries.
func TestReportRecoveryInvariants(t *testing.T) {
	cfg := testConfig(2, true)
	cfg.Faults = pim.FaultConfig{Rate: 0.1, RankDropRate: 0.05, Seed: 17}
	cfg.MaxRetries = 6
	cfg.RetryBackoffSec = 1e-4
	rep, _, err := AlignPairs(cfg, makePairs(27, 90, 130, 0.08))
	if err != nil {
		t.Fatal(err)
	}
	retries, faults := 0, 0
	for _, rs := range rep.Ranks {
		if rs.Attempts < 1 {
			t.Errorf("batch %d: %d attempts", rs.Batch, rs.Attempts)
		}
		retries += rs.Attempts - 1
		faults += len(rs.Faults)
		if rs.WaitSec < 0 {
			t.Errorf("batch %d: negative WaitSec %.6f", rs.Batch, rs.WaitSec)
		}
		// Recovery time is bounded by the rank's busy window: compute
		// (KernelSec) plus the waits between attempts (WaitSec).
		if rs.RetrySec < 0 || rs.RetrySec > rs.KernelSec+rs.WaitSec+1e-12 {
			t.Errorf("batch %d: RetrySec %.6f outside [0, busy %.6f]",
				rs.Batch, rs.RetrySec, rs.KernelSec+rs.WaitSec)
		}
		for _, f := range rs.Faults {
			if f.Batch != rs.Batch {
				t.Errorf("fault event of batch %d filed under batch %d", f.Batch, rs.Batch)
			}
			if f.AtSec < rs.StartSec || f.AtSec > rep.MakespanSec {
				t.Errorf("fault at %.6fs outside batch window [%.6f, makespan %.6f]",
					f.AtSec, rs.StartSec, rep.MakespanSec)
			}
			if f.Kind == "" || f.Kind == "none" {
				t.Errorf("fault event with kind %q", f.Kind)
			}
		}
	}
	if retries != rep.Retries {
		t.Errorf("Report.Retries %d, per-rank sum %d", rep.Retries, retries)
	}
	if faults != rep.FaultsDetected {
		t.Errorf("Report.FaultsDetected %d, per-rank sum %d", rep.FaultsDetected, faults)
	}
	ids := append([]int(nil), rep.AbandonedIDs...)
	sort.Ints(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			t.Errorf("pair %d abandoned twice", ids[i])
		}
	}
}

// TestFaultObservability checks the three run artifacts under fault
// injection: the new recovery metrics, the Chrome trace recovery lane
// (retry slice + ph "i" fault instants), and the JSON report round-trip
// of the retry/fault fields.
func TestFaultObservability(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)

	cfg := testConfig(2, true)
	cfg.Faults = pim.FaultConfig{Rate: 0.15, Seed: 42}
	cfg.MaxRetries = 8
	cfg.RetryBackoffSec = 1e-4
	rep, _, err := AlignPairs(cfg, makePairs(28, 80, 130, 0.08))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultsDetected == 0 || rep.Retries == 0 {
		t.Fatalf("faults inert (faults=%d retries=%d); test needs a recovering run",
			rep.FaultsDetected, rep.Retries)
	}

	// Metrics mirror the report.
	if got := reg.Counter("host_retries_total").Value(); got != int64(rep.Retries) {
		t.Errorf("host_retries_total = %d, Report.Retries = %d", got, rep.Retries)
	}
	if got := reg.Counter("host_redispatches_total").Value(); got != int64(rep.Redispatches) {
		t.Errorf("host_redispatches_total = %d, Report.Redispatches = %d", got, rep.Redispatches)
	}
	if got := reg.Counter("host_faults_detected_total").Value(); got != int64(rep.FaultsDetected) {
		t.Errorf("host_faults_detected_total = %d, Report.FaultsDetected = %d", got, rep.FaultsDetected)
	}
	if got := reg.Counter("pim_faults_injected_total").Value(); got < int64(rep.FaultsDetected) {
		t.Errorf("pim_faults_injected_total = %d below %d detected", got, rep.FaultsDetected)
	}

	// Trace: a recovery lane with one instant per fault event and a retry
	// slice on every batch that spent recovery time.
	events := rep.ChromeTraceEvents()
	instants, retrySlices, lanes := 0, 0, 0
	for _, ev := range events {
		switch {
		case ev.Ph == "i":
			instants++
			if ev.Tid != tidRecovery || ev.S != "t" {
				t.Errorf("fault instant on tid %d scope %q", ev.Tid, ev.S)
			}
		case ev.Ph == "X" && ev.Name == "recovery":
			retrySlices++
		case ev.Ph == "M" && ev.Name == "thread_name" && ev.Tid == tidRecovery:
			lanes++
		}
	}
	if instants != rep.FaultsDetected {
		t.Errorf("%d fault instants for %d detected faults", instants, rep.FaultsDetected)
	}
	wantSlices := 0
	for _, rs := range rep.Ranks {
		if rs.RetrySec > 0 {
			wantSlices++
		}
	}
	if retrySlices != wantSlices {
		t.Errorf("%d recovery slices, want %d", retrySlices, wantSlices)
	}
	if lanes == 0 {
		t.Error("no recovery lane metadata emitted")
	}

	// JSON report round-trips the recovery fields.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var rj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rj); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	for key, want := range map[string]int{
		"retries":         rep.Retries,
		"redispatches":    rep.Redispatches,
		"faults_detected": rep.FaultsDetected,
		"abandoned_pairs": rep.AbandonedPairs,
	} {
		got, ok := rj[key].(float64)
		if !ok {
			t.Errorf("report JSON missing %q", key)
			continue
		}
		if int(got) != want {
			t.Errorf("report JSON %s = %v, want %d", key, got, want)
		}
	}
	if got := rj["retry_sec"].(float64); got != rep.RetrySec {
		t.Errorf("report JSON retry_sec = %v, want %v", got, rep.RetrySec)
	}
	// Per-rank fault events serialize with their documented keys.
	ranks := rj["ranks"].([]any)
	foundFault := false
	for _, ri := range ranks {
		rm := ri.(map[string]any)
		fl, ok := rm["Faults"].([]any)
		if !ok {
			continue
		}
		for _, fi := range fl {
			fm := fi.(map[string]any)
			foundFault = true
			for _, key := range []string{"batch", "attempt", "dpu", "kind", "at_sec"} {
				if _, ok := fm[key]; !ok {
					t.Fatalf("fault event missing %q: %v", key, fm)
				}
			}
		}
	}
	if !foundFault {
		t.Error("no fault events in serialized rank stats")
	}
}

package host

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"pimnw/internal/core"
	"pimnw/internal/kernel"
	"pimnw/internal/pim"
	"pimnw/internal/seq"
)

// indelPairs builds the adversarial set for the escalation tests:
// indel-heavy mutations with occasional large gaps, so a narrow initial
// band reliably clips or misses the optimal path (the same generator the
// core clip-detection tests use).
func indelPairs(seed int64, n, length int) []Pair {
	rng := rand.New(rand.NewSource(seed))
	mut := seq.Mutator{
		SubRate: 0.02, InsRate: 0.03, DelRate: 0.03, IndelExt: 0.6,
		BigGapRate: 0.004, BigGapMin: 16, BigGapMax: 48,
	}
	pairs := make([]Pair, n)
	for i := range pairs {
		a := seq.Random(rng, length)
		pairs[i] = Pair{ID: i, A: a, B: mut.Apply(rng, a)}
	}
	return pairs
}

// escalationConfig is the common ladder setup: a deliberately narrow
// initial band so the adversarial set escalates.
func escalationConfig(traceback bool) Config {
	cfg := testConfig(2, traceback)
	cfg.Kernel.Band = 16
	cfg.Escalate = true
	cfg.Verify = true
	return cfg
}

// checkConverged asserts the ladder's contract: every pair has a trusted
// status, a provenance label, and exactly the full-matrix score.
func checkConverged(t *testing.T, pairs []Pair, results []Result) {
	t.Helper()
	if len(results) != len(pairs) {
		t.Fatalf("got %d results for %d pairs", len(results), len(pairs))
	}
	p := core.DefaultParams()
	for i, r := range results {
		if r.ID != pairs[i].ID {
			t.Fatalf("result %d has ID %d, want input order (%d)", i, r.ID, pairs[i].ID)
		}
		if !r.Status.Trusted() {
			t.Errorf("pair %d: untrusted status %v", r.ID, r.Status)
		}
		if r.Provenance == "" {
			t.Errorf("pair %d: no provenance", r.ID)
		}
		exact := core.GotohScore(pairs[i].A, pairs[i].B, p)
		if r.Score != exact.Score {
			t.Errorf("pair %d (%s): score %d != exact %d", r.ID, r.Provenance, r.Score, exact.Score)
		}
	}
}

// TestEscalationConvergesToExact is the acceptance test of the
// degradation ladder: on an indel-heavy set where band 16 clips, every
// final score must equal the full-matrix answer, with provenance saying
// which rung produced it and zero validation failures.
func TestEscalationConvergesToExact(t *testing.T) {
	pairs := indelPairs(31, 30, 300)
	cfg := escalationConfig(true)
	rep, results, err := AlignPairs(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	checkConverged(t, pairs, results)

	if rep.ClippedPairs+rep.OutOfBandPairs == 0 {
		t.Fatal("adversarial set produced no band failures; the test exercises nothing")
	}
	if rep.Escalations == 0 || rep.EscalationRounds == 0 {
		t.Errorf("no escalations recorded (escalations=%d rounds=%d)", rep.Escalations, rep.EscalationRounds)
	}
	if rep.EscalationRounds != len(rep.Escalation) {
		t.Errorf("EscalationRounds %d != %d recorded rounds", rep.EscalationRounds, len(rep.Escalation))
	}
	if rep.VerifyChecked == 0 {
		t.Error("Verify was on but nothing was checked")
	}
	if rep.VerifyFailures != 0 {
		t.Errorf("%d verification failures on a healthy fabric", rep.VerifyFailures)
	}
	var provTotal int
	for _, n := range rep.Provenance {
		provTotal += n
	}
	if provTotal != len(pairs) {
		t.Errorf("provenance map covers %d of %d pairs: %v", provTotal, len(pairs), rep.Provenance)
	}
	if n := rep.Provenance[kernelProvenance(cfg.Kernel)]; n == len(pairs) {
		t.Error("every pair resolved on the first rung; the ladder never ran")
	}
	// Pairs answered by the CPU rung must carry the exact CIGAR too.
	for i, r := range results {
		if r.Status == StatusDegradedCPU {
			want := core.GotohAlign(pairs[i].A, pairs[i].B, core.DefaultParams()).Cigar.String()
			if string(r.Cigar) != want {
				t.Errorf("pair %d: cpu-exact CIGAR %q != full-matrix %q", r.ID, r.Cigar, want)
			}
		}
	}
	// The rounds occupy the simulated timeline after the first round.
	var prevEnd float64
	for _, er := range rep.Escalation {
		if er.StartSec < prevEnd || er.EndSec < er.StartSec {
			t.Errorf("round %d spans [%g,%g], before previous end %g", er.Round, er.StartSec, er.EndSec, prevEnd)
		}
		prevEnd = er.EndSec
	}
	if rep.MakespanSec < prevEnd {
		t.Errorf("makespan %g ends before the last escalation round %g", rep.MakespanSec, prevEnd)
	}
}

// TestEscalationUnderFaults composes the ladder with the recovery layer:
// at a 5 % injected fault rate the final answers must still converge to
// the full-matrix scores, and nothing may be abandoned — pairs the
// retries give up on are rescued by the CPU rung.
func TestEscalationUnderFaults(t *testing.T) {
	pairs := indelPairs(32, 30, 300)
	cfg := escalationConfig(true)
	cfg.Faults = pim.FaultConfig{Rate: 0.05, Seed: 7}
	cfg.MaxRetries = 8
	rep, results, err := AlignPairs(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	checkConverged(t, pairs, results)
	if rep.AbandonedPairs != 0 || len(rep.AbandonedIDs) != 0 {
		t.Errorf("escalation left %d pairs abandoned: %v", rep.AbandonedPairs, rep.AbandonedIDs)
	}
	for _, r := range results {
		if r.Status == StatusAbandoned {
			t.Errorf("pair %d abandoned despite the ladder", r.ID)
		}
	}
}

// TestEscalationScoreOnlyMode runs the ladder under a score-only kernel:
// wider score-only rungs count as escalations (not degradations), and the
// scores still converge.
func TestEscalationScoreOnlyMode(t *testing.T) {
	pairs := indelPairs(33, 20, 300)
	cfg := escalationConfig(false)
	rep, results, err := AlignPairs(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	checkConverged(t, pairs, results)
	if rep.DegradedScoreOnly != 0 {
		t.Errorf("score-only run recorded %d score-only degradations; wider score-only rungs are escalations here", rep.DegradedScoreOnly)
	}
	for _, r := range results {
		if r.Status == StatusEscalated && !strings.HasPrefix(r.Provenance, "dpu-score-only@") {
			t.Errorf("pair %d: escalated provenance %q, want a score-only rung", r.ID, r.Provenance)
		}
	}
}

// TestStatusesWithoutEscalation: with the ladder off, band failures stay
// in the output as typed statuses (not just a score sentinel) and are
// tallied and listed as issues.
func TestStatusesWithoutEscalation(t *testing.T) {
	pairs := indelPairs(34, 30, 300)
	cfg := escalationConfig(true)
	cfg.Escalate = false
	cfg.Verify = false
	rep, results, err := AlignPairs(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	var clipped, oob int
	prov := kernelProvenance(cfg.Kernel)
	for _, r := range results {
		switch r.Status {
		case StatusClipped:
			clipped++
		case StatusOutOfBand:
			oob++
		case StatusOK:
		default:
			t.Errorf("pair %d: unexpected status %v without escalation", r.ID, r.Status)
		}
		if r.Provenance != prov {
			t.Errorf("pair %d: provenance %q, want %q", r.ID, r.Provenance, prov)
		}
	}
	if clipped+oob == 0 {
		t.Fatal("adversarial set produced no flagged pairs")
	}
	if rep.ClippedPairs != clipped || rep.OutOfBandPairs != oob {
		t.Errorf("report counts (clipped=%d oob=%d) != result statuses (%d, %d)",
			rep.ClippedPairs, rep.OutOfBandPairs, clipped, oob)
	}
	if len(rep.Issues) != clipped+oob {
		t.Errorf("%d issues listed, want %d", len(rep.Issues), clipped+oob)
	}
	if rep.Escalations != 0 || rep.DegradedCPU != 0 {
		t.Errorf("ladder counters moved with escalation off: %+v", rep)
	}
}

// TestEscalationExportsIntegrity: the JSON report and the Chrome trace
// both carry the ladder — counters, rounds, and the integrity lane.
func TestEscalationExportsIntegrity(t *testing.T) {
	pairs := indelPairs(35, 16, 300)
	cfg := escalationConfig(true)
	rep, _, err := AlignPairs(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"escalation_rounds"`, `"clipped_pairs"`, `"verify_checked"`, `"provenance"`, `"cpu_fallback_sec"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("JSON report lacks %s", want)
		}
	}

	events := rep.ChromeTraceEvents()
	var lane, rounds, instant bool
	maxRankPid := 0
	for _, rs := range rep.Ranks {
		if rs.Rank+1 > maxRankPid {
			maxRankPid = rs.Rank + 1
		}
	}
	for _, ev := range events {
		if ev.Ph == "M" && ev.Name == "process_name" && ev.Pid > maxRankPid {
			lane = true
		}
		if ev.Ph == "X" && strings.HasPrefix(ev.Name, "dpu-") && ev.Pid > maxRankPid {
			rounds = true
		}
		if ev.Ph == "i" && ev.Name == "integrity" {
			instant = true
		}
	}
	if !lane || !rounds || !instant {
		t.Errorf("integrity lane incomplete: lane=%v rounds=%v instant=%v", lane, rounds, instant)
	}
}

// TestBuildLadder pins the rung enumeration: doubled bands with pools
// traded away, monotone widths, capped at MaxBand, and — when the WRAM
// budget stops traceback kernels short of the cap — one strictly-wider
// score-only rung at the end.
func TestBuildLadder(t *testing.T) {
	cfg := testConfig(1, true)
	cfg.Kernel.Band = 64
	cfg.Escalate = true
	rungs := buildLadder(cfg)
	if len(rungs) == 0 {
		t.Fatal("no rungs below band 64")
	}
	prev := cfg.Kernel.Band
	for i, rg := range rungs {
		if rg.band <= prev {
			t.Errorf("rung %d band %d not above previous %d", i, rg.band, prev)
		}
		prev = rg.band
		if rg.band > DefaultMaxBand {
			t.Errorf("rung %d band %d above the cap %d", i, rg.band, DefaultMaxBand)
		}
		if !rg.traceback && i != len(rungs)-1 {
			t.Errorf("score-only rung %d is not last", i)
		}
	}
	// The 4-tasklet pools leave enough WRAM for traceback kernels all the
	// way to the cap, so the deepest rung keeps the requested mode.
	if last := rungs[len(rungs)-1]; last.band != DefaultMaxBand || !last.traceback {
		t.Errorf("deepest rung %+v, want traceback at the %d cap", last, DefaultMaxBand)
	}

	// Fatten the tasklet stacks (one 24-tasklet pool) so a 2048-band
	// traceback working set no longer fits: the ladder must top out with
	// the score-only kernel instead.
	tall := cfg
	tall.Kernel.Geometry = kernel.Geometry{Pools: 1, TaskletsPerPool: 24}
	rungs = buildLadder(tall)
	if len(rungs) == 0 {
		t.Fatal("no rungs for the tall geometry")
	}
	last := rungs[len(rungs)-1]
	if last.traceback {
		t.Errorf("deepest tall-geometry rung %+v is traceback; want the score-only fallback", last)
	}
	if len(rungs) > 1 && last.band <= rungs[len(rungs)-2].band {
		t.Errorf("score-only rung band %d not above the deepest traceback rung %d",
			last.band, rungs[len(rungs)-2].band)
	}

	// A cap at the base band leaves no DPU rungs: straight to the CPU.
	cfg.MaxBand = cfg.Kernel.Band
	if got := buildLadder(cfg); len(got) != 0 {
		t.Errorf("MaxBand == Band built %d rungs", len(got))
	}
}

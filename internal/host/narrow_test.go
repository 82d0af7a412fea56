package host

import (
	"reflect"
	"strings"
	"testing"

	"pimnw/internal/core"
	"pimnw/internal/kernel"
	"pimnw/internal/seq"
)

// narrowTestConfig forces the 16-bit kernel under a scoring model whose
// drift saturates on long pairs but not short ones (Match=127: the sticky
// fires once a path's score passes ~2^15−narrowCenter). -lanes=auto would
// refuse this model, which is exactly why the test pins LaneWidth — the
// saturation path must be reachable on demand.
func narrowTestConfig(escalate bool) Config {
	cfg := testConfig(2, false)
	cfg.Kernel.Band = 16
	cfg.Kernel.Params = core.Params{Match: 127, Mismatch: -4, GapOpen: 4, GapExt: 2}
	cfg.Kernel.LaneWidth = 16
	cfg.Escalate = escalate
	return cfg
}

// narrowMixedPairs builds the mixed batch: identical pairs, short ones
// (score 60·127, in-lane) interleaved with long ones (score 300·127,
// guaranteed past the saturation boundary). Identity keeps every pair
// in-band and unclipped at band 16, so saturation is the only failure the
// batch can produce.
func narrowMixedPairs() (pairs []Pair, long map[int]bool) {
	long = make(map[int]bool)
	for i := 0; i < 12; i++ {
		n := 60
		if i%3 == 0 {
			n = 300
			long[i] = true
		}
		s := make(seq.Seq, n)
		for j := range s {
			s[j] = seq.Base((i + j) & 3)
		}
		pairs = append(pairs, Pair{ID: i, A: s, B: s})
	}
	return pairs, long
}

// TestNarrowOverflowEscalatesToWideKernel is the host-level acceptance
// test of the overflow rung: in a mixed batch on the narrow kernel, the
// saturated pairs — and only those — must escalate to the same-band
// full-width kernel and come back with bit-identical scores, per-pair
// provenance separating the two engines.
func TestNarrowOverflowEscalatesToWideKernel(t *testing.T) {
	pairs, long := narrowMixedPairs()
	cfg := narrowTestConfig(true)
	rep, results, err := AlignPairs(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(pairs) {
		t.Fatalf("got %d results for %d pairs", len(results), len(pairs))
	}
	if rep.OverflowedPairs != len(long) {
		t.Fatalf("OverflowedPairs = %d, want %d", rep.OverflowedPairs, len(long))
	}
	for i, r := range results {
		p := pairs[i]
		// Identity pairs at band 16: the wide banded kernel's answer equals
		// the exact full-matrix score, so bit-identical is checkable directly.
		want := core.AdaptiveBandScoreWide(p.A, p.B, cfg.Kernel.Params, cfg.Kernel.Band)
		if r.Score != want.Score {
			t.Errorf("pair %d (%s): score %d != wide kernel %d", r.ID, r.Provenance, r.Score, want.Score)
		}
		if long[r.ID] {
			if r.Status != StatusEscalated {
				t.Errorf("pair %d: status %v, want %v", r.ID, r.Status, StatusEscalated)
			}
			if r.Provenance != "dpu-score-only@16" {
				t.Errorf("pair %d: provenance %q, want the same-band wide rung", r.ID, r.Provenance)
			}
		} else {
			if r.Status != StatusOK {
				t.Errorf("pair %d: status %v, want %v", r.ID, r.Status, StatusOK)
			}
			if r.Provenance != "dpu-narrow@16" {
				t.Errorf("pair %d: provenance %q, want dpu-narrow@16", r.ID, r.Provenance)
			}
		}
	}
	// Saturation is a precision failure at an adequate band: nothing may
	// widen past the base band or fall through to the CPU.
	if rep.DegradedCPU != 0 || rep.DegradedScoreOnly != 0 {
		t.Errorf("overflow pairs left the same-band rung: %+v", rep)
	}
	if rep.Escalations != len(long) || rep.EscalationRounds != 1 {
		t.Errorf("escalations=%d rounds=%d, want %d pairs in 1 round", rep.Escalations, rep.EscalationRounds, len(long))
	}
	if n := rep.Provenance["dpu-narrow@16"]; n != len(pairs)-len(long) {
		t.Errorf("narrow provenance count %d, want %d (%v)", n, len(pairs)-len(long), rep.Provenance)
	}
	if n := rep.Provenance["dpu-score-only@16"]; n != len(long) {
		t.Errorf("wide-rung provenance count %d, want %d (%v)", n, len(long), rep.Provenance)
	}
}

// TestNarrowOverflowStatusWithoutEscalation: with the ladder off, a
// saturated pair surfaces as the typed StatusOverflowed — untrusted, NegInf
// score, listed as an issue — rather than being silently mis-scored.
func TestNarrowOverflowStatusWithoutEscalation(t *testing.T) {
	pairs, long := narrowMixedPairs()
	cfg := narrowTestConfig(false)
	rep, results, err := AlignPairs(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	var overflowed int
	for _, r := range results {
		if r.Provenance != "dpu-narrow@16" {
			t.Errorf("pair %d: provenance %q, want dpu-narrow@16", r.ID, r.Provenance)
		}
		if long[r.ID] {
			overflowed++
			if r.Status != StatusOverflowed {
				t.Errorf("pair %d: status %v, want %v", r.ID, r.Status, StatusOverflowed)
			}
			if r.Status.Trusted() {
				t.Errorf("pair %d: StatusOverflowed must not be trusted", r.ID)
			}
			if r.Score != core.NegInf {
				t.Errorf("pair %d: overflowed result leaked score %d", r.ID, r.Score)
			}
		} else if r.Status != StatusOK {
			t.Errorf("pair %d: status %v, want OK", r.ID, r.Status)
		}
	}
	if overflowed != len(long) || rep.OverflowedPairs != len(long) {
		t.Errorf("overflowed: statuses=%d report=%d, want %d", overflowed, rep.OverflowedPairs, len(long))
	}
	if len(rep.Issues) != len(long) {
		t.Errorf("%d issues listed, want %d", len(rep.Issues), len(long))
	}
	if !strings.Contains(StatusOverflowed.String(), "overflow") {
		t.Errorf("StatusOverflowed renders as %q", StatusOverflowed)
	}
}

// TestNarrowLadderHasOverflowRung: a narrow base kernel prepends the
// same-band full-width rung to the ladder; a wide base kernel must not.
func TestNarrowLadderHasOverflowRung(t *testing.T) {
	cfg := narrowTestConfig(true)
	rungs := buildLadder(cfg)
	if len(rungs) == 0 || !rungs[0].overflowOnly || rungs[0].band != cfg.Kernel.Band {
		t.Fatalf("narrow ladder %+v lacks the same-band overflow rung", rungs)
	}
	for _, rg := range rungs[1:] {
		if rg.overflowOnly {
			t.Fatalf("ladder %+v has a widened overflow-only rung", rungs)
		}
	}
	cfg.Kernel.LaneWidth = 64
	for _, rg := range buildLadder(cfg) {
		if rg.overflowOnly {
			t.Fatalf("wide base kernel grew an overflow rung: %+v", rg)
		}
	}
}

// TestChecksumCoversOverflowFlag: the result checksum the recovery layer
// compares across retries must distinguish an overflowed result from a
// clean one, or a fault flipping the flag would go undetected.
func TestChecksumCoversOverflowFlag(t *testing.T) {
	a := []kernel.PairResult{{ID: 1, Score: 10, InBand: true}}
	b := []kernel.PairResult{{ID: 1, Score: 10, InBand: true, Overflowed: true}}
	if kernel.ChecksumResults(a) == kernel.ChecksumResults(b) {
		t.Fatal("checksum ignores the Overflowed flag")
	}
}

// TestTracebackAutoLanesMatchPinnedWide: under auto lanes a traceback run
// is *modelled* on the full-width DPU kernel but *computed* in 16-bit
// lanes (core's AdaptiveBandAlign, in-engine fallback); LaneWidth 64 pins
// the full-width engine. The two must be indistinguishable from the host:
// results pair for pair (score, CIGAR, status, dpu-banded@w provenance,
// placement), every report counter (no overflow is ever surfaced) and the
// modelled makespan — with the ladder off and with clipped pairs climbing
// it through bands 128 and up.
func TestTracebackAutoLanesMatchPinnedWide(t *testing.T) {
	// Band 64 holds the 3 % half of the batch and clips the 14 % half.
	pairs := makePairs(18, 12, 700, 0.03)
	for _, p := range makePairs(19, 12, 700, 0.14) {
		p.ID += 12
		pairs = append(pairs, p)
	}
	for _, escalate := range []bool{false, true} {
		run := func(lanes int) (*Report, []Result) {
			cfg := testConfig(2, true)
			cfg.Kernel.LaneWidth = lanes
			cfg.Escalate = escalate
			rep, results, err := AlignPairs(cfg, pairs)
			if err != nil {
				t.Fatalf("lanes=%d escalate=%v: %v", lanes, escalate, err)
			}
			return rep, results
		}
		autoRep, autoRes := run(0)
		wideRep, wideRes := run(64)
		if len(autoRes) != len(pairs) || len(wideRes) != len(pairs) {
			t.Fatalf("escalate=%v: %d / %d results for %d pairs", escalate, len(autoRes), len(wideRes), len(pairs))
		}
		for i := range autoRes {
			if !reflect.DeepEqual(autoRes[i], wideRes[i]) {
				t.Errorf("escalate=%v pair %d:\n auto %+v\n wide %+v", escalate, pairs[i].ID, autoRes[i], wideRes[i])
			}
		}
		if !reflect.DeepEqual(autoRep.Counters, wideRep.Counters) {
			t.Errorf("escalate=%v counters:\n auto %+v\n wide %+v", escalate, autoRep.Counters, wideRep.Counters)
		}
		if autoRep.MakespanSec != wideRep.MakespanSec {
			t.Errorf("escalate=%v: modelled makespan %v under auto, %v at lanes 64", escalate, autoRep.MakespanSec, wideRep.MakespanSec)
		}
		if autoRep.OverflowedPairs != 0 {
			t.Errorf("escalate=%v: %d overflowed pairs surfaced from the in-engine fallback", escalate, autoRep.OverflowedPairs)
		}
		if n := autoRep.Provenance["dpu-banded@64"]; n == 0 || (escalate && n == len(pairs)) {
			t.Errorf("escalate=%v: %d of %d pairs settled at dpu-banded@64; want some, and under the ladder not all (%v)",
				escalate, n, len(pairs), autoRep.Provenance)
		}
		if escalate && autoRep.Escalations == 0 {
			t.Errorf("no pair climbed the ladder: %+v", autoRep.Provenance)
		}
	}
}

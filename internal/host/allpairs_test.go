package host

import (
	"math/rand"
	"testing"

	"pimnw/internal/core"
	"pimnw/internal/pim"
	"pimnw/internal/seq"
)

// TestAllPairsInheritsPipeline: §5.3's all-against-all is a pair list on
// the one pipeline, so everything the pipeline offers applies to it —
// recovery under the escalation ladder, fleet placement, the session cache
// — and none of it changes an answer.
func TestAllPairsInheritsPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	root := seq.Random(rng, 300)
	seqs := make([]seq.Seq, 12)
	for i := range seqs {
		seqs[i] = seq.UniformErrors(0.05).Apply(rng, root)
	}
	pairs := AllPairs(seqs)
	indices := AllPairIndices(len(seqs))
	if len(pairs) != len(indices) {
		t.Fatalf("%d pairs for %d comparisons", len(pairs), len(indices))
	}

	plain := testConfig(2, false)
	// A band narrow enough that the ladder has clipped pairs to resolve.
	esc := testConfig(2, false)
	esc.Kernel.Band = 16
	esc.Escalate = true
	escFaults := esc
	escFaults.Faults = pim.FaultConfig{Rate: 0.05, Seed: 3}
	escFaults.MaxRetries = 3
	escFaults.RetryBackoffSec = 1e-3
	fleet := plain
	var err error
	if fleet.Backends, err = ParseFleet("pim:1,cpu:2"); err != nil {
		t.Fatal(err)
	}
	cached := SessionConfig{Host: esc, Cache: openHostCache(t), MaxBatchPairs: len(pairs)}

	type run func() (*Report, []Result)
	oneShot := func(cfg Config) run {
		return func() (*Report, []Result) {
			rep, results, err := AlignPairs(cfg, pairs)
			if err != nil {
				t.Fatal(err)
			}
			return rep, results
		}
	}
	session := func() (*Report, []Result) { return streamAll(t, cached, pairs) }

	for _, tc := range []struct {
		name          string
		base, variant run
		check         func(t *testing.T, base, variant *Report, results []Result)
	}{
		{"escalation under faults", oneShot(esc), oneShot(escFaults),
			func(t *testing.T, base, variant *Report, _ []Result) {
				if base.Escalations == 0 {
					t.Error("the ladder had nothing to resolve")
				}
				if variant.FaultsDetected == 0 {
					t.Error("no fault was injected")
				}
			}},
		{"fleet placement", oneShot(plain), oneShot(fleet),
			func(t *testing.T, _, variant *Report, results []Result) {
				if len(variant.Backends) != 2 {
					t.Errorf("fleet report lists %d backends", len(variant.Backends))
				}
				for _, r := range results {
					want := core.AdaptiveBandScore(pairs[r.ID].A, pairs[r.ID].B, plain.Kernel.Params, plain.Kernel.Band)
					if r.Score != want.Score {
						pi := indices[r.ID]
						t.Errorf("pair (%d,%d): score %d, want %d", pi.I, pi.J, r.Score, want.Score)
					}
				}
			}},
		{"cache replay", session, session,
			func(t *testing.T, base, variant *Report, results []Result) {
				if base.CacheHits != 0 || variant.CacheHits != len(pairs) {
					t.Errorf("cache hits: cold %d, warm %d of %d", base.CacheHits, variant.CacheHits, len(pairs))
				}
				for _, r := range results {
					if !r.Cached {
						t.Errorf("pair %d recomputed on the warm pass", r.ID)
					}
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseRep, base := tc.base()
			varRep, variant := tc.variant()
			if len(base) != len(pairs) || len(variant) != len(pairs) {
				t.Fatalf("%d and %d results for %d pairs", len(base), len(variant), len(pairs))
			}
			// A plain round returns results in execution order; pair them up
			// by ID.
			byID := make([]Result, len(pairs))
			for _, b := range base {
				byID[b.ID] = b
			}
			for _, v := range variant {
				if b := byID[v.ID]; b.Score != v.Score || b.Status != v.Status || b.Provenance != v.Provenance {
					t.Errorf("pair %d: (%d %v %s) vs (%d %v %s)", v.ID,
						b.Score, b.Status, b.Provenance, v.Score, v.Status, v.Provenance)
				}
			}
			for _, rep := range []*Report{baseRep, varRep} {
				sum := 0
				for _, n := range rep.Provenance {
					sum += n
				}
				if sum != rep.Alignments || rep.Alignments != len(pairs) {
					t.Errorf("Σ provenance %d, alignments %d, pairs %d", sum, rep.Alignments, len(pairs))
				}
			}
			tc.check(t, baseRep, varRep, variant)
		})
	}
}

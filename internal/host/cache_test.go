package host

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimnw/internal/cache"
	"pimnw/internal/obs"
	"pimnw/internal/pim"
)

func openHostCache(t *testing.T) *cache.Cache {
	t.Helper()
	c, err := cache.Open(cache.Options{Dir: t.TempDir(), Fsync: cache.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// streamAll drives pairs through a fresh session and returns the merged
// report plus the streamed results in order.
func streamAll(t *testing.T, cfg SessionConfig, pairs []Pair) (*Report, []Result) {
	t.Helper()
	rep, results, err := AlignPairsStream(context.Background(), cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(pairs) {
		t.Fatalf("%d results for %d pairs", len(results), len(pairs))
	}
	return rep, results
}

// sessionAll is streamAll without AlignPairsStream's linger override: it
// submits through NewSession/Submit/Close itself and sleeps pause after
// every eighth pair, so a MaxLinger shorter than pause seals partial
// micro-batches on the wall clock.
func sessionAll(t *testing.T, cfg SessionConfig, pairs []Pair, pause time.Duration) (*Report, []Result) {
	t.Helper()
	s, err := NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for i, p := range pairs {
			if err := s.Submit(p); err != nil {
				t.Error(err)
				break
			}
			if pause > 0 && i%8 == 7 {
				time.Sleep(pause)
			}
		}
		s.Close()
	}()
	results := make([]Result, 0, len(pairs))
	for r := range s.Results() {
		results = append(results, r)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(results) != len(pairs) {
		t.Fatalf("%d results for %d pairs", len(results), len(pairs))
	}
	return s.Report(), results
}

// dupHeavyPairs builds an n-pair workload drawn from a small pool of
// unique pairs — the all-against-all / consensus-polishing access pattern
// the cache targets.
func dupHeavyPairs(n, unique, length int) []Pair {
	pool := makePairs(404, unique, length, 0.08)
	pairs := make([]Pair, n)
	for i := range pairs {
		p := pool[i%unique]
		pairs[i] = Pair{ID: i, A: p.A, B: p.B}
	}
	return pairs
}

// TestSessionCacheWarmSpeedup pins the acceptance criterion: a
// duplicate-heavy 10k-pair session against a warm cache must complete at
// least 5× faster end-to-end than the same session cold. The cold run
// computes each of its 2 500 distinct pairs exactly once (the session's
// answer table replays the rest), so the pool is sized to keep compute
// dominant and the 5× floor clear of scheduler noise.
func TestSessionCacheWarmSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const unique = 2500
	pairs := dupHeavyPairs(10000, unique, 400)
	cfg := SessionConfig{
		Host:          testConfig(4, true),
		MaxBatchPairs: 1024,
		QueueLimit:    len(pairs),
	}
	// Escalation on: every pair resolves to a certified status, so every
	// unique pair becomes insertable and the warm run is all hits.
	cfg.Host.Escalate = true
	cfg.Cache = openHostCache(t)

	coldStart := time.Now()
	coldRep, coldResults := streamAll(t, cfg, pairs)
	cold := time.Since(coldStart)
	if coldRep.CacheHits != 0 {
		t.Fatalf("cold run reported %d cache hits", coldRep.CacheHits)
	}
	// Every distinct pair computes once and every repeat replays it.
	if coldRep.Alignments != len(pairs) || coldRep.DedupedPairs != len(pairs)-unique {
		t.Fatalf("cold run: %d alignments, %d deduped for %d pairs over %d distinct",
			coldRep.Alignments, coldRep.DedupedPairs, len(pairs), unique)
	}
	if ins := cfg.Cache.Stats().Inserts; ins != unique {
		t.Fatalf("cold run inserted %d records for %d distinct pairs", ins, unique)
	}

	warmStart := time.Now()
	warmRep, warmResults := streamAll(t, cfg, pairs)
	warm := time.Since(warmStart)
	if warmRep.CacheHits != len(pairs) {
		t.Fatalf("warm run: %d hits for %d pairs", warmRep.CacheHits, len(pairs))
	}
	if warmRep.Batches != 0 || len(warmRep.Ranks) != 0 {
		t.Fatalf("warm run touched the fabric: %d batches, %d rank executions",
			warmRep.Batches, len(warmRep.Ranks))
	}
	for i := range warmResults {
		if !warmResults[i].Cached {
			t.Fatalf("warm result %d not marked cached", i)
		}
		if !sameAnswer(coldResults[i], warmResults[i]) {
			t.Fatalf("warm result %d differs from cold:\ncold %+v\nwarm %+v",
				i, coldResults[i], warmResults[i])
		}
	}
	if warm*5 > cold {
		t.Errorf("warm run %v is not 5x faster than cold %v", warm, cold)
	}
	t.Logf("cold %v, warm %v (%.1fx)", cold, warm, cold.Seconds()/warm.Seconds())
}

// sameAnswer compares everything a client consumes except the pair ID
// (deduped siblings carry their own IDs), the Cached marker and the
// execution placement.
func sameAnswer(a, b Result) bool {
	return a.Score == b.Score && a.InBand == b.InBand &&
		string(a.Cigar) == string(b.Cigar) && a.Status == b.Status &&
		a.Provenance == b.Provenance
}

// TestSessionCacheBitIdentical is the differential test: over a corpus of
// varied pairs, results served from the cache must match recomputation
// (a cache-less session over the same workload) bit for bit — score,
// in-band flag, CIGAR, status and provenance.
func TestSessionCacheBitIdentical(t *testing.T) {
	pairs := makePairs(77, 120, 150, 0.10)
	base := SessionConfig{Host: testConfig(2, true), MaxBatchPairs: 32, QueueLimit: len(pairs)}

	_, oracle := streamAll(t, base, pairs) // no cache: pure recomputation

	cached := base
	cached.Cache = openHostCache(t)
	_, fill := streamAll(t, cached, pairs)
	filledRep, replay := streamAll(t, cached, pairs)
	if filledRep.CacheHits == 0 {
		t.Fatal("replay run hit nothing")
	}
	for i := range oracle {
		if !sameAnswer(oracle[i], fill[i]) {
			t.Errorf("fill result %d diverged from oracle:\noracle %+v\n  fill %+v",
				i, oracle[i], fill[i])
		}
		if !sameAnswer(oracle[i], replay[i]) {
			t.Errorf("replayed result %d diverged from oracle:\noracle %+v\nreplay %+v",
				i, oracle[i], replay[i])
		}
	}
}

// TestSessionCacheNeverStoresDegraded: a run whose pairs resolve through
// the degraded ladder rungs (score-only / CPU fallback) must insert
// nothing for them, and an untrusted stored status must never be served.
func TestSessionCacheNeverStoresDegraded(t *testing.T) {
	// A tiny band with escalation on and a tight MaxBand forces pairs
	// through clipped/out-of-band into the degraded rungs.
	cfg := SessionConfig{MaxBatchPairs: 64}
	cfg.Host = testConfig(1, true)
	cfg.Host.Kernel.Band = 16
	cfg.Host.Escalate = true
	cfg.Host.MaxBand = 32
	cfg.Cache = openHostCache(t)

	pairs := makePairs(9, 60, 300, 0.25) // high error rate: band 16 cannot hold these
	pairs = append(pairs, makePairs(10, 4, 60, 0.0)...)
	for i := range pairs {
		pairs[i].ID = i
	}
	rep, results := streamAll(t, cfg, pairs)
	if rep.DegradedScoreOnly+rep.DegradedCPU == 0 {
		t.Fatal("workload produced no degraded results; the test exercises nothing")
	}
	degraded := 0
	for _, r := range results {
		if r.Status == StatusDegradedScoreOnly || r.Status == StatusDegradedCPU {
			degraded++
		}
	}
	stats := cfg.Cache.Stats()
	if int(stats.Inserts) != len(pairs)-degraded {
		t.Errorf("%d inserts for %d pairs with %d degraded — degraded results were cached",
			stats.Inserts, len(pairs), degraded)
	}

	// Replay: only the non-degraded pairs may hit.
	rep2, results2 := streamAll(t, cfg, pairs)
	if rep2.CacheHits != len(pairs)-degraded {
		t.Errorf("replay: %d hits, want %d", rep2.CacheHits, len(pairs)-degraded)
	}
	for i, r := range results2 {
		if r.Cached && (r.Status == StatusDegradedScoreOnly || r.Status == StatusDegradedCPU) {
			t.Errorf("degraded result %d served from cache", i)
		}
		if !sameAnswer(results[i], r) {
			t.Errorf("replay result %d diverged:\nfirst  %+v\nreplay %+v", i, results[i], r)
		}
	}
}

// TestSessionCacheNoStore: CacheNoStore serves hits but never inserts —
// the shed-degraded serving mode.
func TestSessionCacheNoStore(t *testing.T) {
	pairs := makePairs(31, 40, 120, 0.05)
	cfg := SessionConfig{Host: testConfig(1, true), MaxBatchPairs: 16, QueueLimit: len(pairs)}
	cfg.Cache = openHostCache(t)
	cfg.CacheNoStore = true

	streamAll(t, cfg, pairs)
	if stats := cfg.Cache.Stats(); stats.Inserts != 0 {
		t.Fatalf("CacheNoStore session inserted %d records", stats.Inserts)
	}

	// Fill normally, then confirm a NoStore session still hits.
	store := cfg
	store.CacheNoStore = false
	streamAll(t, store, pairs)
	rep, _ := streamAll(t, cfg, pairs)
	if rep.CacheHits != len(pairs) {
		t.Fatalf("NoStore replay: %d hits for %d pairs", rep.CacheHits, len(pairs))
	}
}

// TestSessionCacheInBatchDedup: duplicate submissions share a single
// computation and all receive the answer, whether they land in one
// micro-batch or are spread over many.
func TestSessionCacheInBatchDedup(t *testing.T) {
	pairs := dupHeavyPairs(64, 4, 150) // 16 copies of each
	for _, batch := range []int{64, 8, 1} {
		cfg := SessionConfig{Host: testConfig(1, true), MaxBatchPairs: batch, QueueLimit: 64}
		cfg.Cache = openHostCache(t)

		rep, results := streamAll(t, cfg, pairs)
		if rep.DedupedPairs != 60 {
			t.Fatalf("batch %d: DedupedPairs = %d, want 60 (64 submissions, 4 unique)", batch, rep.DedupedPairs)
		}
		if rep.Alignments != 64 {
			t.Fatalf("batch %d: Alignments = %d, want 64", batch, rep.Alignments)
		}
		if stats := cfg.Cache.Stats(); stats.Inserts != 4 {
			t.Fatalf("batch %d: %d inserts, want 4", batch, stats.Inserts)
		}
		for i, r := range results {
			if r.ID != i {
				t.Fatalf("batch %d: result %d carries ID %d", batch, i, r.ID)
			}
			if !sameAnswer(results[i%4], r) {
				t.Fatalf("batch %d: deduped result %d diverged from its sibling %d", batch, i, i%4)
			}
		}
	}
}

// TestSessionWaitingSubmitOwnsItsEntry: a Submit that waits for room
// creates its answer-table entry only when it is admitted, so the pair
// is computed as its own owner, not attached to the pair ahead of it.
func TestSessionWaitingSubmitOwnsItsEntry(t *testing.T) {
	pairs := makePairs(65, 2, 100, 0.05)
	cfg := SessionConfig{Host: testConfig(1, true), MaxBatchPairs: 1, QueueLimit: 1, Cache: openHostCache(t)}
	s, err := NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(pairs[0]); err != nil {
		t.Fatal(err)
	}
	submitWaitsForResult(t, s, pairs[1])
	go s.Close()
	r, ok := <-s.Results()
	if !ok {
		t.Fatal("resubmitted pair never streamed")
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if r.ID != pairs[1].ID || !r.Status.Trusted() || r.Cached || r.Rank < 0 {
		t.Fatalf("resubmitted pair came back %+v, want computed and trusted", r)
	}
	if rep := s.Report(); rep.DedupedPairs != 0 || rep.CacheMisses != 2 {
		t.Fatalf("report counts %d deduped, %d misses; want 0 and 2", rep.DedupedPairs, rep.CacheMisses)
	}
}

// failFirstRound is a PiM server whose first Round fails with a plain
// error — not ErrBackendDown, so the fleet cannot redispatch it and the
// micro-batch fails.
type failFirstRound struct {
	*PiMBackend
	failed atomic.Bool
}

func (b *failFirstRound) Round(cfg Config, pairs []Pair, sp *obs.Span) (*Report, []Result, error) {
	if !b.failed.Swap(true) {
		return nil, nil, errors.New("injected round failure")
	}
	return b.PiMBackend.Round(cfg, pairs, sp)
}

// TestSessionReplayOfFailedOwner: when the micro-batch holding a key's
// owner fails, a replay of that key in a later micro-batch has no answer
// to copy. It must stream as abandoned, never as a zero-valued result
// passed off as trusted.
func TestSessionReplayOfFailedOwner(t *testing.T) {
	p := makePairs(66, 1, 100, 0.05)[0]
	cfg := SessionConfig{Host: testConfig(1, true), MaxBatchPairs: 1, MaxConcurrentBatches: 1, MaxLinger: time.Hour}
	cfg.Host.Backends = []Backend{&failFirstRound{PiMBackend: NewPiMBackend("pim0", 1, 0)}}
	cfg.Cache = openHostCache(t)
	s, err := NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 2; id++ {
		if err := s.Submit(Pair{ID: id, A: p.A, B: p.B}); err != nil {
			t.Fatal(err)
		}
	}
	go s.Close()
	var got []Result
	for r := range s.Results() {
		got = append(got, r)
	}
	if err := s.Err(); err == nil {
		t.Fatal("the failed micro-batch was not reported")
	}
	for _, r := range got {
		if r.ID == 0 {
			t.Errorf("the failed owner streamed %+v", r)
		}
		if r.Status != StatusAbandoned || r.Rank != -1 || r.DPU != -1 {
			t.Errorf("replay of a failed owner streamed %+v, want abandoned", r)
		}
	}
	if rep := s.Report(); len(got) == 1 && (rep.AbandonedPairs != 1 || rep.Alignments != 0) {
		t.Errorf("report counts %d abandoned, %d alignments; want 1 and 0", rep.AbandonedPairs, rep.Alignments)
	}
}

// TestSessionReportDeterministic: with a cache attached, what a session
// computes and reports is a function of its submissions. Batch size,
// concurrency, linger and GOMAXPROCS move only placement; the answers
// and every tally must repeat exactly. A cold cache per run, no faults
// (fault draws are keyed by micro-batch). The submitter stalls past the
// short lingers, so the wall clock does cut micro-batches.
func TestSessionReportDeterministic(t *testing.T) {
	pairs := dupHeavyPairs(96, 12, 200)
	batches := []int{96, 1, 7, 16, 5}
	concs := []int{1, 2, 4}
	lingers := []time.Duration{time.Hour, 0, time.Microsecond}
	procs := []int{1, 2, 4}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	type tally struct {
		Alignments, CacheHits, CacheMisses, DedupedPairs       int
		ClippedPairs, OutOfBandPairs, Escalations, DegradedCPU int
		TotalCells                                             int64
		Provenance                                             map[string]int
	}
	var want []Result
	var wantTally tally
	reg := obs.NewRegistry() // counts the linger's seals
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	for i := 0; i < len(batches)*len(concs); i++ {
		cfg := SessionConfig{
			Host:                 escalationConfig(true), // band 16: the ladder has work
			MaxBatchPairs:        batches[i%len(batches)],
			MaxConcurrentBatches: concs[i%len(concs)],
			MaxLinger:            lingers[i/len(batches)%len(lingers)],
			QueueLimit:           len(pairs),
			Cache:                openHostCache(t),
		}
		runtime.GOMAXPROCS(procs[i/len(concs)%len(procs)])
		var pause time.Duration // a stalling submitter, so short lingers do cut
		if cfg.maxLinger() < time.Second {
			pause = 2 * cfg.maxLinger()
		}
		rep, results := sessionAll(t, cfg, pairs, pause)
		for j := range results {
			results[j].Rank, results[j].DPU, results[j].Backend = 0, 0, ""
		}
		got := tally{
			rep.Alignments, rep.CacheHits, rep.CacheMisses, rep.DedupedPairs,
			rep.ClippedPairs, rep.OutOfBandPairs, rep.Escalations, rep.DegradedCPU,
			rep.TotalCells, rep.Provenance,
		}
		if want == nil {
			if got.Escalations == 0 || got.DedupedPairs == 0 {
				t.Fatalf("workload exercises nothing: %+v", got)
			}
			want, wantTally = results, got
			continue
		}
		run := fmt.Sprintf("run %d (batch %d, conc %d, linger %v, procs %d)", i,
			cfg.MaxBatchPairs, cfg.MaxConcurrentBatches, cfg.MaxLinger, runtime.GOMAXPROCS(0))
		for j := range results {
			if !reflect.DeepEqual(results[j], want[j]) {
				t.Errorf("%s: result %d differs\n got %+v\nwant %+v", run, j, results[j], want[j])
				break
			}
		}
		if !reflect.DeepEqual(got, wantTally) {
			t.Errorf("%s: report differs\n got %+v\nwant %+v", run, got, wantTally)
		}
	}
	if reg.Counter("session_flush_linger_total").Value() == 0 {
		t.Error("the linger clock sealed no micro-batch: the linger axis went untested")
	}
}

// TestSessionCacheConcurrentSessions runs several streaming sessions
// sharing one cache at once; under -race this proves lookups, inserts and
// hot-tier promotion race-cleanly against live dispatch.
func TestSessionCacheConcurrentSessions(t *testing.T) {
	c := openHostCache(t)
	pool := makePairs(55, 30, 120, 0.06)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pairs := make([]Pair, 60)
			for i := range pairs {
				p := pool[(g*7+i)%len(pool)]
				pairs[i] = Pair{ID: i, A: p.A, B: p.B}
			}
			cfg := SessionConfig{
				Host:                 testConfig(1, true),
				MaxBatchPairs:        16,
				MaxConcurrentBatches: 2,
				QueueLimit:           len(pairs),
			}
			cfg.Cache = c
			_, results, err := AlignPairsStream(context.Background(), cfg, pairs)
			if err != nil {
				t.Error(err)
				return
			}
			if len(results) != len(pairs) {
				t.Errorf("session %d: %d results for %d pairs", g, len(results), len(pairs))
			}
		}(g)
	}
	wg.Wait()
	stats := c.Stats()
	if stats.Inserts == 0 || stats.Hits+stats.Misses == 0 {
		t.Fatalf("shared cache saw no traffic: %+v", stats)
	}
}

// TestSessionConcurrentSubmitsComputeOnce: submitters racing on one
// session's answer table still compute each distinct pair exactly once,
// and every submission gets its pair's answer under its own ID.
func TestSessionConcurrentSubmitsComputeOnce(t *testing.T) {
	const unique, submitters = 6, 4
	pairs := dupHeavyPairs(96, unique, 120)
	cfg := SessionConfig{Host: testConfig(1, true), MaxBatchPairs: 5, QueueLimit: len(pairs), Cache: openHostCache(t)}
	s, err := NewSession(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(pairs); i += submitters {
				if err := s.Submit(pairs[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	go func() {
		wg.Wait()
		s.Close()
	}()
	byKey := map[int]Result{}
	n := 0
	for r := range s.Results() {
		n++
		if want, ok := byKey[r.ID%unique]; ok && !sameAnswer(want, r) {
			t.Errorf("submission %d diverged from its pair's answer:\n got %+v\nwant %+v", r.ID, r, want)
		}
		byKey[r.ID%unique] = r
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if n != len(pairs) || rep.Alignments != len(pairs) || rep.DedupedPairs != len(pairs)-unique {
		t.Fatalf("%d streamed, %d alignments, %d deduped for %d submissions of %d pairs",
			n, rep.Alignments, rep.DedupedPairs, len(pairs), unique)
	}
	if ins := cfg.Cache.Stats().Inserts; ins != unique {
		t.Fatalf("%d inserts for %d distinct pairs", ins, unique)
	}
}

// TestSessionCacheSingleBatchMatchesOneShot: with a cache attached but
// cold and no duplicates, a single-micro-batch session must still be
// bit-identical to one-shot AlignPairs — the cache path must not perturb
// the compute path.
func TestSessionCacheSingleBatchMatchesOneShot(t *testing.T) {
	pairs := makePairs(21, 40, 150, 0.05)
	cfg := testConfig(2, true)
	cfg.Faults = pim.FaultConfig{} // keep the one-shot/stream fault seeds aligned
	_, oneShot, err := AlignPairs(cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	scfg := SessionConfig{Host: cfg, MaxBatchPairs: len(pairs), QueueLimit: len(pairs)}
	scfg.Cache = openHostCache(t)
	_, streamed := streamAll(t, scfg, pairs)
	oneShotByID := make(map[int]Result, len(oneShot))
	for _, r := range oneShot {
		oneShotByID[r.ID] = r
	}
	for _, r := range streamed {
		if !sameAnswer(oneShotByID[r.ID], r) {
			t.Fatalf("pair %d diverged from one-shot:\none-shot %+v\nstreamed %+v",
				r.ID, oneShotByID[r.ID], r)
		}
	}
}

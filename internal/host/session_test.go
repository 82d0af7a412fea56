package host

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimnw/internal/obs"
	"pimnw/internal/pim"
)

// sessionKey collapses one streamed result to everything a serving client
// consumes: answer, trust classification and provenance.
type sessionKey struct {
	Score      int32
	InBand     bool
	Cigar      string
	Status     PairStatus
	Provenance string
}

func sessionKeys(results []Result) map[int]sessionKey {
	m := make(map[int]sessionKey, len(results))
	for _, r := range results {
		m[r.ID] = sessionKey{
			Score: r.Score, InBand: r.InBand, Cigar: string(r.Cigar),
			Status: r.Status, Provenance: r.Provenance,
		}
	}
	return m
}

// TestSessionSubmissionOrder: results must stream back in the order the
// pairs were submitted, across micro-batch boundaries and regardless of
// which dispatch worker finishes first.
func TestSessionSubmissionOrder(t *testing.T) {
	pairs := makePairs(51, 50, 120, 0.05)
	// Scramble the IDs so delivery order can only come from submission
	// order, never from ID order.
	for i := range pairs {
		pairs[i].ID = 1000 - 7*i
	}
	s, err := NewSession(context.Background(), SessionConfig{
		Host:                 testConfig(1, true),
		MaxBatchPairs:        8,
		MaxConcurrentBatches: 4,
		QueueLimit:           len(pairs),
	})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for _, p := range pairs {
			if err := s.Submit(p); err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
		}
		s.Close()
	}()
	var gotIDs []int
	for r := range s.Results() {
		gotIDs = append(gotIDs, r.ID)
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(gotIDs) != len(pairs) {
		t.Fatalf("%d results for %d submissions", len(gotIDs), len(pairs))
	}
	for i, p := range pairs {
		if gotIDs[i] != p.ID {
			t.Fatalf("result %d has ID %d, submitted ID %d — delivery out of submission order",
				i, gotIDs[i], p.ID)
		}
	}
}

// TestSessionDuplicateIDs: streaming clients may reuse IDs; every
// submission must still yield exactly one result (the dispatch machinery
// runs on internal dense IDs).
func TestSessionDuplicateIDs(t *testing.T) {
	pairs := makePairs(52, 6, 100, 0.05)
	for i := range pairs {
		pairs[i].ID = 7
	}
	_, results, err := AlignPairsStream(context.Background(), SessionConfig{
		Host:          testConfig(1, true),
		MaxBatchPairs: 2,
	}, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(pairs) {
		t.Fatalf("%d results for %d duplicate-ID submissions", len(results), len(pairs))
	}
	for i, r := range results {
		if r.ID != 7 {
			t.Fatalf("result %d carries ID %d, want the caller's 7", i, r.ID)
		}
	}
}

// TestSessionBitIdenticalUnderFaults is the serving acceptance test: a
// streamed workload must produce results bit-identical to one-shot
// AlignPairs — scores, CIGARs, statuses and provenance — under a 5 %
// fault rate with recovery, both as a single micro-batch (where even the
// report is identical) and split across many micro-batches.
func TestSessionBitIdenticalUnderFaults(t *testing.T) {
	pairs := makePairs(53, 100, 200, 0.1)
	clean := testConfig(2, true)
	cleanRep, _, err := AlignPairs(clean, pairs)
	if err != nil {
		t.Fatal(err)
	}
	faulty := testConfig(2, true)
	faulty.Faults = pim.FaultConfig{Rate: 0.05, Seed: 1234}
	faulty.MaxRetries = 8
	faulty.BatchDeadlineSec = 1.5 * maxKernelSec(cleanRep)
	faulty.RetryBackoffSec = 1e-4
	oneRep, oneResults, err := AlignPairs(faulty, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if oneRep.FaultsDetected == 0 {
		t.Fatal("fault injection inert; the test is not exercising recovery")
	}
	want := sessionKeys(oneResults)

	t.Run("single micro-batch", func(t *testing.T) {
		// A 1ns linger would seal a partial batch between any two
		// submissions; AlignPairsStream holds the whole workload and
		// switches the linger clock off, so it stays one micro-batch.
		rep, results, err := AlignPairsStream(context.Background(), SessionConfig{
			Host:          faulty,
			MaxBatchPairs: len(pairs),
			MaxLinger:     time.Nanosecond,
		}, pairs)
		if err != nil {
			t.Fatal(err)
		}
		if got := sessionKeys(results); !reflect.DeepEqual(got, want) {
			t.Fatal("streamed results diverge from one-shot AlignPairs")
		}
		if !reflect.DeepEqual(rep, oneRep) {
			t.Errorf("single-micro-batch session report diverges from one-shot:\n got %+v\nwant %+v", rep, oneRep)
		}
	})

	t.Run("many micro-batches", func(t *testing.T) {
		rep, results, err := AlignPairsStream(context.Background(), SessionConfig{
			Host:                 faulty,
			MaxBatchPairs:        16,
			MaxConcurrentBatches: 3,
		}, pairs)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(pairs) {
			t.Fatalf("%d results for %d pairs", len(results), len(pairs))
		}
		if got := sessionKeys(results); !reflect.DeepEqual(got, want) {
			for id, w := range want {
				if g := got[id]; g != w {
					t.Errorf("pair %d diverged: %+v vs %+v", id, g, w)
				}
			}
			t.Fatal("streamed results diverge from one-shot AlignPairs")
		}
		if rep.Alignments != oneRep.Alignments {
			t.Errorf("merged report counts %d alignments, one-shot %d", rep.Alignments, oneRep.Alignments)
		}
	})
}

// TestSessionBackpressure: with the bounded admission queue full, Submit
// must wait — not fail — until a delivered result frees a slot.
func TestSessionBackpressure(t *testing.T) {
	pairs := makePairs(54, 8, 80, 0.05)
	s, err := NewSession(context.Background(), SessionConfig{
		Host:                 testConfig(1, true),
		MaxBatchPairs:        1,
		MaxConcurrentBatches: 1,
		QueueLimit:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(pairs[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(pairs[1]); err != nil {
		t.Fatal(err)
	}
	// Nothing has been consumed from Results, so both pairs are still in
	// flight and the third admission must wait for the first result.
	submitWaitsForResult(t, s, pairs[2])
	go s.Close()
	n := 1
	for range s.Results() {
		n++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("delivered %d results, want 3", n)
	}
	if err := s.Submit(pairs[4]); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("Submit after Close = %v, want ErrSessionClosed", err)
	}
}

// submitWaitsForResult submits p into s, whose queue is full and whose
// results nobody has read, and checks that the Submit returns nil only
// after one result is consumed. It consumes that result.
func submitWaitsForResult(t *testing.T, s *Session, p Pair) {
	t.Helper()
	var consumed atomic.Bool
	admitted := make(chan error, 1)
	go func() {
		err := s.Submit(p)
		if !consumed.Load() {
			err = errors.New("returned before any result was consumed")
		}
		admitted <- err
	}()
	select {
	case err := <-admitted:
		t.Fatalf("Submit on a full queue: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	consumed.Store(true)
	if _, ok := <-s.Results(); !ok {
		t.Fatal("results closed with pairs in flight")
	}
	select {
	case err := <-admitted:
		if err != nil {
			t.Fatalf("Submit after a result was consumed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit still waiting after a result was consumed")
	}
}

// TestSessionCancelMidStream: cancelling the context while results are
// streaming must close the Results channel promptly (undelivered batches
// are discarded, not streamed) and surface the cancellation via Err.
func TestSessionCancelMidStream(t *testing.T) {
	pairs := makePairs(55, 40, 120, 0.05)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s, err := NewSession(ctx, SessionConfig{
		Host:                 testConfig(1, true),
		MaxBatchPairs:        4,
		MaxConcurrentBatches: 2,
		QueueLimit:           len(pairs),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if err := s.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	// Consume a couple of results, then cancel mid-stream. The collector
	// is blocked handing over a result nobody will read; delivery must
	// abort instead of deadlocking.
	<-s.Results()
	<-s.Results()
	cancel()
	n := 2
	for range s.Results() {
		n++
	}
	if n >= len(pairs) {
		t.Errorf("all %d results delivered despite mid-stream cancellation", n)
	}
	if err := s.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err after cancel = %v, want context.Canceled", err)
	}
	if err := s.Submit(pairs[0]); err == nil {
		t.Error("Submit accepted after cancellation")
	}
}

// TestSessionAbandonedStillStreams: with escalation off and a hostile
// fabric, abandoned pairs must still produce a streamed Result carrying
// StatusAbandoned — a serving client always gets one answer per
// submission. With a cache attached, replays of an abandoned owner are
// abandoned too, and the report counts every one of them under its
// caller's ID and none of them as an alignment.
func TestSessionAbandonedStillStreams(t *testing.T) {
	cfg := testConfig(1, true)
	cfg.Faults = pim.FaultConfig{RankDropRate: 1, Seed: 3}
	cfg.MaxRetries = 1
	for _, tc := range []struct {
		name  string
		pairs []Pair
		cache bool
	}{
		{"plain", makePairs(56, 10, 80, 0.05), false},
		{"cached replays", dupHeavyPairs(12, 3, 80), true},
	} {
		scfg := SessionConfig{Host: cfg, MaxBatchPairs: 5}
		if tc.cache {
			scfg.Cache = openHostCache(t)
		}
		rep, results, err := AlignPairsStream(context.Background(), scfg, tc.pairs)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(tc.pairs) {
			t.Fatalf("%s: %d results for %d submissions", tc.name, len(results), len(tc.pairs))
		}
		var ids []int
		for i, r := range results {
			if r.Status != StatusAbandoned {
				t.Fatalf("%s: result %d status %v, want abandoned on a dead fabric", tc.name, i, r.Status)
			}
			if r.ID != tc.pairs[i].ID {
				t.Fatalf("%s: result %d carries ID %d, want %d", tc.name, i, r.ID, tc.pairs[i].ID)
			}
			ids = append(ids, r.ID)
		}
		if rep.AbandonedPairs != len(results) {
			t.Errorf("%s: report counts %d abandoned, want %d", tc.name, rep.AbandonedPairs, len(results))
		}
		got := append([]int(nil), rep.AbandonedIDs...)
		sort.Ints(got)
		if !reflect.DeepEqual(got, ids) {
			t.Errorf("%s: AbandonedIDs %v, want the caller IDs %v", tc.name, got, ids)
		}
		prov := 0
		for _, n := range rep.Provenance {
			prov += n
		}
		if rep.Alignments != 0 || prov != 0 {
			t.Errorf("%s: %d alignments, Σ provenance %d; want 0 and 0", tc.name, rep.Alignments, prov)
		}
	}
}

// TestSessionLingerFlush: a partial micro-batch must flush on the linger
// deadline without waiting for more traffic or for Close.
func TestSessionLingerFlush(t *testing.T) {
	pairs := makePairs(57, 3, 80, 0.05)
	s, err := NewSession(context.Background(), SessionConfig{
		Host:          testConfig(1, true),
		MaxBatchPairs: 100, // never reached; only the linger can flush
		MaxLinger:     5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if err := s.Submit(p); err != nil {
			t.Fatal(err)
		}
	}
	got := 0
	timeout := time.After(10 * time.Second)
	for got < len(pairs) {
		select {
		case _, ok := <-s.Results():
			if !ok {
				t.Fatalf("results closed after %d of %d", got, len(pairs))
			}
			got++
		case <-timeout:
			t.Fatalf("linger flush never fired; %d of %d delivered", got, len(pairs))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionReportMergesAcrossBatches: the merged report must account
// every micro-batch (batch numbering, makespan accumulation, alignment
// counts), modelling the batches back-to-back on the shared fabric.
func TestSessionReportMergesAcrossBatches(t *testing.T) {
	pairs := makePairs(58, 48, 120, 0.05)
	rep, _, err := AlignPairsStream(context.Background(), SessionConfig{
		Host:          testConfig(2, true),
		MaxBatchPairs: 12,
	}, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Alignments != len(pairs) {
		t.Errorf("merged report counts %d alignments, want %d", rep.Alignments, len(pairs))
	}
	if rep.Batches < 4 {
		t.Errorf("merged report counts %d batches; 48 pairs at 12/micro-batch over 2 ranks should give >= 4", rep.Batches)
	}
	var lastEnd float64
	for _, rs := range rep.Ranks {
		if rs.EndSec > lastEnd {
			lastEnd = rs.EndSec
		}
	}
	if rep.MakespanSec != lastEnd {
		t.Errorf("merged makespan %.9f, last rank ends %.9f", rep.MakespanSec, lastEnd)
	}
	f := rep.HostOverheadFraction()
	if f < 0 || f > 1 {
		t.Errorf("merged HostOverheadFraction %.6f outside [0,1]", f)
	}
}

// waitGoroutines polls until the process is back to at most base
// goroutines, failing after 5 s.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5s after the session ended, %d before it opened", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSessionLifecycle: an open session with nothing in flight runs no
// goroutine, and every way of ending one — a graceful Close, a cancel
// mid-stream, a cancel while Submit waits for room — closes Results and
// leaves no goroutine behind. The waiting Submit returns
// ErrSessionClosed.
func TestSessionLifecycle(t *testing.T) {
	pairs := makePairs(59, 12, 80, 0.05)
	cfg := SessionConfig{Host: testConfig(1, true), MaxBatchPairs: 2, MaxConcurrentBatches: 2}
	drain := func(s *Session) int {
		n := 0
		for range s.Results() {
			n++
		}
		return n
	}

	t.Run("close", func(t *testing.T) {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		s, err := NewSession(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n != base {
			t.Fatalf("an idle open session runs %d goroutines", n-base)
		}
		go func() {
			for _, p := range pairs {
				if err := s.Submit(p); err != nil {
					t.Errorf("Submit: %v", err)
				}
			}
			s.Close()
		}()
		if n := drain(s); n != len(pairs) {
			t.Fatalf("%d results for %d pairs", n, len(pairs))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, base)
	})

	t.Run("cancel mid-stream", func(t *testing.T) {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		s, err := NewSession(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			if err := s.Submit(p); err != nil {
				t.Fatal(err)
			}
		}
		<-s.Results()
		cancel()
		if n := 1 + drain(s); n >= len(pairs) {
			t.Errorf("all %d results delivered despite the cancel", n)
		}
		if err := s.Close(); !errors.Is(err, context.Canceled) {
			t.Errorf("Close after cancel = %v, want context.Canceled", err)
		}
		waitGoroutines(t, base)
	})

	t.Run("cancel while Submit waits", func(t *testing.T) {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		wcfg := cfg
		wcfg.MaxBatchPairs, wcfg.QueueLimit = 1, 2
		s, err := NewSession(ctx, wcfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs[:2] {
			if err := s.Submit(p); err != nil {
				t.Fatal(err)
			}
		}
		waiting := make(chan error, 1)
		go func() { waiting <- s.Submit(pairs[2]) }()
		select {
		case err := <-waiting:
			t.Fatalf("Submit on a full queue returned %v without waiting", err)
		case <-time.After(50 * time.Millisecond):
		}
		cancel()
		select {
		case err := <-waiting:
			if !errors.Is(err, ErrSessionClosed) {
				t.Fatalf("waiting Submit = %v after cancel, want ErrSessionClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiting Submit never returned after cancel")
		}
		drain(s)
		s.Close()
		waitGoroutines(t, base)
	})

	t.Run("cancel while a seal waits for a compute token", func(t *testing.T) {
		base := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		blk := &blockingBackend{PiMBackend: NewPiMBackend("pim0", 1, 0),
			entered: make(chan struct{}, 1), release: make(chan struct{})}
		wcfg := cfg
		wcfg.MaxBatchPairs, wcfg.MaxConcurrentBatches = 1, 1
		wcfg.Host.Backends = []Backend{blk}
		s, err := NewSession(ctx, wcfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Submit(pairs[0]); err != nil {
			t.Fatal(err)
		}
		<-blk.entered // the first batch holds the only token
		waiting := make(chan error, 1)
		go func() { waiting <- s.Submit(pairs[1]) }()
		select {
		case err := <-waiting:
			t.Fatalf("Submit sealing past a held token returned %v without waiting", err)
		case <-time.After(50 * time.Millisecond):
		}
		cancel()
		select {
		case err := <-waiting:
			if !errors.Is(err, ErrSessionClosed) {
				t.Errorf("waiting Submit = %v after cancel, want ErrSessionClosed", err)
			}
		case <-time.After(time.Second):
			t.Error("waiting Submit still blocked 1s after cancel, while a compute runs")
		}
		close(blk.release)
		drain(s)
		s.Close()
		waitGoroutines(t, base)
	})
}

// blockingBackend is a PiM server whose Round signals entered (without
// waiting for a reader), then waits for release.
type blockingBackend struct {
	*PiMBackend
	entered, release chan struct{}
}

func (b *blockingBackend) Round(cfg Config, pairs []Pair, sp *obs.Span) (*Report, []Result, error) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.release
	return b.PiMBackend.Round(cfg, pairs, sp)
}

// roundRecorder is a PiM server that records which pairs each Round
// computed, by the address of their first base (Round sees dense IDs).
type roundRecorder struct {
	*PiMBackend
	mu     sync.Mutex
	rounds [][]*byte
}

func (b *roundRecorder) Round(cfg Config, pairs []Pair, sp *obs.Span) (*Report, []Result, error) {
	b.mu.Lock()
	var r []*byte
	for _, p := range pairs {
		r = append(r, (*byte)(&p.A[0]))
	}
	b.rounds = append(b.rounds, r)
	b.mu.Unlock()
	return b.PiMBackend.Round(cfg, pairs, sp)
}

// TestSessionSealOrder: micro-batches take their compute tokens in seal
// order, so with one token and one pair per batch the backend computes
// the pairs exactly in submission order.
func TestSessionSealOrder(t *testing.T) {
	pairs := makePairs(60, 32, 60, 0.05)
	rec := &roundRecorder{PiMBackend: NewPiMBackend("pim0", 1, 0)}
	cfg := SessionConfig{Host: testConfig(1, true), MaxBatchPairs: 1, MaxConcurrentBatches: 1}
	cfg.Host.Backends = []Backend{rec}
	_, results, err := AlignPairsStream(context.Background(), cfg, pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(pairs) {
		t.Fatalf("%d results for %d pairs", len(results), len(pairs))
	}
	if len(rec.rounds) != len(pairs) {
		t.Fatalf("%d Round calls for %d one-pair micro-batches", len(rec.rounds), len(pairs))
	}
	for i, r := range rec.rounds {
		if len(r) != 1 || r[0] != (*byte)(&pairs[i].A[0]) {
			t.Fatalf("Round %d did not compute pair %d alone: compute order is not seal order", i, i)
		}
	}
}

// TestSessionQueueDepthDaemonWide: session_queue_depth counts admitted,
// undelivered pairs across every open session, and reads 0 once they
// drain.
func TestSessionQueueDepthDaemonWide(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	depth := reg.Gauge("session_queue_depth")
	pairs := makePairs(61, 7, 60, 0.05)
	cfg := SessionConfig{Host: testConfig(1, true), MaxBatchPairs: 2}
	var sessions []*Session
	held := 0
	for _, n := range []int{3, 4} {
		s, err := NewSession(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs[:n] {
			if err := s.Submit(p); err != nil {
				t.Fatal(err)
			}
		}
		sessions = append(sessions, s)
		held += n
	}
	if got := depth.Value(); got != float64(held) {
		t.Fatalf("session_queue_depth reads %v with %d pairs in flight in two sessions", got, held)
	}
	for _, s := range sessions {
		go s.Close()
		for range s.Results() {
		}
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
	}
	if got := depth.Value(); got != 0 {
		t.Fatalf("session_queue_depth reads %v after both sessions drained, want 0", got)
	}
}

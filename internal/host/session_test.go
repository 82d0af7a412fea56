package host

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

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
		rep, results, err := AlignPairsStream(context.Background(), SessionConfig{
			Host:          faulty,
			MaxBatchPairs: len(pairs),
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

// TestSessionBackpressure: the bounded admission queue must reject with
// ErrQueueFull while full and admit again once results drain.
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
	// flight and the third admission must bounce.
	if err := s.Submit(pairs[2]); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit on a full queue = %v, want ErrQueueFull", err)
	}
	// Drain one result; the freed slot must readmit (the decrement races
	// with this goroutine, so poll briefly).
	<-s.Results()
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := s.Submit(pairs[3])
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("Submit after drain = %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never freed a slot after a result was consumed")
		}
		time.Sleep(time.Millisecond)
	}
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

package host

import (
	"context"
	"time"

	"pimnw/internal/cache"
	"pimnw/internal/kernel"
	"pimnw/internal/obs"
)

// runMicroBatch executes one micro-batch through the one-shot pipeline
// (alignOnce: dispatch, recovery, escalation, annotation) and reorders
// the results into submission order, so the collector can stream them
// without any per-pair bookkeeping.
func (s *Session) runMicroBatch(mb microBatch) batchOutcome {
	pickup := time.Now()
	oc := batchOutcome{seq: mb.seq, subs: mb.subs}
	if err := s.ctx.Err(); err != nil {
		// Cancelled: skip the compute, the collector discards the batch.
		oc.err = err
		return oc
	}
	if !mb.flushedAt.IsZero() {
		s.mu.Lock()
		s.stages.QueueWaitSec += pickup.Sub(mb.flushedAt).Seconds() * float64(len(mb.subs))
		s.mu.Unlock()
	}
	cfg := s.cfg.Host

	// The dispatch machinery and the escalation ladder need unique pair
	// IDs; streaming clients may reuse theirs across (or even within)
	// submissions, so the batch runs on dense internal IDs that are
	// mapped back to the caller's on the way out. With a cache attached,
	// two more classes of submission never reach the kernel at all:
	// admission-time hits (slot -1), and in-batch duplicates, which map
	// onto the dense ID of their first identical sibling and share its
	// computation.
	cch := s.cfg.Cache
	slot := make([]int, len(mb.subs)) // submission -> dense pair ID, -1 = hit
	var firstSub []int                // dense pair ID -> first submission index
	var pairs []Pair
	hits := 0
	var keyOf map[cache.Key]int
	if cch != nil {
		keyOf = make(map[cache.Key]int, len(mb.subs))
	}
	for i, sub := range mb.subs {
		if sub.hit != nil {
			slot[i] = -1
			hits++
			continue
		}
		if keyOf != nil {
			if id, dup := keyOf[sub.key]; dup {
				slot[i] = id
				continue
			}
		}
		id := len(pairs)
		pairs = append(pairs, Pair{ID: id, A: sub.pair.A, B: sub.pair.B})
		firstSub = append(firstSub, i)
		slot[i] = id
		if keyOf != nil {
			keyOf[sub.key] = id
		}
	}
	dups := len(mb.subs) - hits - len(pairs)

	var rep *Report
	var results []Result
	if len(pairs) > 0 {
		// Decorrelate fault draws across micro-batches: batch coordinates
		// restart at 0 inside every micro-batch, so reusing the seed would
		// make the same faults chase every batch — the same trick the
		// escalation ladder plays for its rounds. Seq 0 keeps the base seed,
		// which makes a single-micro-batch session bit-identical to one-shot
		// AlignPairs, faults included.
		cfg.Faults.Seed += int64(mb.seq) * 999983
		sp := obs.StartSpan("host.session_batch")
		sp.SetAttrInt("batch", int64(mb.seq))
		sp.SetAttrInt("pairs", int64(len(pairs)))
		if cfg.TraceID != "" {
			sp.SetAttr("trace_id", cfg.TraceID)
		}
		var err error
		rep, results, err = alignOnce(cfg, pairs, sp)
		sp.End()
		if err != nil {
			oc.err = err
			return oc
		}
	} else {
		// Every submission hit: nothing executed, the fabric was never
		// touched, and the report says so.
		rep = newReport(cfg.TraceID)
	}

	dense := make([]Result, len(pairs))
	haveDense := make([]bool, len(pairs))
	for _, r := range results {
		dense[r.ID] = r
		haveDense[r.ID] = true
	}
	if cch != nil && !s.cfg.CacheNoStore {
		for id, r := range dense {
			if haveDense[id] && cacheInsertable(r.Status) {
				if err := cch.Insert(mb.subs[firstSub[id]].key, valueFromResult(r)); err != nil {
					obs.Flight().Recordf("cache", cfg.TraceID, "insert failed: %v", err)
				}
			}
		}
	}

	ordered := make([]Result, len(mb.subs))
	for i, sub := range mb.subs {
		if slot[i] < 0 {
			r := *sub.hit
			rep.countProvenance(r.Provenance)
			ordered[i] = r
			continue
		}
		if id := slot[i]; haveDense[id] {
			r := dense[id]
			r.PairResult.ID = sub.pair.ID
			if i != firstSub[id] {
				// A deduped sibling: same answer, counted once per delivery.
				rep.countProvenance(r.Provenance)
			}
			ordered[i] = r
			continue
		}
		// Abandoned under faults with escalation off: the submission
		// still yields exactly one streamed result, carrying the terminal
		// status instead of silently vanishing from the stream.
		ordered[i] = Result{
			PairResult: kernel.PairResult{ID: sub.pair.ID},
			Rank:       -1, DPU: -1,
			Status: StatusAbandoned,
		}
	}
	for i, id := range rep.AbandonedIDs {
		rep.AbandonedIDs[i] = mb.subs[firstSub[id]].pair.ID
	}
	for i := range rep.Issues {
		rep.Issues[i].ID = mb.subs[firstSub[rep.Issues[i].ID]].pair.ID
	}
	rep.CacheHits += hits
	if cch != nil {
		rep.CacheMisses += len(mb.subs) - hits
	}
	rep.DedupedPairs += dups
	// Every submission yields exactly one delivered result; hits and
	// deduped siblings count in Alignments just like computed pairs, so
	// Σ Provenance == Alignments holds with or without a cache.
	rep.Alignments += hits + dups
	oc.rep, oc.results = rep, ordered
	return oc
}

// collect is the session's delivery loop: it re-sequences finished
// micro-batches (workers may complete out of order) and streams each
// batch's results in submission order, merging reports as it goes. It
// owns closing the Results channel and the done signal.
func (s *Session) collect() {
	defer close(s.done)
	defer close(s.results)
	next := 0
	hold := map[int]batchOutcome{}
	cancelled := false
	for oc := range s.outcomes {
		hold[oc.seq] = oc
		for {
			o, ok := hold[next]
			if !ok {
				break
			}
			delete(hold, next)
			next++
			if !s.deliver(o, cancelled) {
				cancelled = true
			}
		}
	}
	s.mu.Lock()
	rep := s.rep
	s.mu.Unlock()
	if rep != nil {
		rep.publishMetrics()
	}
}

// deliver streams one batch outcome and folds its report into the
// session's. It returns false once the context is cancelled, after which
// later outcomes are merged and accounted but no longer streamed.
func (s *Session) deliver(oc batchOutcome, cancelled bool) bool {
	defer func() {
		s.mu.Lock()
		s.inFlight -= len(oc.subs)
		depth := s.inFlight
		s.mu.Unlock()
		obs.Default().Gauge("session_queue_depth").Set(float64(depth))
	}()
	if oc.err != nil {
		s.fail(oc.err)
		return !cancelled
	}
	s.mu.Lock()
	if s.rep == nil {
		s.rep = oc.rep
	} else {
		s.rep.Then(oc.rep)
	}
	s.mu.Unlock()
	if cancelled {
		return false
	}
	reg := obs.Default()
	for i := range oc.results {
		select {
		case s.results <- oc.results[i]:
			reg.Histogram("session_pair_latency_seconds", latencyBuckets).
				Observe(time.Since(oc.subs[i].at).Seconds())
		case <-s.ctx.Done():
			s.fail(s.ctx.Err())
			return false
		}
	}
	return true
}

// AlignPairsStream runs a one-shot workload through a streaming Session
// and collects the streamed results — the bridge the experiment harness
// uses to drive its batch experiments over the serving path. The queue
// limit is raised to the workload size so a batch run never self-rejects;
// with MaxBatchPairs >= len(pairs) the whole workload is one micro-batch
// and the report is bit-identical to AlignPairs.
func AlignPairsStream(ctx context.Context, cfg SessionConfig, pairs []Pair) (*Report, []Result, error) {
	if cfg.QueueLimit < len(pairs) {
		cfg.QueueLimit = len(pairs)
	}
	s, err := NewSession(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	go func() {
		for _, p := range pairs {
			if err := s.Submit(p); err != nil {
				s.fail(err)
				break
			}
		}
		s.Close()
	}()
	results := make([]Result, 0, len(pairs))
	for r := range s.Results() {
		results = append(results, r)
	}
	rep := s.Report()
	if err := s.Err(); err != nil {
		return nil, nil, err
	}
	return rep, results, nil
}

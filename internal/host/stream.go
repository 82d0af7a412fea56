package host

import (
	"context"
	"time"

	"pimnw/internal/cache"
	"pimnw/internal/obs"
)

// runMicroBatch executes the owners of one micro-batch through the one
// batch path (alignBatch: dispatch, recovery, escalation, annotation)
// and inserts their insertable results into the cache; the collector
// fills in every replay at delivery.
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
	cfg := s.cfg
	// Decorrelate fault draws across micro-batches: batch coordinates
	// restart at 0 inside every micro-batch, so reusing the seed would
	// make the same faults chase every batch — the same trick the
	// escalation ladder plays for its rounds. Seq 0 keeps the base seed,
	// which makes a single-micro-batch session bit-identical to one-shot
	// AlignPairs, faults included.
	cfg.Host.Faults.Seed += int64(mb.seq) * 999983
	sp := obs.StartSpan("host.session_batch")
	sp.SetAttrInt("batch", int64(mb.seq))
	sp.SetAttrInt("pairs", int64(len(mb.subs)))
	if cfg.Host.TraceID != "" {
		sp.SetAttr("trace_id", cfg.Host.TraceID)
	}
	pairs := make([]Pair, 0, len(mb.subs))
	var keys []cache.Key // owners' keys, in result order; nil without a cache
	for _, sub := range mb.subs {
		if sub.own {
			pairs = append(pairs, sub.pair)
			if sub.ans != nil {
				keys = append(keys, sub.key)
			}
		}
	}
	oc.rep, oc.results, oc.err = alignBatch(cfg.Host, pairs, sp)
	sp.End()
	if oc.err == nil && keys != nil && !cfg.CacheNoStore {
		for i, r := range oc.results {
			if cacheInsertable(r.Status) {
				if err := cfg.Cache.Insert(keys[i], valueFromResult(r)); err != nil {
					obs.Flight().Recordf("cache", cfg.Host.TraceID, "insert failed: %v", err)
				}
			}
		}
	}
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
	results := s.resolve(oc)
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
	for i := range results {
		select {
		case s.results <- results[i]:
			reg.Histogram("session_pair_latency_seconds", latencyBuckets).
				Observe(time.Since(oc.subs[i].at).Seconds())
		case <-s.ctx.Done():
			s.fail(s.ctx.Err())
			return false
		}
	}
	return true
}

// resolve completes one delivered batch in submission order. An owner
// takes the next computed result and writes it into its table entry;
// every other submission copies its entry under its own ID. Delivery is
// in submission order, so an owner always resolves before any replay of
// it, and an entry that still reads abandoned belongs to a failed batch.
// Replays are tallied into oc.rep per delivery, and CacheMisses is the
// batch's submissions less its hits.
func (s *Session) resolve(oc batchOutcome) []Result {
	if s.table == nil {
		return oc.results
	}
	out := make([]Result, len(oc.subs))
	rep, next, hits := oc.rep, 0, 0
	for i, sub := range oc.subs {
		if sub.own {
			out[i], *sub.ans = oc.results[next], oc.results[next]
			next++
			continue
		}
		r := *sub.ans
		r.ID = sub.pair.ID
		if r.Status == StatusAbandoned {
			rep.AbandonedPairs++
			rep.AbandonedIDs = append(rep.AbandonedIDs, r.ID)
		} else {
			rep.Alignments++
			rep.countProvenance(r.Provenance)
		}
		if r.Cached {
			hits++
		} else {
			rep.DedupedPairs++
		}
		out[i] = r
	}
	rep.CacheHits += hits
	rep.CacheMisses += len(oc.subs) - hits
	return out
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

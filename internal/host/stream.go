package host

import (
	"context"
	"log/slog"
	"math"
	"time"

	"pimnw/internal/cache"
	"pimnw/internal/obs"
)

// runMicroBatch computes the owners of one micro-batch through the one
// batch path (alignBatch: dispatch, recovery, escalation, annotation)
// into mb and inserts their insertable results into the cache; deliver
// fills in every replay. It runs while mb has a compute token, so it
// takes no session lock.
func (s *Session) runMicroBatch(mb *microBatch) {
	if mb.err = s.ctx.Err(); mb.err != nil {
		return // cancelled: skip the compute, deliver discards the batch
	}
	mb.queueWaitSec = time.Since(mb.sealedAt).Seconds() * float64(len(mb.subs))
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
	mb.rep, mb.results, mb.err = alignBatch(cfg.Host, pairs, sp)
	sp.End()
	if mb.err == nil && keys != nil && !cfg.CacheNoStore {
		for i, r := range mb.results {
			if cacheInsertable(r.Status) {
				if err := cfg.Cache.Insert(keys[i], valueFromResult(r)); err != nil {
					slog.Debug("cache insert failed", "kind", "cache", "trace_id", cfg.Host.TraceID, "err", err)
				}
			}
		}
	}
}

// deliver runs in mb's turn, after every earlier batch has delivered: it
// folds mb's report and stage times into the session's and streams its
// results, then frees their queue slots. Once the context is cancelled a
// batch is merged and accounted but no longer streamed.
func (s *Session) deliver(mb *microBatch) {
	defer s.release(len(mb.subs))
	s.mu.Lock()
	s.stages.LingerSec += mb.lingerSec
	s.stages.QueueWaitSec += mb.queueWaitSec
	s.mu.Unlock()
	if mb.err != nil {
		s.fail(mb.err)
		return
	}
	results := s.resolve(mb)
	s.mu.Lock()
	if s.rep == nil {
		s.rep = mb.rep
	} else {
		s.rep.Then(mb.rep)
	}
	s.mu.Unlock()
	if err := s.ctx.Err(); err != nil {
		s.fail(err)
		return
	}
	reg := obs.Default()
	for i := range results {
		select {
		case s.results <- results[i]:
			reg.Histogram("session_pair_latency_seconds", latencyBuckets).
				Observe(time.Since(mb.subs[i].at).Seconds())
		case <-s.ctx.Done():
			s.fail(s.ctx.Err())
			return
		}
	}
}

// resolve completes one delivered batch in submission order. An owner
// takes the next computed result and writes it into its table entry;
// every other submission copies its entry under its own ID. Delivery is
// in submission order, so an owner always resolves before any replay of
// it, and an entry that still reads abandoned belongs to a failed batch.
// Replays are tallied into mb.rep per delivery, and CacheMisses is the
// batch's submissions less its hits.
func (s *Session) resolve(mb *microBatch) []Result {
	if s.table == nil {
		return mb.results
	}
	out := make([]Result, len(mb.subs))
	rep, next, hits := mb.rep, 0, 0
	for i, sub := range mb.subs {
		if sub.own {
			out[i], *sub.ans = mb.results[next], mb.results[next]
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
	rep.CacheMisses += len(mb.subs) - hits
	return out
}

// AlignPairsStream runs a one-shot workload through a streaming Session
// and gathers the streamed results — the bridge the experiment harness
// uses to drive its batch experiments over the serving path. It holds the
// whole workload, so nothing is gained by flushing a partial batch early:
// the linger clock is switched off (only size and Close seal a
// micro-batch) and the queue limit raised to the workload size (Submit
// never waits for room), so the linger clock never splits a run that
// fits one micro-batch, however long the submitting goroutine stalls.
// With MaxBatchPairs >= len(pairs) the whole workload is one micro-batch
// and the report is bit-identical to AlignPairs.
func AlignPairsStream(ctx context.Context, cfg SessionConfig, pairs []Pair) (*Report, []Result, error) {
	cfg.MaxLinger = math.MaxInt64
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

package host

import (
	"context"
	"time"

	"pimnw/internal/obs"
)

// runMicroBatch executes one micro-batch through the one batch path
// (alignBatch: dispatch, recovery, escalation, annotation, cache), which
// returns the results in submission order, so the collector can stream
// them without any per-pair bookkeeping.
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
	oc.rep, oc.results, oc.err = alignBatch(cfg, mb.subs, sp)
	sp.End()
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

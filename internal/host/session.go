package host

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pimnw/internal/cache"
	"pimnw/internal/obs"
	"pimnw/internal/pim"
)

// The streaming dispatch layer. The paper's host (§4.1) is a FIFO
// dispatcher that keeps 40 ranks fed while results stream back;
// AlignPairs is its one-shot form, requiring the full pair list up
// front. A Session is the serving form of the same loop: pairs are
// admitted incrementally, accumulated into rank-sized micro-batches
// under a dynamic batching policy (flush on size, or on a max-linger
// deadline so a trickle of traffic is never parked indefinitely), and
// each micro-batch runs the existing LPT→launch→recover→escalate
// machinery concurrently with continued admission.
//
// A session is a chain of micro-batch turns. Sealing a batch hands it
// its predecessor's turn and a turn of its own; the batch takes one of
// MaxConcurrentBatches compute tokens (in seal order), computes on its
// own goroutine, gives the token back, waits for its predecessor's turn,
// streams its results and ends its own turn. So results stream back in
// submission order, each carrying the same Status/Provenance a one-shot
// run would produce, and a session that receives its whole workload as
// one micro-batch is bit-identical to AlignPairs, reports included.

// ErrSessionClosed rejects a Submit after Close or cancellation.
var ErrSessionClosed = errors.New("host: session closed")

// SessionConfig configures a streaming dispatch session.
type SessionConfig struct {
	// Host is the per-micro-batch run configuration — the same Config
	// AlignPairs takes, faults, escalation ladder and all.
	Host Config
	// MaxBatchPairs flushes the accumulating micro-batch when it reaches
	// this many pairs. Zero means 4 pairs per DPU of a rank (256): enough
	// to keep every DPU of a rank loaded with the LPT spread.
	MaxBatchPairs int
	// MaxLinger bounds how long an admitted pair may wait for its
	// micro-batch to fill before the partial batch is flushed anyway.
	// Zero means 2ms.
	MaxLinger time.Duration
	// QueueLimit bounds admitted-but-undelivered pairs; beyond it Submit
	// waits for a delivery to make room. Zero means 8 micro-batches' worth.
	QueueLimit int
	// MaxConcurrentBatches bounds micro-batches computing at once
	// (admission continues while they run; sealing one more waits for a
	// compute to end). Zero means 2.
	MaxConcurrentBatches int
	// Cache, when non-nil, is the persistent result cache consulted at
	// admission: a hit streams the stored result in submission order
	// without the pair ever reaching the balancer, and certified-optimal
	// non-degraded results (StatusOK / StatusEscalated) are inserted
	// after compute. Dedup is session-wide: the first submission of a
	// cache key consults the cache and, on a miss, is the only one that
	// computes; every later submission of the key in the session replays
	// that answer. The cache may be shared across concurrent sessions.
	Cache *cache.Cache
	// CacheNoStore serves hits but suppresses inserts — set by serving
	// frontends when load shedding has degraded the request plan, so a
	// shed-quality answer can never poison the cache.
	CacheNoStore bool
}

func (c SessionConfig) maxBatchPairs() int {
	if c.MaxBatchPairs > 0 {
		return c.MaxBatchPairs
	}
	return 4 * pim.DPUsPerRank
}

func (c SessionConfig) maxLinger() time.Duration {
	if c.MaxLinger > 0 {
		return c.MaxLinger
	}
	return 2 * time.Millisecond
}

func (c SessionConfig) queueLimit() int {
	if c.QueueLimit > 0 {
		return c.QueueLimit
	}
	return 8 * c.maxBatchPairs()
}

func (c SessionConfig) maxConcurrent() int {
	if c.MaxConcurrentBatches > 0 {
		return c.MaxConcurrentBatches
	}
	return 2
}

// submission is one admitted pair, stamped for latency accounting. Only
// owners compute. With a cache attached, key is the pair's
// content-addressed identity and ans its entry in the session's answer
// table; a submission that does not own its entry replays it at delivery
// (it still occupies its queue and batch slot, so ordering and
// backpressure behave identically either way).
type submission struct {
	pair Pair
	at   time.Time
	key  cache.Key
	ans  *Result
	own  bool
}

// microBatch is one sealed accumulation and, once computed, its outcome.
// prev is its predecessor's turn (nil for the first batch) and turn its
// own: it delivers after prev closes and closes turn when done.
type microBatch struct {
	seq        int
	subs       []submission
	sealedAt   time.Time // anchors queue-wait
	lingerSec  float64   // Σ admission→seal wait of subs
	prev, turn chan struct{}

	queueWaitSec float64 // seal → compute start, weighted by len(subs)
	rep          *Report
	results      []Result // owners' results, in submission order
	err          error
}

// StageBreakdown decomposes a session's request latency into serving
// stages. The stages are not disjoint and do not sum to wall-clock time:
// QueueWaitSec and LingerSec are measured host wall-clock sums over
// pairs/batches; KernelSec, WaitRetrySec and EscalationSec are simulated
// fabric time (KernelSec already includes the compute of retries and
// escalation rounds, and EscalationSec's round windows overlap it —
// they answer "where did the time go" per lens, not as a partition);
// VerifySec is measured host wall-clock spent re-scoring CIGARs.
type StageBreakdown struct {
	// QueueWaitSec sums, over micro-batches, the wall-clock gap between a
	// batch being sealed and its compute starting, weighted by the batch's
	// pair count.
	QueueWaitSec float64 `json:"queue_wait_sec"`
	// LingerSec sums each pair's wall-clock wait from admission until its
	// micro-batch was sealed (the dynamic-batching linger).
	LingerSec float64 `json:"linger_sec"`
	// KernelSec is the simulated DPU compute total (Report.KernelSecSum),
	// retries and escalation rounds included.
	KernelSec float64 `json:"kernel_sec"`
	// WaitRetrySec is the simulated launch-barrier wait (Report.WaitSec):
	// DPUs idling for the slowest sibling, original round and retries.
	WaitRetrySec float64 `json:"wait_retry_sec"`
	// EscalationSec sums the simulated timeline windows of escalation
	// rounds (overlaps KernelSec by construction).
	EscalationSec float64 `json:"escalation_sec"`
	// VerifySec is measured host wall-clock spent verifying results
	// (Report.VerifySec).
	VerifySec float64 `json:"verify_sec"`
}

// Histogram bounds for the session's serving metrics.
var (
	latencyBuckets   = []float64{1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1, 3, 10}
	occupancyBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
)

// Session accepts pairs incrementally and streams results back in
// submission order. Submit waits while QueueLimit pairs are admitted and
// undelivered, and while sealing a full micro-batch waits for a compute
// token; Close drains everything in flight. An open session with no
// batch in flight runs no goroutine.
type Session struct {
	cfg SessionConfig
	ctx context.Context

	results chan Result
	room    chan struct{} // one token per admitted, undelivered pair
	compute chan struct{} // one token per computing micro-batch
	done    chan struct{}

	closeOnce sync.Once
	unwatch   func() bool // stops the context watch

	// admit serializes admission and sealing. It stays locked from a seal
	// until the sealed batch has its compute token, so tokens are taken in
	// seal order; a batch with a token takes no session lock.
	admit   sync.Mutex
	closed  bool
	cur     []submission
	nextSeq int
	last    chan struct{} // turn of the last sealed batch
	linger  *time.Timer

	mu     sync.Mutex
	err    error
	rep    *Report
	stages StageBreakdown // measured fields only; simulated fields filled by Stages
	// table is the answer table: one entry per cache key admitted in
	// this session (nil without a cache). An entry is a cache hit's
	// replayed Result, or the owner's slot, which reads abandoned until
	// the owner is delivered.
	table map[cache.Key]*Result
}

// NewSession validates the configuration and opens the session.
// Cancelling ctx aborts it: admission stops, the partial micro-batch is
// dropped, sealed batches skip compute or streaming, and the Results
// channel closes.
func NewSession(ctx context.Context, cfg SessionConfig) (*Session, error) {
	if err := cfg.Host.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxBatchPairs < 0 || cfg.QueueLimit < 0 || cfg.MaxConcurrentBatches < 0 || cfg.MaxLinger < 0 {
		return nil, fmt.Errorf("host: negative session parameters")
	}
	// Fail fast on a bad fault config; the per-micro-batch models built
	// later only reseed this one.
	if _, err := pim.NewFaultModel(cfg.Host.Faults); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Host.TraceID == "" {
		cfg.Host.TraceID = obs.TraceIDFrom(ctx)
	}
	s := &Session{
		cfg:     cfg,
		ctx:     ctx,
		results: make(chan Result),
		room:    make(chan struct{}, cfg.queueLimit()),
		compute: make(chan struct{}, cfg.maxConcurrent()),
		done:    make(chan struct{}),
	}
	if cfg.Cache != nil {
		s.table = map[cache.Key]*Result{}
	}
	s.unwatch = context.AfterFunc(ctx, func() { s.shutdown(false) })
	return s, nil
}

// Submit admits one pair. It waits while the queue of undelivered pairs
// is full or, when this pair fills a micro-batch, while every compute
// token is taken. It returns ErrSessionClosed after Close or
// cancellation, waiting or not. Pair IDs are the caller's: they are
// carried through to the streamed Result verbatim and may repeat across
// submissions.
func (s *Session) Submit(p Pair) error {
	sub := submission{pair: p, own: s.cfg.Cache == nil}
	var hit *Result
	if c := s.cfg.Cache; c != nil {
		// Key derivation and lookup run outside the session locks: the hot
		// path of a warm cache is two digests and a map probe, and a miss
		// costs the digests it would have needed at insert time anyway. A
		// key already in the table never consults the cache again.
		sub.key = cacheKeyFor(&s.cfg.Host, p)
		s.mu.Lock()
		sub.ans = s.table[sub.key]
		s.mu.Unlock()
		if sub.ans == nil {
			if v, ok := c.Lookup(sub.key); ok {
				hit = resultFromCache(p.ID, v)
			}
		}
	}
	select {
	case s.room <- struct{}{}:
	case <-s.ctx.Done():
		return ErrSessionClosed
	}
	s.admit.Lock()
	defer s.admit.Unlock()
	if s.closed || s.ctx.Err() != nil {
		<-s.room
		return ErrSessionClosed
	}
	if s.table != nil && sub.ans == nil {
		// The first admitted submission of a key creates its entry: a hit
		// seeds it with the replayed answer, a miss makes this submission
		// the owner. Only admission inserts, so a refused Submit leaves
		// nothing behind.
		s.mu.Lock()
		if sub.ans = s.table[sub.key]; sub.ans == nil {
			if sub.ans, sub.own = hit, hit == nil; sub.own {
				sub.ans = &Result{Rank: -1, DPU: -1, Status: StatusAbandoned}
			}
			s.table[sub.key] = sub.ans
		}
		s.mu.Unlock()
	}
	sub.at = time.Now()
	s.cur = append(s.cur, sub)
	reg := obs.Default()
	reg.Counter("session_pairs_total").Add(1)
	reg.Gauge("session_queue_depth").Add(1)
	switch {
	case len(s.cur) >= s.cfg.maxBatchPairs():
		if !s.sealLocked("size") {
			return ErrSessionClosed
		}
	case len(s.cur) > 1: // the batch's first pair armed its linger deadline
	case s.linger == nil:
		s.linger = time.AfterFunc(s.cfg.maxLinger(), s.lingerFlush)
	default:
		s.linger.Reset(s.cfg.maxLinger())
	}
	return nil
}

// sealLocked seals the accumulating pairs into the next micro-batch,
// takes a compute token for it and starts it. Callers have s.admit
// locked. It reports false when the context is cancelled before a token
// frees: the batch then starts without one, skips its compute and is
// dropped at delivery.
func (s *Session) sealLocked(reason string) bool {
	mb := &microBatch{seq: s.nextSeq, subs: s.cur, sealedAt: time.Now(), prev: s.last, turn: make(chan struct{})}
	for _, sub := range mb.subs {
		mb.lingerSec += mb.sealedAt.Sub(sub.at).Seconds()
	}
	s.nextSeq++
	s.cur = nil
	s.last = mb.turn
	reg := obs.Default()
	reg.Counter("session_batches_total").Add(1)
	reg.Counter("session_flush_" + reason + "_total").Add(1)
	reg.Histogram("session_batch_pairs", occupancyBuckets).Observe(float64(len(mb.subs)))
	token := true
	select {
	case s.compute <- struct{}{}:
	case <-s.ctx.Done():
		token = false
	}
	go s.run(mb, token)
	return token
}

// run is one micro-batch's turn: compute, give the token back (if it
// holds one), wait for the predecessor to finish delivering, deliver, end
// the turn.
func (s *Session) run(mb *microBatch, token bool) {
	s.runMicroBatch(mb)
	if token {
		<-s.compute
	}
	if mb.prev != nil {
		<-mb.prev
	}
	s.deliver(mb)
	close(mb.turn)
}

// lingerFlush is the linger timer's callback: it seals the partial
// micro-batch once its oldest pair has waited MaxLinger. A fire that
// finds a younger batch leaves it to the timer its first pair re-armed.
func (s *Session) lingerFlush() {
	s.admit.Lock()
	defer s.admit.Unlock()
	if !s.closed && len(s.cur) > 0 && time.Since(s.cur[0].at) >= s.cfg.maxLinger() {
		s.sealLocked("linger")
	}
}

// Results is the stream of completed alignments, in submission order.
// The channel closes once the session has drained (after Close or
// cancellation).
func (s *Session) Results() <-chan Result { return s.results }

// Close stops admission, flushes the partial micro-batch, waits until
// every sealed batch has executed and streamed its results, then
// publishes the merged report's metrics. It returns the session's first
// error, if any. The caller must keep consuming Results while Close
// waits, or run Close from another goroutine.
func (s *Session) Close() error {
	s.shutdown(true)
	<-s.done
	return s.Err()
}

// shutdown closes admission exactly once, waits for the last sealed turn,
// then publishes metrics and closes Results. With flush set the partial
// batch is sealed (graceful close); without, its pairs are dropped
// (cancellation).
func (s *Session) shutdown(flush bool) {
	s.closeOnce.Do(func() {
		s.unwatch()
		s.admit.Lock()
		s.closed = true
		if s.linger != nil {
			s.linger.Stop()
		}
		if len(s.cur) > 0 {
			if flush {
				s.sealLocked("close")
			} else {
				s.release(len(s.cur))
				s.cur = nil
			}
		}
		last := s.last
		s.admit.Unlock()
		if last != nil {
			<-last
		}
		s.mu.Lock()
		rep := s.rep
		s.mu.Unlock()
		if rep != nil {
			rep.publishMetrics()
		}
		close(s.results)
		close(s.done)
	})
}

// release frees the queue slots of n delivered or dropped pairs.
func (s *Session) release(n int) {
	obs.Default().Gauge("session_queue_depth").Add(-float64(n))
	for i := 0; i < n; i++ {
		<-s.room
	}
}

// Err returns the first pipeline error (a failed micro-batch or the
// context's cancellation cause); nil while everything is healthy.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *Session) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// Report returns the session's merged run report: micro-batch reports
// folded together in submission order, modelling the batches executing
// back-to-back on the shared fabric (the same convention the escalation
// ladder uses for its rounds). It blocks until the session has drained,
// so call it after Close or after Results closes.
func (s *Session) Report() *Report {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rep == nil {
		return newReport(s.cfg.Host.TraceID)
	}
	return s.rep
}

// Stages returns the session's stage latency breakdown: the measured
// queue-wait and linger of its delivered micro-batches plus the simulated
// kernel / wait / escalation decomposition and measured verify time from
// the merged report. Like Report, it blocks until the session has
// drained.
func (s *Session) Stages() StageBreakdown {
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stages
	if s.rep != nil {
		st.KernelSec = s.rep.KernelSecSum
		st.WaitRetrySec = s.rep.WaitSec
		for _, er := range s.rep.Escalation {
			st.EscalationSec += er.EndSec - er.StartSec
		}
		st.VerifySec = s.rep.VerifySec
	}
	return st
}

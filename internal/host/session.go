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
// machinery concurrently with continued admission. Results stream back
// in submission order, each carrying the same Status/Provenance a
// one-shot run would produce; a session that receives its whole workload
// as one micro-batch is bit-identical to AlignPairs, reports included.

// Session errors.
var (
	// ErrQueueFull rejects a Submit when admitted-but-undelivered pairs
	// already fill the queue — the backpressure signal serving frontends
	// translate into 429 + Retry-After.
	ErrQueueFull = errors.New("host: session admission queue full")
	// ErrSessionClosed rejects a Submit after Close (or cancellation).
	ErrSessionClosed = errors.New("host: session closed")
)

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
	// returns ErrQueueFull. Zero means 8 micro-batches' worth.
	QueueLimit int
	// MaxConcurrentBatches bounds micro-batches dispatched concurrently
	// (admission continues while they run). Zero means 2.
	MaxConcurrentBatches int
	// Cache, when non-nil, is the persistent result cache consulted at
	// admission: a hit streams the stored result in submission order
	// without the pair ever reaching the balancer, and certified-optimal
	// non-degraded results (StatusOK / StatusEscalated) are inserted
	// after compute. Within one micro-batch, distinct submissions of the
	// same cache key share a single computation. The cache may be shared
	// across concurrent sessions.
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

// submission is one admitted pair, stamped for latency accounting. With
// a cache attached, key is the pair's content-addressed identity and hit
// carries the replayed result when the lookup succeeded at admission
// (the submission still occupies its queue and batch slot, so ordering
// and backpressure behave identically either way).
type submission struct {
	pair Pair
	at   time.Time
	key  cache.Key
	hit  *Result
}

// microBatch is one flushed accumulation, sequenced for ordered delivery.
type microBatch struct {
	seq       int
	subs      []submission
	flushedAt time.Time // when the batch was sealed; anchors queue-wait
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
	// batch being sealed and a dispatch worker picking it up, weighted by
	// the batch's pair count.
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

// batchOutcome is one executed micro-batch, ready for in-order delivery.
type batchOutcome struct {
	seq     int
	subs    []submission
	rep     *Report
	results []Result // submission order; exactly one per submission
	err     error
}

// Histogram bounds for the session's serving metrics.
var (
	latencyBuckets   = []float64{1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1, 3, 10}
	occupancyBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
)

// Session accepts pairs incrementally and streams results back in
// submission order. Submit never blocks on dispatch: a full queue is an
// ErrQueueFull reject, a full micro-batch is handed to a dispatch worker
// and admission continues. Close drains everything in flight.
type Session struct {
	cfg SessionConfig
	ctx context.Context

	results   chan Result
	batches   chan microBatch
	outcomes  chan batchOutcome
	lingerArm chan struct{}
	done      chan struct{}

	closeOnce sync.Once
	sendWG    sync.WaitGroup // flushes on their way into s.batches
	workerWG  sync.WaitGroup

	// missed holds the keys whose first cache lookup in this session
	// missed (see lookup).
	missMu sync.Mutex
	missed map[cache.Key]struct{}

	mu       sync.Mutex
	closed   bool
	inFlight int // admitted pairs not yet delivered (or dropped)
	cur      []submission
	nextSeq  int
	err      error
	rep      *Report
	stages   StageBreakdown // measured fields only; simulated fields filled by Stages
}

// NewSession validates the configuration and starts the session's
// dispatch workers. Cancelling ctx aborts the session: admission stops,
// queued micro-batches are skipped, and the Results channel closes.
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
		cfg: cfg,
		ctx: ctx,
		// A micro-batch holds >= 1 in-flight pair, so undelivered batches
		// can never exceed the queue limit: with this capacity a dispatch
		// send never blocks, which keeps Submit wait-free and makes the
		// shutdown drain deadlock-free.
		batches:   make(chan microBatch, cfg.queueLimit()),
		outcomes:  make(chan batchOutcome, cfg.maxConcurrent()),
		results:   make(chan Result),
		lingerArm: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	for i := 0; i < cfg.maxConcurrent(); i++ {
		s.workerWG.Add(1)
		go func() {
			defer s.workerWG.Done()
			for mb := range s.batches {
				s.outcomes <- s.runMicroBatch(mb)
			}
		}()
	}
	go func() {
		s.workerWG.Wait()
		close(s.outcomes)
	}()
	go s.collect()
	go s.lingerLoop()
	go func() {
		select {
		case <-s.ctx.Done():
			s.shutdown(false)
		case <-s.done:
		}
	}()
	return s, nil
}

// lookup consults the cache for one submission, unless the key's first
// lookup in this session missed: the entry can then only come from this
// session's own earlier micro-batches, and whether their insert has landed
// yet is scheduler timing. Hits therefore depend only on the cache's
// contents at the key's first submission, and a repeat of a missed key is
// computed again.
func (s *Session) lookup(c *cache.Cache, k cache.Key, id int) *Result {
	s.missMu.Lock()
	defer s.missMu.Unlock()
	if _, ok := s.missed[k]; ok {
		return nil
	}
	if v, ok := c.Lookup(k); ok {
		return resultFromCache(id, v)
	}
	if s.missed == nil {
		s.missed = map[cache.Key]struct{}{}
	}
	s.missed[k] = struct{}{}
	return nil
}

// Submit admits one pair. It returns ErrQueueFull when the bounded queue
// of undelivered pairs is full (backpressure — retry later), and
// ErrSessionClosed after Close or cancellation. Pair IDs are the
// caller's: they are carried through to the streamed Result verbatim and
// may repeat across submissions.
func (s *Session) Submit(p Pair) error {
	sub := submission{pair: p}
	if c := s.cfg.Cache; c != nil {
		// Key derivation and lookup run outside the session lock: the hot
		// path of a warm cache is two digests and a map probe, and a miss
		// costs the digests it would have needed at insert time anyway.
		sub.key = cacheKeyFor(&s.cfg.Host, p)
		sub.hit = s.lookup(c, sub.key, p.ID)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	if s.inFlight >= s.cfg.queueLimit() {
		s.mu.Unlock()
		obs.Default().Counter("session_admission_rejects_total").Add(1)
		obs.Flight().Record("reject", s.cfg.Host.TraceID, "session admission queue full")
		return ErrQueueFull
	}
	s.inFlight++
	sub.at = time.Now()
	s.cur = append(s.cur, sub)
	arm := len(s.cur) == 1
	var mb microBatch
	full := len(s.cur) >= s.cfg.maxBatchPairs()
	if full {
		mb = s.takeLocked()
		arm = false
	}
	depth := s.inFlight
	s.mu.Unlock()

	reg := obs.Default()
	reg.Counter("session_pairs_total").Add(1)
	reg.Gauge("session_queue_depth").Set(float64(depth))
	if arm {
		// Non-blocking: a pending arm already covers (or predates) this
		// batch's linger deadline.
		select {
		case s.lingerArm <- struct{}{}:
		default:
		}
	}
	if full {
		s.dispatch(mb, "size")
	}
	return nil
}

// takeLocked seals the accumulating pairs into the next micro-batch.
// Callers hold s.mu and must pass the batch to dispatch after unlocking.
func (s *Session) takeLocked() microBatch {
	now := time.Now()
	mb := microBatch{seq: s.nextSeq, subs: s.cur, flushedAt: now}
	for _, sub := range mb.subs {
		s.stages.LingerSec += now.Sub(sub.at).Seconds()
	}
	s.nextSeq++
	s.cur = nil
	s.sendWG.Add(1)
	return mb
}

// dispatch hands one sealed micro-batch to the workers. The batches
// channel is sized so this never blocks (see NewSession).
func (s *Session) dispatch(mb microBatch, reason string) {
	defer s.sendWG.Done()
	reg := obs.Default()
	reg.Counter("session_batches_total").Add(1)
	reg.Counter("session_flush_" + reason + "_total").Add(1)
	reg.Histogram("session_batch_pairs", occupancyBuckets).Observe(float64(len(mb.subs)))
	s.batches <- mb
}

// Flush forces the partial micro-batch out without waiting for the size
// or linger trigger.
func (s *Session) Flush() {
	s.mu.Lock()
	if s.closed || len(s.cur) == 0 {
		s.mu.Unlock()
		return
	}
	mb := s.takeLocked()
	s.mu.Unlock()
	s.dispatch(mb, "linger")
}

// lingerLoop bounds how long a partial micro-batch may wait for more
// traffic: armed when a pair lands in an empty accumulator, it flushes
// whatever has accumulated when the deadline passes.
func (s *Session) lingerLoop() {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	defer t.Stop()
	for {
		select {
		case <-s.lingerArm:
			t.Reset(s.cfg.maxLinger())
		case <-t.C:
			s.Flush()
		case <-s.done:
			return
		}
	}
}

// Results is the stream of completed alignments, in submission order.
// The channel closes once the session has drained (after Close or
// cancellation).
func (s *Session) Results() <-chan Result { return s.results }

// Close stops admission, flushes the partial micro-batch, waits until
// every in-flight batch has executed and streamed its results, then
// publishes the merged report's metrics. It returns the session's first
// error, if any. The caller must keep consuming Results while Close
// waits, or run Close from another goroutine.
func (s *Session) Close() error {
	s.shutdown(true)
	<-s.done
	return s.Err()
}

// shutdown transitions the session to draining exactly once. With flush
// set the partial batch is dispatched (graceful close); without, its
// pairs are dropped (cancellation).
func (s *Session) shutdown(flush bool) {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		var mb microBatch
		send := false
		if len(s.cur) > 0 {
			if flush {
				mb = s.takeLocked()
				send = true
			} else {
				s.inFlight -= len(s.cur)
				s.cur = nil
			}
		}
		s.mu.Unlock()
		if send {
			s.dispatch(mb, "close")
		}
		s.sendWG.Wait()
		close(s.batches)
	})
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
// queue-wait and linger accumulated during admission plus the simulated
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

package host

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// The request-level face of session admission. A Session bounds the
// pairs in flight inside one request; the Gate bounds how many requests
// hold dispatch sessions at once, split into two priority classes with
// separately bounded waiting queues. Interactive requests (score-only,
// latency-sensitive) are granted freed slots before any bulk request
// (CIGAR, throughput-oriented), which is what lets the serving layer
// shed bulk work under pressure while interactive latency stays
// bounded. The gate also measures its recent drain rate so a refusal
// can carry an honest Retry-After — current queue depth over observed
// completions per second — instead of a constant.

// ErrGateQueueFull refuses an Acquire whose class queue is already at
// its cap — the 429 signal, with Gate.RetryAfter as the honest hint.
var ErrGateQueueFull = errors.New("host: admission gate queue full")

// Class is a request priority class.
type Class int

const (
	// ClassInteractive: score-only, latency-sensitive; granted slots
	// first and never shed.
	ClassInteractive Class = iota
	// ClassBulk: full-CIGAR, throughput-oriented; degraded and shed
	// first under pressure.
	ClassBulk
	numClasses
)

var classNames = [numClasses]string{"interactive", "bulk"}

func (c Class) String() string {
	if c < 0 || c >= numClasses {
		return fmt.Sprintf("class(%d)", int(c))
	}
	return classNames[c]
}

// ParseClass parses the wire form; the empty string is ClassBulk (a
// plain POST /align is bulk work).
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "bulk":
		return ClassBulk, nil
	case "interactive":
		return ClassInteractive, nil
	}
	return 0, fmt.Errorf("host: unknown priority class %q (want interactive or bulk)", s)
}

// GateConfig sizes the gate. All fields are hot-reloadable via the
// setters.
type GateConfig struct {
	// Slots is how many requests may hold the gate concurrently.
	Slots int
	// InteractiveQueue/BulkQueue cap how many requests of each class may
	// wait for a slot; 0 means refuse immediately when slots are full.
	InteractiveQueue int
	BulkQueue        int
	// MaxRetryAfter clamps computed Retry-After values (default 60s).
	MaxRetryAfter time.Duration
}

// GateStats is a point-in-time snapshot for metrics, pressure sampling
// and the admin API.
type GateStats struct {
	Slots             int     `json:"slots"`
	Inflight          int     `json:"inflight"`
	QueuedInteractive int     `json:"queued_interactive"`
	QueuedBulk        int     `json:"queued_bulk"`
	QueueCapacity     int     `json:"queue_capacity"`
	DrainPerSec       float64 `json:"drain_per_sec"`
	// Load is the pressure signal: the max of slot saturation and queue
	// occupancy, in [0,1].
	Load float64 `json:"load"`
}

// gateWaiter is one parked Acquire; grant closes ch with the slot
// already transferred.
type gateWaiter struct {
	ch chan struct{}
}

// Gate is the two-class priority admission gate.
type Gate struct {
	mu       sync.Mutex
	slots    int
	inflight int
	caps     [numClasses]int
	queues   [numClasses][]*gateWaiter
	maxRA    time.Duration

	// Drain-rate estimate: completions counted over two adjacent
	// windows, blended into events/sec.
	now       func() time.Time // injectable for deterministic tests
	winStart  time.Time
	winCount  float64
	prevCount float64
}

const gateDrainWindow = time.Second

// NewGate builds a gate; non-positive Slots means 1.
func NewGate(cfg GateConfig) *Gate {
	g := &Gate{now: time.Now}
	g.applyConfig(cfg)
	g.winStart = g.now()
	return g
}

func (g *Gate) applyConfig(cfg GateConfig) {
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	if cfg.InteractiveQueue < 0 {
		cfg.InteractiveQueue = 0
	}
	if cfg.BulkQueue < 0 {
		cfg.BulkQueue = 0
	}
	if cfg.MaxRetryAfter <= 0 {
		cfg.MaxRetryAfter = 60 * time.Second
	} else if cfg.MaxRetryAfter < time.Second {
		// The computed hint is clamped to [1s, MaxRetryAfter]; a
		// sub-second ceiling would invert that interval and reach the
		// HTTP layer as Retry-After: 0.
		cfg.MaxRetryAfter = time.Second
	}
	g.slots = cfg.Slots
	g.caps[ClassInteractive] = cfg.InteractiveQueue
	g.caps[ClassBulk] = cfg.BulkQueue
	g.maxRA = cfg.MaxRetryAfter
}

// SetConfig hot-swaps the sizing. Growing Slots grants parked waiters
// immediately; shrinking lets inflight requests finish (the gate only
// converges down as they release). A capacity change resets the
// drain-rate windows: completions counted under the old Slots describe
// a throughput the resized gate may not sustain, and a stale rate
// would leak into Retry-After hints until the windows aged out.
func (g *Gate) SetConfig(cfg GateConfig) {
	g.mu.Lock()
	prevSlots := g.slots
	g.applyConfig(cfg)
	if g.slots != prevSlots {
		g.winStart = g.now()
		g.winCount = 0
		g.prevCount = 0
	}
	var grant []*gateWaiter
	for g.inflight < g.slots {
		w := g.popLocked()
		if w == nil {
			break
		}
		g.inflight++
		grant = append(grant, w)
	}
	g.mu.Unlock()
	for _, w := range grant {
		close(w.ch)
	}
}

// Config returns the live sizing.
func (g *Gate) Config() GateConfig {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GateConfig{
		Slots:            g.slots,
		InteractiveQueue: g.caps[ClassInteractive],
		BulkQueue:        g.caps[ClassBulk],
		MaxRetryAfter:    g.maxRA,
	}
}

// Acquire takes one slot for class, waiting in the class's bounded
// queue when the gate is full. It returns ErrGateQueueFull when the
// queue is at its cap, or ctx's error if the caller gives up first.
// Every successful Acquire must be paired with Release.
func (g *Gate) Acquire(ctx context.Context, cls Class) error {
	if cls < 0 || cls >= numClasses {
		return fmt.Errorf("host: invalid class %d", cls)
	}
	g.mu.Lock()
	if g.inflight < g.slots {
		g.inflight++
		g.mu.Unlock()
		return nil
	}
	if len(g.queues[cls]) >= g.caps[cls] {
		g.mu.Unlock()
		return ErrGateQueueFull
	}
	w := &gateWaiter{ch: make(chan struct{})}
	g.queues[cls] = append(g.queues[cls], w)
	g.mu.Unlock()

	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		g.mu.Lock()
		select {
		case <-w.ch:
			// Granted while we were giving up: hand the slot on.
			g.mu.Unlock()
			g.Release()
		default:
			g.removeLocked(cls, w)
			g.mu.Unlock()
		}
		return ctx.Err()
	}
}

// Release returns a slot, records the completion for the drain-rate
// estimate, and grants the next waiter — interactive first.
func (g *Gate) Release() {
	g.mu.Lock()
	g.rollWindowLocked(g.now())
	g.winCount++
	var grant *gateWaiter
	if g.inflight <= g.slots { // not converging down after a shrink
		grant = g.popLocked()
	}
	if grant == nil {
		g.inflight--
	}
	g.mu.Unlock()
	if grant != nil {
		close(grant.ch)
	}
}

// popLocked dequeues the highest-priority waiter, or nil.
func (g *Gate) popLocked() *gateWaiter {
	for cls := Class(0); cls < numClasses; cls++ {
		if q := g.queues[cls]; len(q) > 0 {
			w := q[0]
			copy(q, q[1:])
			q[len(q)-1] = nil
			g.queues[cls] = q[:len(q)-1]
			return w
		}
	}
	return nil
}

// removeLocked deletes a cancelled waiter from its queue.
func (g *Gate) removeLocked(cls Class, w *gateWaiter) {
	q := g.queues[cls]
	for i, x := range q {
		if x == w {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = nil
			g.queues[cls] = q[:len(q)-1]
			return
		}
	}
}

// rollWindowLocked advances the two-window completion counter.
func (g *Gate) rollWindowLocked(now time.Time) {
	elapsed := now.Sub(g.winStart)
	switch {
	case elapsed < gateDrainWindow:
	case elapsed < 2*gateDrainWindow:
		g.prevCount = g.winCount
		g.winCount = 0
		g.winStart = g.winStart.Add(gateDrainWindow)
	default: // idle gap: both windows are stale
		g.prevCount = 0
		g.winCount = 0
		g.winStart = now
	}
}

// drainPerSecLocked blends the two windows into events/sec: the
// previous window weighted by how much of it still falls inside the
// trailing one-window horizon.
func (g *Gate) drainPerSecLocked(now time.Time) float64 {
	g.rollWindowLocked(now)
	frac := float64(now.Sub(g.winStart)) / float64(gateDrainWindow)
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	return (float64(g.prevCount*(1-frac)) + g.winCount) / gateDrainWindow.Seconds()
}

// RetryAfter computes the honest backoff hint for a refused request:
// the depth of work ahead of it (queued waiters of both classes plus
// the inflight requests) divided by the recent drain rate, clamped to
// [1s, MaxRetryAfter]. With no drain observed (cold or stalled server)
// it answers the clamp ceiling rather than a fictitious small value.
func (g *Gate) RetryAfter() time.Duration {
	g.mu.Lock()
	now := g.now()
	depth := g.inflight + len(g.queues[ClassInteractive]) + len(g.queues[ClassBulk])
	rate := g.drainPerSecLocked(now)
	maxRA := g.maxRA
	g.mu.Unlock()
	if rate <= 0 {
		return maxRA
	}
	secs := math.Ceil(float64(depth) / rate)
	if secs >= maxRA.Seconds() { // clamp in float space: no Duration overflow
		return maxRA
	}
	if secs < 1 {
		secs = 1
	}
	return time.Duration(secs) * time.Second
}

// Stats snapshots the gate.
func (g *Gate) Stats() GateStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := GateStats{
		Slots:             g.slots,
		Inflight:          g.inflight,
		QueuedInteractive: len(g.queues[ClassInteractive]),
		QueuedBulk:        len(g.queues[ClassBulk]),
		QueueCapacity:     g.caps[ClassInteractive] + g.caps[ClassBulk],
		DrainPerSec:       g.drainPerSecLocked(g.now()),
	}
	slotLoad := float64(st.Inflight) / float64(st.Slots)
	queueLoad := 0.0
	if st.QueueCapacity > 0 {
		queueLoad = float64(st.QueuedInteractive+st.QueuedBulk) / float64(st.QueueCapacity)
	} else if st.Inflight >= st.Slots {
		queueLoad = slotLoad
	}
	st.Load = math.Min(1, math.Max(slotLoad, queueLoad))
	return st
}

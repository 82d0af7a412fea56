package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pimnw/internal/admission"
	"pimnw/internal/admission/config"
	"pimnw/internal/host"
	"pimnw/internal/obs"
)

// wirePair is one alignment request item.
type wirePair struct {
	ID int    `json:"id"`
	A  string `json:"a"`
	B  string `json:"b"`
}

// wireResult is one streamed response line, stamped with the request's
// trace ID so any line can be correlated with server logs, flight-recorder
// entries and Perfetto slices. Degraded lists the typed downgrades the
// shed ladder applied to this request (empty when served at full
// fidelity) — a degraded result is always labelled, never silent. Err is
// set only on the trailing line of a request that failed mid-stream.
type wireResult struct {
	ID         int      `json:"id"`
	Score      int32    `json:"score"`
	InBand     bool     `json:"in_band"`
	Cigar      string   `json:"cigar,omitempty"`
	Status     string   `json:"status,omitempty"`
	Trusted    bool     `json:"trusted"`
	Provenance string   `json:"provenance,omitempty"`
	Backend    string   `json:"backend,omitempty"`
	TraceID    string   `json:"trace_id,omitempty"`
	Cached     bool     `json:"cached,omitempty"`
	Degraded   []string `json:"degraded,omitempty"`
	Err        string   `json:"error,omitempty"`
}

func toWireResult(r host.Result, traceID string) wireResult {
	return wireResult{
		ID:         r.ID,
		Score:      r.Score,
		InBand:     r.InBand,
		Cigar:      string(r.Cigar),
		Status:     r.Status.String(),
		Trusted:    r.Status.Trusted(),
		Provenance: r.Provenance,
		Backend:    r.Backend,
		TraceID:    traceID,
		Cached:     r.Cached,
	}
}

// server owns the session template and the admission stack. A request
// passes, in order: the rate-limit tiers (global, then per-client key,
// then per-IP), the shed ladder's reject rung (bulk only), and the
// two-class priority gate whose slots bound concurrent sessions. Every
// refusal is a 429 with a Retry-After computed from the gate's drain
// rate (or the violated bucket's refill time); every downgrade the shed
// ladder applies on the way through is surfaced as a typed label on the
// results. The config keys the key table marks dynamic (rates, queue
// sizing, shed thresholds, cache size limits) are hot-reloadable through
// the /admin API.
type server struct {
	cfg  atomic.Pointer[config.Config]
	scfg host.SessionConfig // session template from the align/session sections

	gate     *host.Gate
	rl       *admission.Controller
	pressure *admission.Pressure

	draining atomic.Bool

	reloadMu sync.Mutex // serializes admin config reloads

	stop chan struct{} // pressure sampler lifecycle (start/Close)
	done chan struct{}
}

func newServer(cfg *config.Config, scfg host.SessionConfig) (*server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sv := &server{scfg: scfg}
	sv.cfg.Store(cfg)
	sv.gate = host.NewGate(gateConfig(cfg))
	rl, err := admission.NewController(cfg.AdmissionLimits())
	if err != nil {
		return nil, err
	}
	sv.rl = rl
	sv.pressure, err = admission.NewPressure(cfg.PressureConfig(), func(from, to admission.ShedLevel, reason string) {
		reg := obs.Default()
		reg.Gauge("alignd_shed_level").Set(float64(to))
		reg.Counter("alignd_shed_transitions_total").Add(1)
		slog.Info("shed level change", "kind", "shed",
			"from", from.String(), "to", to.String(), "reason", reason)
	})
	if err != nil {
		return nil, err
	}
	return sv, nil
}

func gateConfig(cfg *config.Config) host.GateConfig {
	return host.GateConfig{
		Slots:            cfg.Queues.Slots,
		InteractiveQueue: cfg.Queues.Interactive,
		BulkQueue:        cfg.Queues.Bulk,
		MaxRetryAfter:    cfg.Queues.MaxRetryAfter,
	}
}

// start launches the background loops: the limiter's idle-entry sweep
// and the pressure sampler feeding gate load into the shed ladder.
// Close undoes it. Tests that never start the loops need no Close.
func (sv *server) start() {
	cfg := sv.cfg.Load()
	sv.rl.Start(cfg.Limits.CleanupInterval)
	sv.stop = make(chan struct{})
	sv.done = make(chan struct{})
	go func() {
		defer close(sv.done)
		t := time.NewTicker(cfg.Shed.SampleInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				st := sv.gate.Stats()
				reg := obs.Default()
				reg.Gauge("alignd_gate_load").Set(st.Load)
				reg.Gauge("alignd_gate_queued").Set(float64(st.QueuedInteractive + st.QueuedBulk))
				reg.Gauge("alignd_shed_level").Set(float64(sv.pressure.Sample(st.Load)))
			case <-sv.stop:
				return
			}
		}
	}()
}

func (sv *server) Close() {
	if sv.stop != nil {
		close(sv.stop)
		<-sv.done
		sv.stop = nil
	}
	sv.rl.Close()
}

func (sv *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/align", sv.handleAlign)
	mux.HandleFunc("/metrics", sv.handleMetrics)
	mux.HandleFunc("/healthz", sv.handleHealthz)
	sv.registerAdmin(mux)
	registerDebug(mux)
	return mux
}

// httpServer is the http.Server that serves mux. Shutdown waits for
// every active connection, and net/http counts a connection that was
// dialled but has sent nothing (StateNew) as active for 5 s; the
// ConnState hook closes such connections once shutdown begins, so it
// returns as soon as the real requests have drained.
func (sv *server) httpServer() *http.Server {
	var (
		mu      sync.Mutex
		closing bool
		idleNew = map[net.Conn]struct{}{}
		srv     = &http.Server{Handler: sv.mux()}
	)
	srv.ConnState = func(c net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case st == http.StateNew && closing:
			c.Close()
		case st == http.StateNew:
			idleNew[c] = struct{}{}
		default:
			delete(idleNew, c)
		}
	}
	srv.RegisterOnShutdown(func() {
		mu.Lock()
		defer mu.Unlock()
		closing = true
		for c := range idleNew {
			c.Close()
		}
	})
	return srv
}

// handleHealthz flips to 503 "draining" the moment shutdown begins, so
// load balancers stop routing here during the drain window while
// in-flight requests finish.
func (sv *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if sv.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining\n")
		return
	}
	io.WriteString(w, "ok\n")
}

func (sv *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.Default().WritePrometheus(w)
}

// retryAfterSecs renders a Retry-After duration as whole seconds, never
// below 1 (a "0" invites an immediate, pointless retry).
func retryAfterSecs(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// reject answers 429 with the computed Retry-After, counts the refusal
// under its reason, and flight-records it.
func (sv *server) reject(w http.ResponseWriter, tid, reason, body string, retryAfter time.Duration) {
	reg := obs.Default()
	reg.Counter("alignd_requests_rejected_total").Add(1)
	reg.Counter(`alignd_rejects_total{reason="` + reason + `"}`).Add(1)
	slog.Debug("align request rejected", "kind", "reject", "trace_id", tid, "reason", reason)
	w.Header().Set("Retry-After", retryAfterSecs(retryAfter))
	http.Error(w, body, http.StatusTooManyRequests)
}

// validTraceID accepts a caller's X-Trace-Id: at most 128 bytes, each
// printable ASCII (0x21-0x7E). Empty means none was given.
func validTraceID(tid string) bool {
	if len(tid) > 128 {
		return false
	}
	for i := 0; i < len(tid); i++ {
		if tid[i] < 0x21 || tid[i] > 0x7e {
			return false
		}
	}
	return true
}

// clientIP is the per-IP tier key: the host part of RemoteAddr.
func clientIP(r *http.Request) string {
	if ip, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return ip
	}
	return r.RemoteAddr
}

// requestPlan is the admitted request's serving parameters: its session
// config after the shed ladder's downgrades, with each downgrade named.
type requestPlan struct {
	scfg     host.SessionConfig
	degraded []string
}

// plan applies the class and shed level to the session template.
// Interactive requests are score-only by definition (no CIGAR, no
// verify) — that is their contract, not a degradation. Bulk requests
// get the template, minus whatever the current shed rung takes away:
// ShedScoreOnly forces the 16-bit narrow score-only kernel (scores stay
// exact; the result just has no CIGAR), ShedNoVerify skips host-side
// re-derivation. Each removal is recorded as a typed label.
func (sv *server) plan(cls host.Class, level admission.ShedLevel) requestPlan {
	p := requestPlan{scfg: sv.scfg}
	k := &p.scfg.Host.Kernel
	if cls == host.ClassInteractive {
		k.Traceback = false
		p.scfg.Host.Verify = false
		return p
	}
	for _, d := range level.Degradations(k.Traceback, p.scfg.Host.Verify) {
		p.degraded = append(p.degraded, string(d))
		switch d {
		case admission.DegradedScoreOnly:
			k.Traceback = false
			k.LaneWidth = 16
			p.scfg.Host.Verify = false
		case admission.DegradedNoVerify:
			p.scfg.Host.Verify = false
		}
	}
	// A shed-degraded plan may still read the cache (hits are full-fidelity
	// answers certified under better conditions) but must never write it:
	// results produced with verification or traceback stripped would
	// otherwise be replayed to future well-resourced requests.
	if len(p.degraded) > 0 {
		p.scfg.CacheNoStore = true
	}
	return p
}

func (sv *server) handleAlign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Every request gets a trace ID — the caller's X-Trace-Id if given,
	// minted otherwise — echoed on the response, stamped on every result
	// line, and threaded through the session into spans, flight-recorder
	// entries and structured logs. A caller's ID is bounded, since every
	// one of those copies it.
	tid := r.Header.Get("X-Trace-Id")
	if !validTraceID(tid) {
		http.Error(w, "X-Trace-Id must be at most 128 printable ASCII bytes without spaces", http.StatusBadRequest)
		return
	}
	if tid == "" {
		tid = obs.NewTraceID()
	}
	w.Header().Set("X-Trace-Id", tid)
	if sv.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	cls, err := host.ParseClass(r.Header.Get("X-Priority"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reg := obs.Default()
	cfg := sv.cfg.Load()

	// Tiered rate limiting: global, then per-client key, then per-IP.
	if d := sv.rl.Allow(r.Header.Get(cfg.Server.ClientHeader), clientIP(r)); !d.OK {
		reg.Counter(`alignd_ratelimit_rejected_total{tier="` + string(d.Tier) + `"}`).Add(1)
		sv.reject(w, tid, "ratelimit-"+string(d.Tier),
			fmt.Sprintf("rate limited (%s tier), retry later", d.Tier), d.RetryAfter)
		return
	}

	// The shed ladder's top rung refuses bulk work outright; interactive
	// requests are still served.
	level := sv.pressure.Level()
	if level >= admission.ShedRejectBulk && cls == host.ClassBulk {
		reg.Counter("alignd_shed_rejected_total").Add(1)
		sv.reject(w, tid, "shed-bulk", "shedding bulk load, retry later", sv.gate.RetryAfter())
		return
	}

	// The priority gate: slots bound concurrent sessions, each class
	// waits in its own bounded queue, interactive is granted first.
	if err := sv.gate.Acquire(r.Context(), cls); err != nil {
		if errors.Is(err, host.ErrGateQueueFull) {
			reg.Counter(`alignd_gate_rejected_total{class="` + cls.String() + `"}`).Add(1)
			sv.reject(w, tid, "gate-"+cls.String(), "server at capacity, retry later", sv.gate.RetryAfter())
			return
		}
		return // client gave up while queued; nothing to answer
	}
	defer sv.gate.Release()

	plan := sv.plan(cls, level)
	w.Header().Set("X-Shed-Level", level.String())
	if len(plan.degraded) > 0 {
		w.Header().Set("X-Degraded", strings.Join(plan.degraded, ","))
		for _, d := range plan.degraded {
			reg.Counter(`alignd_degraded_requests_total{mode="` + d + `"}`).Add(1)
		}
		slog.Debug("request degraded", "kind", "degrade", "trace_id", tid,
			"shed_level", level.String(), "degraded", strings.Join(plan.degraded, ","))
	}

	reg.Counter("alignd_requests_total").Add(1)
	reg.Counter(`alignd_class_requests_total{class="` + cls.String() + `"}`).Add(1)
	reg.Gauge("alignd_inflight_requests").Add(1)
	defer reg.Gauge("alignd_inflight_requests").Add(-1)
	slog.Debug("align request admitted", "kind", "admit", "trace_id", tid, "class", cls.String())
	start := time.Now()

	// The response streams while the request body is still being read;
	// HTTP/1 needs full-duplex opted in (no-op where unsupported).
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex()

	dec := newPairDecoder(r.Body)
	first, err := dec.next()
	if err == io.EOF { // empty request: empty result stream
		w.Header().Set("Content-Type", "application/x-ndjson")
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s, err := host.NewSession(obs.WithTraceID(r.Context(), tid), plan.scfg)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if err := s.Submit(first); err != nil {
		s.Close()
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}

	// Admit the remaining pairs while results stream below. A full
	// session queue is flow control: Submit waits for the stream to drain
	// a slot.
	submitErr := make(chan error, 1)
	go func() {
		defer s.Close()
		submitErr <- submitRest(s, dec)
	}()

	// The first line is flushed at once (time to first result); after it,
	// lines wait in the response buffer while more results are ready, and
	// one flush sends each burst when the next result is not.
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	results := s.Results()
	res, open := <-results
	for first := true; open; first = false {
		wr := toWireResult(res, tid)
		wr.Degraded = plan.degraded
		if enc.Encode(wr) != nil {
			break // client went away; session cleanup follows via r.Context()
		}
		select {
		case res, open = <-results:
			if first {
				rc.Flush()
			}
		default:
			rc.Flush()
			res, open = <-results
		}
	}
	err = <-submitErr
	if err == nil {
		err = s.Err()
	}
	if err != nil {
		// Too late for a status code; the trailing line carries the error.
		enc.Encode(wireResult{TraceID: tid, Err: err.Error()})
	}
	rc.Flush()
	sv.observeRequest(tid, start, s)
}

// stageBuckets spans the serving stages' range: sub-millisecond linger
// and queue waits up to multi-second escalation timelines.
var stageBuckets = []float64{1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1, 3, 10}

// observeRequest records the drained session's stage latency decomposition
// into the alignd_stage_seconds{stage=...} histograms and, when the
// request's wall time reaches the slow threshold, logs the full breakdown
// and flight-records the event. Stages() blocks until the session has
// drained, which the streaming loop above guarantees terminates (client
// disconnects cancel r.Context(), which aborts the session).
func (sv *server) observeRequest(tid string, start time.Time, s *host.Session) {
	st := s.Stages()
	rep := s.Report()
	elapsed := time.Since(start).Seconds()
	reg := obs.Default()
	observe := func(stage string, v float64) {
		reg.Histogram(`alignd_stage_seconds{stage="`+stage+`"}`, stageBuckets).Observe(v)
	}
	observe("queue_wait", st.QueueWaitSec)
	observe("linger", st.LingerSec)
	observe("kernel", st.KernelSec)
	observe("wait_retry", st.WaitRetrySec)
	observe("escalation", st.EscalationSec)
	observe("verify", st.VerifySec)
	reg.Histogram("alignd_request_seconds", stageBuckets).Observe(elapsed)
	slow := sv.cfg.Load().Server.SlowRequest
	if slow >= 0 && elapsed >= slow.Seconds() {
		slog.Info("slow request", "kind", "slow", "trace_id", tid,
			"elapsed_sec", elapsed,
			"pairs", rep.Alignments,
			"queue_wait_sec", st.QueueWaitSec,
			"linger_sec", st.LingerSec,
			"kernel_sec", st.KernelSec,
			"wait_retry_sec", st.WaitRetrySec,
			"escalation_sec", st.EscalationSec,
			"verify_sec", st.VerifySec)
	}
}

func submitRest(s *host.Session, dec *pairDecoder) error {
	for {
		p, err := dec.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := s.Submit(p); err != nil {
			return err
		}
	}
}

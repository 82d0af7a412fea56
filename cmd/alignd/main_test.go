package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"pimnw/internal/admission/config"
	"pimnw/internal/core"
	"pimnw/internal/host"
	"pimnw/internal/kernel"
	"pimnw/internal/obs"
	"pimnw/internal/pim"
	"pimnw/internal/seq"
)

// newTestServer builds a server on the default config with the given
// slot count, without starting the background loops (tests drive the
// pressure controller and limiter directly).
func newTestServer(t *testing.T, scfg host.SessionConfig, slots int) *server {
	t.Helper()
	cfg := config.Default()
	cfg.Queues.Slots = slots
	sv, err := newServer(cfg, scfg)
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

func testSessionConfig(t *testing.T) host.SessionConfig {
	t.Helper()
	pimCfg := pim.DefaultConfig()
	pimCfg.Ranks = 1
	return host.SessionConfig{
		Host: host.Config{
			PIM: pimCfg,
			Kernel: kernel.Config{
				Geometry:  kernel.DefaultGeometry(),
				Band:      64,
				Params:    core.DefaultParams(),
				Costs:     pim.Asm,
				Traceback: true,
				PIM:       pimCfg,
			},
			RetryBackoffSec: 1e-3,
		},
	}
}

func testWorkload(t *testing.T, n int) ([]host.Pair, []wirePair) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	hostPairs := make([]host.Pair, n)
	wires := make([]wirePair, n)
	for i := 0; i < n; i++ {
		a := seq.Random(rng, 120+rng.Intn(60))
		b := seq.UniformErrors(0.08).Apply(rng, a)
		hostPairs[i] = host.Pair{ID: i, A: a, B: b}
		wires[i] = wirePair{ID: i, A: a.String(), B: b.String()}
	}
	return hostPairs, wires
}

func postAlign(t *testing.T, ts *httptest.Server, body []byte, contentType string) []wireResult {
	t.Helper()
	resp, err := http.Post(ts.URL+"/align", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /align = %d: %s", resp.StatusCode, msg)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var results []wireResult
	dec := json.NewDecoder(resp.Body)
	for {
		var r wireResult
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if r.Err != "" {
			t.Fatalf("server error mid-stream: %s", r.Err)
		}
		results = append(results, r)
	}
	return results
}

// TestServerBitIdenticalToAlignPairs is the serving acceptance check: the
// daemon's streamed results must match one-shot host.AlignPairs exactly —
// scores, CIGARs, statuses, provenance — including under fault injection
// with recovery, for both request encodings.
func TestServerBitIdenticalToAlignPairs(t *testing.T) {
	scfg := testSessionConfig(t)
	scfg.Host.Faults = pim.FaultConfig{Rate: 0.05, Seed: 1234}
	scfg.Host.MaxRetries = 8
	scfg.MaxBatchPairs = 64 // whole workload in one micro-batch: exact AlignPairs replay
	hostPairs, wires := testWorkload(t, 40)

	rep, want, err := host.AlignPairs(scfg.Host, hostPairs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultsDetected == 0 {
		t.Fatal("fault injection inert; the test is not exercising recovery")
	}
	wantByID := make(map[int]wireResult, len(want))
	for _, r := range want {
		wantByID[r.ID] = toWireResult(r, "")
	}

	ts := httptest.NewServer(newTestServer(t, scfg, 2).mux())
	defer ts.Close()

	arrayBody, _ := json.Marshal(wires)
	var ndjson bytes.Buffer
	enc := json.NewEncoder(&ndjson)
	for _, p := range wires {
		enc.Encode(p)
	}
	for _, tc := range []struct {
		name, ct string
		body     []byte
	}{
		{"json array", "application/json", arrayBody},
		{"ndjson", "application/x-ndjson", ndjson.Bytes()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			results := postAlign(t, ts, tc.body, tc.ct)
			if len(results) != len(wires) {
				t.Fatalf("%d results for %d pairs", len(results), len(wires))
			}
			for i, r := range results {
				if r.ID != i {
					t.Fatalf("result %d carries ID %d; stream must follow submission order", i, r.ID)
				}
				if r.TraceID == "" {
					t.Fatalf("pair %d: streamed result missing a trace ID", r.ID)
				}
				r.TraceID = "" // minted per request; everything else must match exactly
				if !reflect.DeepEqual(r, wantByID[r.ID]) {
					t.Fatalf("pair %d diverges from one-shot AlignPairs:\n got %+v\nwant %+v", r.ID, r, wantByID[r.ID])
				}
			}
		})
	}
}

// TestServerBackpressure429: with the admission gate pre-filled and the
// waiting queues sized to zero, the next align request must bounce with
// 429 + a computed Retry-After within [1, max_retry_after] seconds, and
// succeed again once capacity frees up.
func TestServerBackpressure429(t *testing.T) {
	obs.SetDefault(obs.NewRegistry()) // the daemon's run() does this; mirror it for /metrics
	cfg := config.Default()
	cfg.Queues.Slots = 2
	cfg.Queues.Interactive = 0
	cfg.Queues.Bulk = 0
	sv, err := newServer(cfg, testSessionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv.mux())
	defer ts.Close()
	_, wires := testWorkload(t, 2)
	body, _ := json.Marshal(wires)

	// Both slots deterministically busy.
	ctx := context.Background()
	sv.gate.Acquire(ctx, host.ClassBulk)
	sv.gate.Acquire(ctx, host.ClassBulk)
	resp, err := http.Post(ts.URL+"/align", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST at capacity = %d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil {
		t.Fatalf("429 Retry-After %q is not integer seconds: %v", resp.Header.Get("Retry-After"), err)
	}
	if maxRA := int(cfg.Queues.MaxRetryAfter / time.Second); ra < 1 || ra > maxRA {
		t.Fatalf("computed Retry-After %ds outside [1, %d]", ra, maxRA)
	}

	sv.gate.Release()
	sv.gate.Release()
	if got := postAlign(t, ts, body, "application/json"); len(got) != len(wires) {
		t.Fatalf("%d results after capacity freed, want %d", len(got), len(wires))
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "alignd_requests_rejected_total 1") {
		t.Errorf("metrics missing the admission reject:\n%s", metrics)
	}
}

func TestServerEndpoints(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, testSessionConfig(t), 1).mux())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}

	// /metrics must carry the Prometheus exposition content type.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}

	// The /debug surface answers even with no registry or recorder wired.
	for _, path := range []string{"/debug/flight", "/debug/vars", "/debug/pprof/"} {
		resp, err = http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	resp, err = http.Get(ts.URL + "/debug/trace?sec=99")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /debug/trace?sec=99 = %d, want 400", resp.StatusCode)
	}

	// GET on /align is not allowed.
	resp, err = http.Get(ts.URL + "/align")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /align = %d, want 405", resp.StatusCode)
	}

	// An empty body is an empty result stream, not an error.
	resp, err = http.Post(ts.URL+"/align", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || len(bytes.TrimSpace(body)) != 0 {
		t.Fatalf("empty POST = %d %q, want 200 with no results", resp.StatusCode, body)
	}

	// A malformed first pair is a 400, not a hung stream.
	resp, err = http.Post(ts.URL+"/align", "application/json", strings.NewReader(`{"id":0,"a":"XYZ","b":"ACGT"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid sequence POST = %d, want 400", resp.StatusCode)
	}
}

// TestServerTraceIDPropagation is the observability acceptance check: a
// request posted with X-Trace-Id must come back with every NDJSON result
// line stamped with that ID, the ID echoed on the response header, a
// flight-recorder entry carrying it, and — with the slow threshold at
// zero — a structured slow-request log line with the full stage
// breakdown.
func TestServerTraceIDPropagation(t *testing.T) {
	obs.SetDefault(obs.NewRegistry())
	fr := obs.NewFlightRecorder(64)
	obs.SetFlight(fr)
	defer obs.SetFlight(nil)
	var logBuf bytes.Buffer
	obs.SetLogOutput(&logBuf)
	obs.SetLogJSON(true)
	defer obs.SetLogOutput(os.Stderr)
	defer obs.SetLogJSON(false)

	cfg := config.Default()
	cfg.Queues.Slots = 1
	cfg.Server.SlowRequest = 0 // threshold 0: every request logs its breakdown
	sv, err := newServer(cfg, testSessionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv.mux())
	defer ts.Close()

	_, wires := testWorkload(t, 4)
	body, _ := json.Marshal(wires)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/align", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Trace-Id", "t-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /align = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "t-123" {
		t.Fatalf("response X-Trace-Id = %q, want the request's t-123", got)
	}
	dec := json.NewDecoder(resp.Body)
	n := 0
	for {
		var r wireResult
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if r.Err != "" {
			t.Fatalf("server error mid-stream: %s", r.Err)
		}
		if r.TraceID != "t-123" {
			t.Fatalf("result %d carries trace ID %q, want t-123", r.ID, r.TraceID)
		}
		n++
	}
	if n != len(wires) {
		t.Fatalf("%d results for %d pairs", n, len(wires))
	}

	kinds := map[string]bool{}
	for _, ev := range fr.Snapshot() {
		if ev.TraceID == "t-123" {
			kinds[ev.Kind] = true
		}
	}
	for _, want := range []string{"admit", "slow"} {
		if !kinds[want] {
			t.Errorf("flight recorder missing a %q event for t-123 (have %v)", want, kinds)
		}
	}

	var slow map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var m map[string]any
		if json.Unmarshal([]byte(line), &m) == nil &&
			m["msg"] == "slow request" && m["trace_id"] == "t-123" {
			slow = m
		}
	}
	if slow == nil {
		t.Fatalf("no structured slow-request line for t-123 in:\n%s", logBuf.String())
	}
	for _, key := range []string{"elapsed_sec", "pairs", "queue_wait_sec", "linger_sec",
		"kernel_sec", "wait_retry_sec", "escalation_sec", "verify_sec"} {
		if _, ok := slow[key]; !ok {
			t.Errorf("slow-request line missing %q: %v", key, slow)
		}
	}

	// The ops surface sees the same request: the flight dump carries the
	// trace ID and /debug/vars reflects the served request.
	dresp, err := http.Get(ts.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	dump, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != 200 || !strings.Contains(string(dump), "t-123") {
		t.Fatalf("/debug/flight = %d, missing t-123:\n%s", dresp.StatusCode, dump)
	}
	vresp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars struct {
		Metrics obs.Snapshot   `json:"metrics"`
		Runtime map[string]any `json:"runtime"`
	}
	err = json.NewDecoder(vresp.Body).Decode(&vars)
	vresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if vars.Metrics.Counters["alignd_requests_total"] < 1 {
		t.Errorf("/debug/vars counters = %v, want alignd_requests_total >= 1", vars.Metrics.Counters)
	}
	if _, ok := vars.Metrics.Histograms[`alignd_stage_seconds{stage="kernel"}`]; !ok {
		t.Errorf("/debug/vars missing the kernel stage histogram (have %d histograms)", len(vars.Metrics.Histograms))
	}
	if vars.Runtime["goroutines"] == nil {
		t.Error("/debug/vars missing runtime stats")
	}
}

// TestServerStreamsManyMicroBatches drives enough pairs through a small
// micro-batch size to require several flushes, checking order and count.
func TestServerStreamsManyMicroBatches(t *testing.T) {
	scfg := testSessionConfig(t)
	scfg.MaxBatchPairs = 4
	scfg.MaxConcurrentBatches = 3
	ts := httptest.NewServer(newTestServer(t, scfg, 1).mux())
	defer ts.Close()
	_, wires := testWorkload(t, 30)
	body, _ := json.Marshal(wires)
	results := postAlign(t, ts, body, "application/json")
	if len(results) != len(wires) {
		t.Fatalf("%d results for %d pairs", len(results), len(wires))
	}
	for i, r := range results {
		if r.ID != i {
			t.Fatalf("result %d carries ID %d; stream must follow submission order", i, r.ID)
		}
		if r.Status != "ok" || !r.Trusted {
			t.Fatalf("pair %d: status %q trusted=%v on a perfect fabric", i, r.Status, r.Trusted)
		}
	}
}

// TestServerTraceIDBounded: a caller's X-Trace-Id is copied into every
// result line, log event and flight record of its request, so one longer
// than 128 bytes, or with a byte outside printable ASCII, is refused with
// 400 before admission; a 128-byte printable ID is served and echoed.
func TestServerTraceIDBounded(t *testing.T) {
	sv := newTestServer(t, testSessionConfig(t), 1)
	ts := httptest.NewServer(sv.mux())
	defer ts.Close()
	_, wires := testWorkload(t, 1)
	body, _ := json.Marshal(wires)
	for _, tc := range []struct {
		tid  string
		want int
	}{
		{strings.Repeat("a", 128), http.StatusOK},
		{strings.Repeat("a", 129), http.StatusBadRequest},
		{"t 1", http.StatusBadRequest},
		{"t-\u00e9", http.StatusBadRequest},
	} {
		resp := post(t, ts.URL+"/align", body, map[string]string{"X-Trace-Id": tc.tid})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("X-Trace-Id %q (%d bytes): status %d, want %d", tc.tid, len(tc.tid), resp.StatusCode, tc.want)
		}
		if tc.want == http.StatusOK && resp.Header.Get("X-Trace-Id") != tc.tid {
			t.Errorf("accepted X-Trace-Id not echoed: got %q", resp.Header.Get("X-Trace-Id"))
		}
	}
}

// TestShutdownClosesUnusedConn: a connection dialled but never used is
// one net/http counts as active for 5 s; the daemon's server closes it
// once shutdown begins, so Shutdown returns at once.
func TestShutdownClosesUnusedConn(t *testing.T) {
	sv := newTestServer(t, testSessionConfig(t), 1)
	srv := sv.httpServer()
	accepted := make(chan struct{}, 1)
	hook := srv.ConnState
	srv.ConnState = func(c net.Conn, st http.ConnState) {
		hook(c, st)
		if st == http.StateNew {
			accepted <- struct{}{}
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-accepted // the server holds the connection; nothing is ever sent

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Shutdown took %v with one unused connection, want under 1s", took)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

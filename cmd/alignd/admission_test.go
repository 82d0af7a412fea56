package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pimnw/internal/admission"
	"pimnw/internal/admission/config"
	"pimnw/internal/host"
	"pimnw/internal/obs"
)

func post(t *testing.T, url string, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func drainResults(t *testing.T, resp *http.Response) []wireResult {
	t.Helper()
	defer resp.Body.Close()
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

// TestServerDrainingHealthz: once draining is flagged, /healthz answers
// 503 "draining" (so load balancers route away) and new align requests
// are refused with 503, while the flag down means business as usual.
func TestServerDrainingHealthz(t *testing.T) {
	obs.SetDefault(obs.NewRegistry())
	sv := newTestServer(t, testSessionConfig(t), 2)
	ts := httptest.NewServer(sv.mux())
	defer ts.Close()

	sv.draining.Store(true)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || strings.TrimSpace(string(body)) != "draining" {
		t.Fatalf("/healthz while draining = %d %q, want 503 draining", resp.StatusCode, body)
	}
	_, wires := testWorkload(t, 1)
	wbody, _ := json.Marshal(wires)
	resp = post(t, ts.URL+"/align", wbody, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /align while draining = %d, want 503", resp.StatusCode)
	}

	sv.draining.Store(false)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("/healthz after drain flag cleared = %d %q", resp.StatusCode, body)
	}
}

// TestServerRateLimit429 exercises the client and global tiers over
// HTTP: a client key that exhausts its burst gets 429 naming the tier,
// an unrelated key is still admitted, and the reject shows up on the
// per-tier metric.
func TestServerRateLimit429(t *testing.T) {
	obs.SetDefault(obs.NewRegistry())
	cfg := config.Default()
	cfg.Limits.ClientQPS = 0.001 // effectively: burst only, no refill within the test
	cfg.Limits.ClientBurst = 1
	sv, err := newServer(cfg, testSessionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv.mux())
	defer ts.Close()
	_, wires := testWorkload(t, 1)
	body, _ := json.Marshal(wires)

	key := map[string]string{"X-Api-Key": "tenant-a"}
	resp := post(t, ts.URL+"/align", body, key)
	if got := drainResults(t, resp); len(got) != 1 {
		t.Fatalf("first request: %d results, want 1", len(got))
	}
	resp = post(t, ts.URL+"/align", body, key)
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request on an exhausted client bucket = %d, want 429", resp.StatusCode)
	}
	if !strings.Contains(string(msg), "client") {
		t.Errorf("429 body %q does not name the violated tier", msg)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("rate-limit 429 without Retry-After")
	}

	// A different tenant is unaffected (its own bucket).
	resp = post(t, ts.URL+"/align", body, map[string]string{"X-Api-Key": "tenant-b"})
	if got := drainResults(t, resp); len(got) != 1 {
		t.Fatalf("other tenant refused alongside the limited one (%d results)", len(got))
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(metrics), `alignd_ratelimit_rejected_total{tier="client"} 1`) {
		t.Errorf("metrics missing the per-tier reject counter:\n%s", metrics)
	}
}

func TestServerPriorityClassValidation(t *testing.T) {
	sv := newTestServer(t, testSessionConfig(t), 1)
	ts := httptest.NewServer(sv.mux())
	defer ts.Close()
	resp := post(t, ts.URL+"/align", []byte("[]"), map[string]string{"X-Priority": "urgent"})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown X-Priority = %d, want 400", resp.StatusCode)
	}
}

// TestServerShedDegradation walks the ladder's serving behavior: under
// ShedScoreOnly a bulk request that asked for CIGARs is served
// score-only with typed labels on the header and every result line;
// interactive requests are untouched (score-only is their contract, not
// a degradation); under ShedRejectBulk bulk bounces with 429 while
// interactive is still served. No rung ever degrades silently.
func TestServerShedDegradation(t *testing.T) {
	obs.SetDefault(obs.NewRegistry())
	scfg := testSessionConfig(t)
	scfg.Host.Verify = true // so no-verify has something to take away
	sv := newTestServer(t, scfg, 4)
	ts := httptest.NewServer(sv.mux())
	defer ts.Close()
	_, wires := testWorkload(t, 3)
	body, _ := json.Marshal(wires)

	// Full service: bulk results carry CIGARs and no degradation labels.
	resp := post(t, ts.URL+"/align", body, nil)
	if lvl := resp.Header.Get("X-Shed-Level"); lvl != "none" {
		t.Fatalf("X-Shed-Level = %q at full service, want none", lvl)
	}
	for _, r := range drainResults(t, resp) {
		if r.Cigar == "" || len(r.Degraded) != 0 {
			t.Fatalf("full-service result %+v, want a CIGAR and no degradation labels", r)
		}
	}

	// ShedScoreOnly: bulk is served without CIGARs, labelled on the
	// response header and on every line.
	if err := sv.pressure.SetOverride(admission.ShedScoreOnly); err != nil {
		t.Fatal(err)
	}
	resp = post(t, ts.URL+"/align", body, nil)
	if lvl := resp.Header.Get("X-Shed-Level"); lvl != "score-only" {
		t.Fatalf("X-Shed-Level = %q under override, want score-only", lvl)
	}
	if deg := resp.Header.Get("X-Degraded"); deg != "score-only" {
		t.Fatalf("X-Degraded = %q, want score-only", deg)
	}
	results := drainResults(t, resp)
	if len(results) != len(wires) {
		t.Fatalf("%d degraded results for %d pairs", len(results), len(wires))
	}
	for _, r := range results {
		if r.Cigar != "" {
			t.Fatalf("pair %d still carries a CIGAR under score-only shedding", r.ID)
		}
		if len(r.Degraded) != 1 || r.Degraded[0] != "score-only" {
			t.Fatalf("pair %d degradation labels %v, want [score-only]", r.ID, r.Degraded)
		}
	}

	// Interactive requests pass through undegraded — score-only is what
	// they asked for.
	resp = post(t, ts.URL+"/align", body, map[string]string{"X-Priority": "interactive"})
	if deg := resp.Header.Get("X-Degraded"); deg != "" {
		t.Fatalf("interactive request labelled degraded (%q)", deg)
	}
	for _, r := range drainResults(t, resp) {
		if r.Cigar != "" || len(r.Degraded) != 0 {
			t.Fatalf("interactive result %+v, want score-only with no labels", r)
		}
	}

	// ShedNoVerify on a score-only template degrades only verify; with
	// traceback still wanted, score-only subsumes it (covered above), so
	// exercise the verify-only label via an interactive-like template:
	// skip — the admission package pins Degradations(); here we check the
	// reject rung instead.
	if err := sv.pressure.SetOverride(admission.ShedRejectBulk); err != nil {
		t.Fatal(err)
	}
	resp = post(t, ts.URL+"/align", body, nil)
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("bulk under reject-bulk = %d, want 429 (%s)", resp.StatusCode, msg)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 429 without Retry-After")
	}
	resp = post(t, ts.URL+"/align", body, map[string]string{"X-Priority": "interactive"})
	if got := drainResults(t, resp); len(got) != len(wires) {
		t.Fatalf("interactive refused under reject-bulk (%d results)", len(got))
	}

	sv.pressure.ClearOverride()
	resp = post(t, ts.URL+"/align", body, nil)
	for _, r := range drainResults(t, resp) {
		if r.Cigar == "" || len(r.Degraded) != 0 {
			t.Fatalf("post-release result %+v, want full service restored", r)
		}
	}
}

// TestAdminConfigReload: GET returns the canonical config, POSTing it
// back unchanged is accepted, a dynamic change (queue slots, rates)
// takes effect on the live gate/limiter, and a static-section change is
// refused with 400 without touching anything.
func TestAdminConfigReload(t *testing.T) {
	obs.SetDefault(obs.NewRegistry())
	sv := newTestServer(t, testSessionConfig(t), 4)
	ts := httptest.NewServer(sv.mux())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/admin/config")
	if err != nil {
		t.Fatal(err)
	}
	live, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /admin/config = %d", resp.StatusCode)
	}
	parsed, err := config.Parse(live)
	if err != nil {
		t.Fatalf("live config does not re-parse: %v\n%s", err, live)
	}
	if parsed.Queues.Slots != 4 {
		t.Fatalf("live config slots = %d, want 4", parsed.Queues.Slots)
	}

	// Identity reload: accepted, nothing changes.
	resp = post(t, ts.URL+"/admin/config", live, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("identity reload = %d, want 200", resp.StatusCode)
	}

	// Dynamic change: slots 4 -> 9 and a client rate limit.
	next := *parsed
	next.Queues.Slots = 9
	next.Limits.ClientQPS = 50
	next.Limits.ClientBurst = 10
	var buf bytes.Buffer
	next.WriteTo(&buf)
	resp = post(t, ts.URL+"/admin/config", buf.Bytes(), nil)
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("dynamic reload = %d: %s", resp.StatusCode, msg)
	}
	if got := sv.gate.Config().Slots; got != 9 {
		t.Fatalf("gate slots after reload = %d, want 9", got)
	}
	if got := sv.rl.Limits().ClientQPS; got != 50 {
		t.Fatalf("limiter client QPS after reload = %v, want 50", got)
	}

	// Static change: refused, live state untouched.
	bad := next
	bad.Align.Band = 256
	buf.Reset()
	bad.WriteTo(&buf)
	resp = post(t, ts.URL+"/admin/config", buf.Bytes(), nil)
	msg, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("static-section reload = %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(msg), "align") {
		t.Errorf("400 body %q does not name the offending section", msg)
	}
	if got := sv.cfg.Load().Align.Band; got != 64 && got != parsed.Align.Band {
		t.Fatalf("static reload leaked: band = %d", got)
	}

	// The fleet is static too: a backend-spec change must be refused,
	// not silently stored while the old backends keep serving.
	badFleet := next
	badFleet.Align.Fleet = "pim:2,cpu:4"
	buf.Reset()
	badFleet.WriteTo(&buf)
	resp = post(t, ts.URL+"/admin/config", buf.Bytes(), nil)
	msg, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("fleet reload = %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(msg), "fleet") {
		t.Errorf("400 body %q does not name the fleet section", msg)
	}
	if got := sv.cfg.Load().Align.Fleet; got != parsed.Align.Fleet {
		t.Fatalf("fleet reload leaked: backends = %q", got)
	}

	// Malformed config: 400 with the line number.
	resp = post(t, ts.URL+"/admin/config", []byte("limits:\n  bogus_key: 1\n"), nil)
	msg, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "bogus_key") {
		t.Fatalf("malformed reload = %d %q, want 400 naming the key", resp.StatusCode, msg)
	}

	// Every key, one at a time: static refused by name, dynamic applied.
	reloadEveryKey(t, sv, ts, "")
}

// TestAdminShedEndpoint drives the manual override: pin reject-bulk,
// observe it on GET and on the serving path, then return to auto.
func TestAdminShedEndpoint(t *testing.T) {
	obs.SetDefault(obs.NewRegistry())
	sv := newTestServer(t, testSessionConfig(t), 2)
	ts := httptest.NewServer(sv.mux())
	defer ts.Close()

	var st shedStatus
	resp := post(t, ts.URL+"/admin/shed", []byte(`{"level":"reject-bulk"}`), nil)
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Level != "reject-bulk" || st.Override != "reject-bulk" || st.Auto != "none" {
		t.Fatalf("shed status after override = %+v", st)
	}
	if sv.pressure.Level() != admission.ShedRejectBulk {
		t.Fatalf("pressure level %v, want reject-bulk", sv.pressure.Level())
	}

	resp = post(t, ts.URL+"/admin/shed", []byte(`{"level":"auto"}`), nil)
	st = shedStatus{} // omitempty would leave the stale override in place
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.Level != "none" || st.Override != "" {
		t.Fatalf("shed status after auto = %+v", st)
	}

	resp = post(t, ts.URL+"/admin/shed", []byte(`{"level":"sideways"}`), nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus shed level = %d, want 400", resp.StatusCode)
	}

	// /admin/limits reports all three surfaces.
	lresp, err := http.Get(ts.URL + "/admin/limits")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Limits json.RawMessage `json:"limits"`
		Gate   struct {
			Slots int `json:"slots"`
		} `json:"gate"`
		Shed shedStatus `json:"shed"`
	}
	err = json.NewDecoder(lresp.Body).Decode(&stats)
	lresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Gate.Slots != 2 || len(stats.Limits) == 0 || stats.Shed.Level != "none" {
		t.Fatalf("/admin/limits = %+v", stats)
	}
}

// TestAdminTokenAuth: with server.admin_token configured every /admin
// request must present it; both header forms work.
func TestAdminTokenAuth(t *testing.T) {
	cfg := config.Default()
	cfg.Server.AdminToken = "s3cret"
	sv, err := newServer(cfg, testSessionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(sv.mux())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/admin/shed")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /admin/shed = %d, want 401", resp.StatusCode)
	}
	for _, hdr := range []map[string]string{
		{"X-Admin-Token": "s3cret"},
		{"Authorization": "Bearer s3cret"},
	} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/admin/shed", nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("authenticated /admin/shed with %v = %d, want 200", hdr, resp.StatusCode)
		}
	}
	// A wrong token of the right length is refused in both forms.
	for _, hdr := range []map[string]string{
		{"X-Admin-Token": "s3creT"},
		{"Authorization": "Bearer s3creT"},
	} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/admin/shed", nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("/admin/shed with wrong token %v = %d, want 401", hdr, resp.StatusCode)
		}
	}
}

// TestServerSamplerDrivesLadder wires the real background sampler at a
// fast cadence and holds the gate saturated: the ladder must climb
// without any manual override, then release once the load vanishes.
func TestServerSamplerDrivesLadder(t *testing.T) {
	obs.SetDefault(obs.NewRegistry())
	cfg := config.Default()
	cfg.Queues.Slots = 1
	cfg.Shed.SampleInterval = time.Millisecond
	cfg.Shed.HighWater = 0.9
	cfg.Shed.LowWater = 0.5
	cfg.Shed.RaiseAfter = 3
	cfg.Shed.ReleaseAfter = 3
	sv, err := newServer(cfg, testSessionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	sv.start()
	defer sv.Close()

	sv.gate.Acquire(context.Background(), host.ClassBulk) // load = 1.0
	deadline := time.Now().Add(5 * time.Second)
	for sv.pressure.Level() < admission.ShedScoreOnly {
		if time.Now().After(deadline) {
			t.Fatal("sampler never climbed the ladder under a saturated gate")
		}
		time.Sleep(time.Millisecond)
	}
	sv.gate.Release() // load = 0
	for sv.pressure.Level() != admission.ShedNone {
		if time.Now().After(deadline) {
			t.Fatalf("sampler never released (level %v)", sv.pressure.Level())
		}
		time.Sleep(time.Millisecond)
	}
}

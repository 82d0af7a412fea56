package main

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pimnw/internal/admission/config"
	"pimnw/internal/obs"
	"pimnw/internal/seq"
)

// loadTally is what a run's closed-loop workers saw, summed over all of
// them.
type loadTally struct {
	mu          sync.Mutex
	rejected    int             // 429s
	degraded    int             // bulk responses labelled X-Degraded
	unlabelled  int             // bulk results without a CIGAR or a degradation label
	interactive []time.Duration // answered interactive requests' latencies
}

// p99 is the interactive 99th-percentile latency (nearest rank below).
func (tl *loadTally) p99() time.Duration {
	l := append([]time.Duration(nil), tl.interactive...)
	if len(l) == 0 {
		return 0
	}
	sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
	return l[int(0.99*float64(len(l)-1))]
}

// closedLoop posts bodies in turn as class, each once the previous
// response's stream has ended, until it has sent n requests or stop
// closes, and records what came back in tl. A transport or stream error
// in post or drainResults fails the test and ends only this worker;
// runLoad waits for every worker, so none outlives the test.
func closedLoop(t *testing.T, url, class string, bodies [][]byte, n int, stop <-chan struct{}, tl *loadTally) {
	for i := 0; i < n; i++ {
		select {
		case <-stop:
			return
		default:
		}
		start := time.Now()
		resp := post(t, url+"/align", bodies[i%len(bodies)], map[string]string{"X-Priority": class})
		if resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			tl.mu.Lock()
			tl.rejected++
			tl.mu.Unlock()
			continue
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Errorf("%s POST /align = %d: %s", class, resp.StatusCode, msg)
			return
		}
		labelled := resp.Header.Get("X-Degraded") != ""
		results := drainResults(t, resp)
		elapsed := time.Since(start)
		tl.mu.Lock()
		if class == "interactive" {
			tl.interactive = append(tl.interactive, elapsed)
		} else {
			if labelled {
				tl.degraded++
			}
			for _, r := range results {
				if r.Cigar == "" && len(r.Degraded) == 0 {
					tl.unlabelled++
				}
			}
		}
		tl.mu.Unlock()
	}
}

// runLoad drives url from interactive and bulk closed-loop workers, each
// with its own bodies, and returns once every worker has.
func runLoad(t *testing.T, url string, interactive, bulk [][][]byte, n int, stop <-chan struct{}) *loadTally {
	tl := &loadTally{}
	var wg sync.WaitGroup
	for class, workers := range map[string][][][]byte{"interactive": interactive, "bulk": bulk} {
		for _, bodies := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				closedLoop(t, url, class, bodies, n, stop, tl)
			}()
		}
	}
	wg.Wait()
	return tl
}

func shedLevel(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/admin/shed")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st shedStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.Level
}

func metricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// uniqueBodies returns n request bodies of pairs fresh pairs each, about
// seqLen bases long, drawn from rng.
func uniqueBodies(rng *rand.Rand, n, pairs, seqLen int) [][]byte {
	bodies := make([][]byte, n)
	for i := range bodies {
		wires := make([]wirePair, pairs)
		for j := range wires {
			a := seq.Random(rng, seqLen+rng.Intn(seqLen/4+1))
			b := seq.UniformErrors(0.08).Apply(rng, a)
			wires[j] = wirePair{ID: j, A: a.String(), B: b.String()}
		}
		bodies[i], _ = json.Marshal(wires)
	}
	return bodies
}

// TestServerUnderLoad drives a daemon on a real listener from concurrent
// closed-loop interactive and bulk clients and checks the serving
// contracts that only show under load:
//
//   - overload: with one slot, tiny queues and a fast sampler the shed
//     ladder leaves none, no bulk result loses its CIGAR without a typed
//     label, the shed and degradation counters reach /metrics, the ladder
//     returns to none once the load stops, and the server shuts down
//     cleanly right after;
//   - cache: on a cache-enabled server with escalation, a warm run that
//     replays only already-served pairs has a lower interactive p99 than
//     the cold run that computed them, and the cache counts hits.
func TestServerUnderLoad(t *testing.T) {
	t.Run("overload", func(t *testing.T) {
		obs.SetDefault(obs.NewRegistry())
		cfg := config.Default()
		cfg.Queues.Slots = 1
		cfg.Queues.Interactive = 2
		cfg.Queues.Bulk = 2
		cfg.Shed.SampleInterval = 10 * time.Millisecond
		cfg.Shed.HighWater = 0.7
		cfg.Shed.LowWater = 0.3
		cfg.Shed.RaiseAfter = 3
		cfg.Shed.ReleaseAfter = 5
		scfg := testSessionConfig(t)
		scfg.Host.Verify = true
		sv, err := newServer(cfg, scfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(nil)
		ts.Config = sv.httpServer() // the daemon's server, shutdown hook included
		ts.Start()
		defer ts.Close()
		sv.start()
		defer sv.Close()

		_, wires := testWorkload(t, 6)
		body, _ := json.Marshal(wires)
		one := [][]byte{body}

		// Load until the ladder has left none and degraded a bulk
		// request, or the deadline passes.
		stop := make(chan struct{})
		done := make(chan *loadTally)
		go func() {
			done <- runLoad(t, ts.URL, [][][]byte{one, one}, [][][]byte{one, one, one, one}, 1<<30, stop)
		}()
		engaged := false
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			engaged = engaged || shedLevel(t, ts.URL) != "none"
			if engaged && strings.Contains(metricsText(t, ts.URL), "alignd_degraded_requests_total") {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		close(stop)
		tl := <-done
		if !engaged {
			t.Errorf("shed ladder never left none under overload")
		}

		m := metricsText(t, ts.URL)
		if !strings.Contains(m, "\nalignd_shed_transitions_total") {
			t.Errorf("/metrics lacks alignd_shed_transitions_total: the ladder never moved")
		}
		if !strings.Contains(m, "alignd_degraded_requests_total") || tl.degraded == 0 {
			t.Errorf("no degraded bulk request under overload (%d labelled responses)", tl.degraded)
		}
		if tl.unlabelled > 0 {
			t.Errorf("%d bulk results lack a CIGAR without a degradation label", tl.unlabelled)
		}

		deadline = time.Now().Add(5 * time.Second)
		for lvl := shedLevel(t, ts.URL); lvl != "none"; lvl = shedLevel(t, ts.URL) {
			if time.Now().After(deadline) {
				t.Fatalf("shed ladder stuck at %q after the load stopped", lvl)
			}
			time.Sleep(10 * time.Millisecond)
		}

		// The transport may leave a connection it dialled but never used;
		// the daemon's server closes it, so Shutdown does not wait it out.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := ts.Config.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown after overload: %v", err)
		}
	})

	t.Run("cache", func(t *testing.T) {
		obs.SetDefault(obs.NewRegistry())
		cfg := config.Default()
		cfg.Queues.Slots = 8
		cfg.Queues.Interactive = 16
		cfg.Queues.Bulk = 16
		cfg.Shed.HighWater = 0.99
		cfg.Shed.LowWater = 0.98
		cfg.Cache.Dir = t.TempDir()
		cfg.Cache.Fsync = "interval"
		c, err := openCache(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		scfg := testSessionConfig(t)
		scfg.Host.Escalate = true
		scfg.Cache = c
		sv, err := newServer(cfg, scfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(sv.mux())
		defer ts.Close()
		sv.start()
		defer sv.Close()

		// Four interactive workers and one bulk, each with its own
		// all-unique bodies: the cold run computes every pair, the warm
		// run replays the same bodies and so only hits the cache.
		const requests = 3
		rng := rand.New(rand.NewSource(47))
		var interactive [][][]byte
		for i := 0; i < 4; i++ {
			interactive = append(interactive, uniqueBodies(rng, requests, 8, 1000))
		}
		bulk := [][][]byte{uniqueBodies(rng, requests, 8, 1000)}

		cold := runLoad(t, ts.URL, interactive, bulk, requests, nil)
		warm := runLoad(t, ts.URL, interactive, bulk, requests, nil)
		for _, tl := range []*loadTally{cold, warm} {
			if tl.rejected > 0 || tl.unlabelled > 0 {
				t.Fatalf("%d rejected requests, %d unlabelled degradations without overload",
					tl.rejected, tl.unlabelled)
			}
		}
		coldP99, warmP99 := cold.p99(), warm.p99()
		t.Logf("interactive p99: cold %v, warm %v", coldP99, warmP99)
		if warmP99 >= coldP99 {
			t.Errorf("cache-hit interactive p99 %v not below the cold run's %v", warmP99, coldP99)
		}
		hits := 0.0
		for _, line := range strings.Split(metricsText(t, ts.URL), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] == "host_cache_hits_total" {
				hits, _ = strconv.ParseFloat(f[1], 64)
			}
		}
		if hits <= 0 {
			t.Errorf("host_cache_hits_total = %v after the warm run, want > 0", hits)
		}
	})
}

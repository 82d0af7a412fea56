package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"pimnw/internal/obs"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}, {1, 10}} {
		if got := percentile(v, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	// 100 samples leave exactly ten beyond p90; 99 leave nine.
	if beyond(100, 0.9) != 10 || beyond(99, 0.9) != 9 || beyond(15, 0.9) != 1 {
		t.Errorf("beyond: %d %d %d", beyond(100, 0.9), beyond(99, 0.9), beyond(15, 0.9))
	}
}

// The expected cuts are statistics.quantiles(v, n=4) from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 9, 3, 7, 11, 2}, 2, 5, 9},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q2, q3 := quartiles(tc.v)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.v, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := spreadShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spreadShare(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	rung := []float64{10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0}
	next := []float64{7.0, 7.1, 6.9, 7.0, 7.2, 7.0, 6.8, 7.1, 7.0}
	self, unresolved := selfTime(rung, next)
	if unresolved || math.Abs(self-3.0) > 1e-9 {
		t.Errorf("clear rung: self %g unresolved %v, want 3 resolved", self, unresolved)
	}
	// A difference inside the rung's own inter-quartile spread is noise.
	close := []float64{9.9, 10.0, 10.1, 9.95, 10.0, 10.05, 9.9, 10.0, 10.1}
	self, unresolved = selfTime(rung, close)
	if !unresolved || self < 0 {
		t.Errorf("rung within noise of the next: self %g unresolved %v, want flagged and >= 0", self, unresolved)
	}
	// A rung that reads faster than the one below it is never reported negative.
	self, unresolved = selfTime(next, rung)
	if !unresolved || self != 0 {
		t.Errorf("inverted rungs: self %g unresolved %v, want 0 flagged", self, unresolved)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	ev := func(name string, tid int, ts, dur float64) obs.TraceEvent {
		return obs.TraceEvent{Name: name, Ph: "X", Tid: tid, Ts: ts, Dur: dur}
	}
	self := spanSelfTimes([]obs.TraceEvent{
		ev("batch", 1, 0, 100),
		ev("attempt", 1, 10, 80),
		ev("encode", 1, 10, 5),
		ev("kernel", 1, 20, 60),
		ev("batch", 2, 50, 40), // another lane: its own root
		ev("kernel", 2, 55, 30),
		{Name: "process_name", Ph: "M"},
	})
	want := map[string]float64{"batch": 20 + 10, "attempt": 15, "encode": 5, "kernel": 90}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %g, want %g", name, self[name], w)
		}
	}
}

func TestStampCountsFromDueTime(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var open sample
	open.stamp(at(0), at(3), at(8), at(10)) // due at 0, sent 3 ms late
	if open.lateMs != 3 || open.latMs != 10 || open.ttfrMs != 8 || open.svcMs != 7 {
		t.Errorf("open loop: %+v, want late 3, latency 10 and first result 8 from the due time, service 7", open)
	}
	var closed sample
	closed.stamp(time.Time{}, at(3), at(8), at(10))
	if closed.lateMs != 0 || closed.latMs != 7 || closed.ttfrMs != 5 {
		t.Errorf("closed loop: %+v, want latency 7 and first result 5 from the send", closed)
	}
}

// The open loop must send every scheduled request, on a fixed timetable,
// and charge a request that waited for a free caller with that wait.
func TestOpenLoopSchedule(t *testing.T) {
	l := load{rate: 500, count: 40}
	var next atomic.Int64
	next.Store(7) // earlier windows used some request numbers
	seen := make([]atomic.Bool, 47)
	run := func(service time.Duration) (time.Time, []sample) {
		return offer(l, &next, func(lane int, n int64, due time.Time) sample {
			sent := time.Now()
			if n < int64(len(seen)) {
				seen[n].Store(true)
			}
			time.Sleep(service)
			var s sample
			s.stamp(due, sent, time.Now(), time.Now())
			return s
		})
	}

	start, samples := run(100 * time.Microsecond)
	if len(samples) != l.count {
		t.Fatalf("%d samples, want %d", len(samples), l.count)
	}
	for n := 7; n < 47; n++ {
		if !seen[n].Load() {
			t.Errorf("request number %d never sent", n)
		}
	}
	if got, want := l.due(start, 10).Sub(l.due(start, 9)), 2*time.Millisecond; got != want {
		t.Errorf("due times %v apart, want %v", got, want)
	}
	late := 0
	for _, s := range samples {
		if s.lateMs < 0 {
			t.Errorf("request sent %.3f ms before it was due", -s.lateMs)
		}
		if s.lateMs > 1 {
			late++
		}
	}
	if late > l.count/4 {
		t.Errorf("%d of %d sends over 1 ms late with an idle service", late, l.count)
	}

	// Two callers at 10 ms a request serve 200/s; offered 500/s the backlog
	// grows, and the latency from the due time must show it.
	_, samples = run(10 * time.Millisecond)
	var worst sample
	for _, s := range samples {
		if s.latMs > worst.latMs {
			worst = s
		}
	}
	if worst.lateMs < 50 || worst.latMs < worst.lateMs+9 {
		t.Errorf("overloaded: worst request late %.1f ms, latency %.1f ms; want the queueing wait (>50 ms) inside the latency", worst.lateMs, worst.latMs)
	}
}

func TestPoolIsASeedFunction(t *testing.T) {
	w := workloadByName("small_open")
	a, b, c := generatePool(w, 1), generatePool(w, 1), generatePool(w, 2)
	if len(a) != w.pool || !bytes.Equal(a[3].wire, b[3].wire) {
		t.Fatalf("same seed gave different bodies")
	}
	if bytes.Equal(a[3].wire, c[3].wire) {
		t.Fatalf("different seeds gave the same body")
	}
	s, f := generatePool(workloadByName("s1000_bulk"), 1), generatePool(workloadByName("fleet_bulk"), 1)
	if !bytes.Equal(s[0].wire, f[0].wire) {
		t.Fatalf("fleet_bulk must offer s1000_bulk's bodies")
	}
}

// BENCHMARK.json is what the driver reads, the tables in metrics.go and
// workloads.go are what the program reports: they must name the same
// workloads and metrics with the same units and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, table has %q (or their reasons differ)", i, doc.Workloads[i].Name, w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: %d/%d end-to-end, %d/%d per-layer", len(doc.EndToEnd), len(endToEnd), len(doc.PerLayer), len(perLayer))
	}
	for i, s := range endToEnd {
		d := doc.EndToEnd[i]
		if d.Name != s.name || d.Unit != s.unit || d.Better != s.better || d.Bound != s.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, table %+v", i, d, s)
		}
	}
	for i, s := range perLayer {
		d := doc.PerLayer[i]
		if d.Name != s.name || d.Unit != s.unit || d.Better != s.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, table %+v", i, d, s)
		}
	}
}

// TestSmoke keeps the benchmark building and running under `go test
// ./...`: it compiles the command and runs two workloads end to end with
// one-second windows — the open loop, and the one that needs a cache
// directory, a config file and a prefill.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons; skipped with -short")
	}
	p, err := findPaths()
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(p.build, "bench.test-smoke")
	build := exec.Command("go", "build", "-o", bin, "./bench")
	build.Dir = p.root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./bench: %v\n%s", err, out)
	}
	for _, w := range []string{"small_open", "cache_warm"} {
		cmd := exec.Command(bin, "-workload", w, "-smoke", "-seed", "3")
		cmd.Dir = p.root
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v\n%s%s", w, err, out, stderr.Bytes())
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]metric
		}
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			t.Fatalf("%s: last line is not the result object: %v\n%s", w, err, lines[len(lines)-1])
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
		for _, s := range endToEnd {
			if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit || m.Value <= 0 {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", w, s.name, m, s.unit)
			}
		}
	}
}

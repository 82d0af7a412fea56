package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one request as the client saw it.
type sample struct {
	latMs   float64 // due (open loop) or send (closed loop) -> last result line
	ttfrMs  float64 // same origin -> first result line
	svcMs   float64 // send -> last result line, whatever the loop
	lateMs  float64 // send - due; 0 in a closed loop
	endAt   time.Time
	pairs   int
	failure string // "" = every check passed
}

// stamp turns a request's instants into the sample's numbers. Latencies
// count from the due time when there is one: a request sent late because
// the callers were busy carries that wait, which is what a user arriving
// on schedule would have seen.
func (s *sample) stamp(due, sent, firstLine, end time.Time) {
	origin := sent
	if !due.IsZero() {
		origin = due
		s.lateMs = ms(sent.Sub(due))
	}
	s.endAt = end
	s.latMs = ms(end.Sub(origin))
	s.svcMs = ms(end.Sub(sent))
	if !firstLine.IsZero() {
		s.ttfrMs = ms(firstLine.Sub(origin))
	}
}

// span is one client-side interval of the traced run.
type span struct {
	name       string
	id, parent int64
	req        string
	lane       int
	start, end time.Time
}

// runner drives one workload against one daemon. The reference responses
// and the counters survive across daemons, so the set-up repetitions of a
// run share them.
type runner struct {
	w    *workload
	pool []*body
	hc   *http.Client
	url  string

	next atomic.Int64 // request sequence number: pool index and trace ID

	mu sync.Mutex
	// ref[phase][body] is the normalized first response: phase 0 computed,
	// phase 1 served from the cache. first holds its parsed form.
	ref   [2][][]byte
	first [2][][]wireResult

	wantCached bool // current phase expects cached:true on every line
	traced     bool

	attempted, failed atomic.Int64
	failures          []string // first few failure messages, for the report
	spans             [clients][]span
}

func newRunner(w *workload, pool []*body) *runner {
	r := &runner{w: w, pool: pool}
	for ph := range r.ref {
		r.ref[ph] = make([][]byte, len(pool))
		r.first[ph] = make([][]wireResult, len(pool))
	}
	return r
}

// attach points the runner at a daemon with a fresh connection pool of at
// most `clients` connections.
func (r *runner) attach(d *daemon) {
	if r.hc != nil {
		r.hc.CloseIdleConnections()
	}
	r.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
	r.url = d.base + "/align"
}

func (r *runner) fail(msg string) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < 8 {
		r.failures = append(r.failures, msg)
	}
	r.mu.Unlock()
}

// caller is one load goroutine's private state: its read buffer and lane.
type caller struct {
	r    *runner
	lane int
	buf  []byte
}

// do sends request number n and checks the answer. due is the open-loop
// schedule time (zero in a closed loop).
func (c *caller) do(n int64, due time.Time) sample {
	r := c.r
	bi := int(n % int64(len(r.pool)))
	b := r.pool[bi]
	tid := traceID(n)
	r.attempted.Add(1)

	req, err := http.NewRequest(http.MethodPost, r.url, bytes.NewReader(b.wire))
	if err != nil {
		panic(err) // the URL and method are the benchmark's own constants
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set("X-Priority", r.w.class)
	req.Header.Set("X-Trace-Id", tid)
	sent := time.Now()
	// WroteRequest fires on the transport's write goroutine.
	var wroteAfter atomic.Int64
	if r.traced {
		ct := &httptrace.ClientTrace{WroteRequest: func(httptrace.WroteRequestInfo) {
			wroteAfter.Store(int64(time.Since(sent)))
		}}
		req = req.WithContext(httptrace.WithClientTrace(context.Background(), ct))
	}
	s := sample{pairs: len(b.pairs)}
	var firstLine time.Time
	// finish stamps the sample at the instant the stream ended (or broke),
	// before any checking, so the checks stay off the clock.
	finish := func(end time.Time, failure string) sample {
		s.stamp(due, sent, firstLine, end)
		if failure != "" {
			s.failure = failure
			r.fail(fmt.Sprintf("request %s (body %d): %s", tid, bi, failure))
		}
		return s
	}

	resp, err := r.hc.Do(req)
	if err != nil {
		return finish(time.Now(), "transport: "+err.Error())
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return finish(time.Now(), "status "+resp.Status)
	}
	c.buf = c.buf[:0]
	for {
		if len(c.buf) == cap(c.buf) {
			c.buf = append(c.buf, 0)[:len(c.buf)]
		}
		k, err := resp.Body.Read(c.buf[len(c.buf):cap(c.buf)])
		if k > 0 {
			if firstLine.IsZero() && bytes.IndexByte(c.buf[len(c.buf):len(c.buf)+k], '\n') >= 0 {
				firstLine = time.Now()
			}
			c.buf = c.buf[:len(c.buf)+k]
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return finish(time.Now(), "reading stream: "+err.Error())
		}
	}
	end := time.Now()
	if firstLine.IsZero() {
		return finish(end, "empty stream")
	}
	if r.traced {
		id := n * 4
		wrote := sent.Add(time.Duration(wroteAfter.Load()))
		if wrote.Equal(sent) || wrote.After(firstLine) {
			wrote = firstLine // full-duplex: results may start before the body is out
		}
		c.r.spans[c.lane] = append(c.r.spans[c.lane],
			span{"request", id, -1, tid, c.lane, sent, end},
			span{"write_body", id + 1, id, tid, c.lane, sent, wrote},
			span{"first_line", id + 2, id, tid, c.lane, wrote, firstLine},
			span{"stream_rest", id + 3, id, tid, c.lane, firstLine, end})
	}
	return finish(end, r.checkResponse(bi, normalize(c.buf, tid, r.w.fleet != "")))
}

// checkResponse holds a normalized response against the body's reference,
// which the first response seen becomes after the full check. It returns
// the violation, or "".
func (r *runner) checkResponse(bi int, norm []byte) string {
	ph := 0
	if r.wantCached {
		ph = 1
	}
	r.mu.Lock()
	ref := r.ref[ph][bi]
	r.mu.Unlock()
	if ref != nil {
		if !bytes.Equal(norm, ref) {
			return "response differs from the first one seen for this body"
		}
		return ""
	}
	parsed, err := checkFirst(r.w, r.pool[bi], norm, r.wantCached)
	if err != nil {
		return err.Error()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// A cached answer must be the computed one with nothing but the
	// marker added.
	if cold := r.first[0][bi]; ph == 1 && cold != nil {
		for i := range parsed {
			if !sameAnswer(parsed[i], cold[i]) {
				return fmt.Sprintf("line %d: cached answer differs from the computed one", i)
			}
		}
	}
	r.ref[ph][bi] = norm
	r.first[ph][bi] = parsed
	return ""
}

// window is one measured interval of load.
type window struct {
	samples   []sample
	wallSec   float64 // first send (or first due time) -> last completion
	pairsOK   int
	cpuSec    float64 // daemon user+sys CPU over the window
	clientCPU float64 // benchmark process user+sys CPU over the window
	start     time.Time
}

// load is one window's offer: how many requests, on what timetable.
type load struct {
	// rate > 0 is an open loop: request i is due at start + i/rate and is
	// sent then (or as soon after as a caller is free), count of them.
	rate float64
	// count > 0 with rate 0 is a closed loop of exactly count requests;
	// count 0 is a closed loop that stops starting requests after seconds.
	count   int
	seconds float64
}

// due is request i's place on the open-loop timetable.
func (l load) due(start time.Time, i int64) time.Time {
	return start.Add(time.Duration(float64(i) / l.rate * float64(time.Second)))
}

// offer runs the load from `clients` goroutines, each calling do for one
// request at a time: next hands out request numbers (shared with earlier
// windows, so the pool keeps cycling where it left off), i counts from
// the window's first request, due is zero in a closed loop. It returns
// when every request has been answered. Callers that find the window over
// leave a gap of at most one request number each.
func offer(l load, next *atomic.Int64, do func(lane int, n int64, due time.Time) sample) (start time.Time, samples []sample) {
	base := next.Load()
	start = time.Now()
	deadline := start.Add(time.Duration(l.seconds * float64(time.Second)))
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for lane := 0; lane < clients; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				n := next.Add(1) - 1
				i := n - base
				var due time.Time
				switch {
				case l.count > 0 && i >= int64(l.count):
					return
				case l.rate > 0:
					due = l.due(start, i)
					sleepUntil(due)
				case l.count == 0 && !time.Now().Before(deadline):
					return
				}
				per[lane] = append(per[lane], do(lane, n, due))
			}
		}(lane)
	}
	wg.Wait()
	for _, ss := range per {
		samples = append(samples, ss...)
	}
	return start, samples
}

// runWindow offers the workload's load for about `seconds`: closed-loop
// callers stop starting requests at the deadline and the window closes
// when the last answer is in, so CPU and pairs are counted between two
// quiet points; the open loop sends rate*seconds scheduled requests.
// count > 0 instead runs exactly that many closed-loop requests (warm-up
// and prefill passes).
func (r *runner) runWindow(d *daemon, seconds float64, count int) (*window, error) {
	l := load{count: count, seconds: seconds}
	if r.w.openRate > 0 && count == 0 {
		l.rate, l.count = r.w.openRate, int(r.w.openRate*seconds)
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()
	callers := make([]caller, clients)
	for lane := range callers {
		callers[lane] = caller{r: r, lane: lane}
	}
	win := &window{}
	win.start, win.samples = offer(l, &r.next, func(lane int, n int64, due time.Time) sample {
		return callers[lane].do(n, due)
	})
	last := win.start
	for _, s := range win.samples {
		if s.failure == "" {
			win.pairsOK += s.pairs
		}
		if s.endAt.After(last) {
			last = s.endAt
		}
	}
	win.wallSec = last.Sub(win.start).Seconds()
	win.clientCPU = selfCPU() - self0
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	win.cpuSec = cpu1 - cpu0
	return win, nil
}

// sleepUntil returns at t, not a scheduler wake-up after it: a sleeping
// goroutine is woken 0.5-1 ms late on this box once the daemon keeps the
// cores busy, which would make most sends of a 5 ms schedule late. It
// sleeps to within spinMargin of t and yields in a loop for the rest.
func sleepUntil(t time.Time) {
	const spinMargin = 1200 * time.Microsecond
	if d := time.Until(t) - spinMargin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// selfCPU is the benchmark process's own user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

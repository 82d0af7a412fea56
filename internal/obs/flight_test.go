package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

// installFlight makes f the process-wide recorder for one test.
func installFlight(t *testing.T, f *FlightRecorder) {
	t.Helper()
	SetFlight(f)
	t.Cleanup(func() { SetFlight(nil) })
}

// TestFlightRecorderWraparoundConcurrent hammers a small ring from many
// slog writers and checks the wraparound invariants: the total count is exact,
// the ring retains precisely the last Cap() sequence numbers (the slot
// guard must keep every slot monotone — a slow writer that lost the race
// cannot resurrect an older event over a newer one), and the snapshot
// comes back oldest first.
func TestFlightRecorderWraparoundConcurrent(t *testing.T) {
	const (
		writers   = 8
		perWriter = 500
		capacity  = 16
	)
	f := NewFlightRecorder(capacity)
	installFlight(t, f)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				slog.Debug("event", "kind", "test", "trace_id", "t-wrap")
			}
		}()
	}
	wg.Wait()

	const total = writers * perWriter
	if got := f.Recorded(); got != total {
		t.Fatalf("Recorded() = %d, want %d", got, total)
	}
	evs := f.Snapshot()
	if len(evs) != capacity {
		t.Fatalf("snapshot holds %d events, want the full ring of %d", len(evs), capacity)
	}
	// Monotone wraparound: the survivors are exactly the last `capacity`
	// sequence numbers, in order.
	for i, ev := range evs {
		want := uint64(total - capacity + i)
		if ev.Seq != want {
			t.Fatalf("snapshot[%d].Seq = %d, want %d (ring must retain only the newest events)", i, ev.Seq, want)
		}
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	installFlight(t, f)
	slog.Debug("msg", "kind", "kind", "trace_id", "tid") // must not panic
	f.DumpToLog("test")
	if f.Recorded() != 0 || f.Cap() != 0 || f.Snapshot() != nil {
		t.Fatal("nil recorder must report an empty ring")
	}
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d struct {
		Capacity int               `json:"capacity"`
		Events   []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("nil-recorder dump is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if d.Capacity != 0 || len(d.Events) != 0 {
		t.Fatalf("nil-recorder dump = %s, want an empty ring", buf.Bytes())
	}

	// The disabled hot-path event: with no recorder and the output at
	// Info, slog drops a Debug record before building it.
	if allocs := testing.AllocsPerRun(1000, func() {
		slog.Debug("hot path", "kind", "fault", "trace_id", "t-0")
	}); allocs != 0 {
		t.Fatalf("disabled Debug event allocates %.1f per call, want 0", allocs)
	}
}

func TestFlightRecorderWriteJSON(t *testing.T) {
	f := NewFlightRecorder(4)
	installFlight(t, f)
	slog.Debug("request admitted", "kind", "admit", "trace_id", "t-1")
	slog.Debug("dpu stalled", "kind", "fault", "dpu", 3)
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var d struct {
		Capacity int           `json:"capacity"`
		Recorded uint64        `json:"recorded"`
		Dropped  uint64        `json:"dropped"`
		Events   []FlightEvent `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Capacity != 4 || d.Recorded != 2 || d.Dropped != 0 || len(d.Events) != 2 {
		t.Fatalf("dump header = %+v, want capacity 4, recorded 2, dropped 0, 2 events", d)
	}
	if d.Events[0].Kind != "admit" || d.Events[0].TraceID != "t-1" {
		t.Fatalf("first event = %+v, want the admit carrying t-1", d.Events[0])
	}
	// TraceID is omitempty: the fault without one must not carry the key.
	if bytes.Count(buf.Bytes(), []byte(`"trace_id"`)) != 1 {
		t.Fatalf("dump should carry exactly one trace_id field:\n%s", buf.Bytes())
	}
}

// TestOneEventBothSinks pins the one event path: a single slog call is
// one log line and one flight event with the same kind and trace_id; a
// Debug event reaches the ring always and the output only under -v; and
// a dump goes to the output without re-entering the ring.
func TestOneEventBothSinks(t *testing.T) {
	f := NewFlightRecorder(8)
	installFlight(t, f)
	for _, js := range []bool{false, true} {
		out := captureLog(t, js, func() {
			slog.Info("cpu rescue", "kind", "escalation", "trace_id", "t-9", "pairs", 3)
		})
		if strings.Count(out, "\n") != 1 {
			t.Fatalf("json=%v: one event wrote %q, want one line", js, out)
		}
		if js {
			var line map[string]any
			if err := json.Unmarshal([]byte(out), &line); err != nil {
				t.Fatal(err)
			}
			if line["kind"] != "escalation" || line["trace_id"] != "t-9" {
				t.Fatalf("JSON line %v lacks the event's kind or trace_id", line)
			}
		} else if want := "test: cpu rescue kind=escalation trace_id=t-9 pairs=3\n"; out != want {
			t.Fatalf("text line = %q, want %q", out, want)
		}
	}
	evs := f.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("two events made %d flight records", len(evs))
	}
	if ev := evs[1]; ev.Kind != "escalation" || ev.TraceID != "t-9" || ev.Msg != "cpu rescue pairs=3" {
		t.Fatalf("flight event = %+v, want kind escalation, trace_id t-9, msg \"cpu rescue pairs=3\"", ev)
	}

	for _, v := range []int{0, 1} {
		before := f.Recorded()
		out := captureLog(t, false, func() {
			SetVerbosity(v)
			slog.Debug("request admitted", "kind", "admit", "trace_id", "t-9")
		})
		if f.Recorded() != before+1 {
			t.Fatalf("verbosity %d: the Debug event did not reach the ring", v)
		}
		if (out != "") != (v == 1) {
			t.Fatalf("verbosity %d: Debug output %q", v, out)
		}
	}

	before := f.Recorded()
	out := captureLog(t, false, func() { f.DumpToLog("test") })
	if f.Recorded() != before {
		t.Fatalf("DumpToLog recorded %d events into the ring it dumped", f.Recorded()-before)
	}
	if lines := strings.Count(out, "\n"); lines != 1+len(f.Snapshot()) {
		t.Fatalf("dump wrote %d lines for %d events:\n%s", lines, len(f.Snapshot()), out)
	}
}

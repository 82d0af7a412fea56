package obs

import (
	"encoding/json"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder is a bounded in-memory ring of the last N
// records (admissions, rejections, faults, escalations, abandonments,
// slow requests — every event, of every level): always on, cheap enough
// to leave recording in production, and dumped on demand (/debug/flight)
// or automatically when something goes irrecoverably wrong — the same
// idea as an aircraft's flight data recorder. It deliberately records
// *events*, not samples: when a request is abandoned at 3 a.m., the ring
// holds the faults and escalations that led up to it. It is the second
// sink of the slog handler obs installs (log.go), so an event is written
// once, with slog, and reaches the ring without a call of its own.
//
// Concurrency: writers claim a slot with one atomic increment and then
// copy the event under that slot's own mutex, so concurrent writers only
// contend when they hash to the same slot (ring capacity apart, or a
// full wrap behind). A slot guard keeps wraparound monotone: a slot only
// ever moves to a higher sequence number, so a slow writer that lost the
// race cannot resurrect an older event over a newer one. A nil
// *FlightRecorder is the disabled state: with none installed and the
// output at Info, slog drops a Debug event before building its record,
// which is what lets the Debug events stay in the hot path
// unconditionally.

// FlightEvent is one recorded notable event.
type FlightEvent struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Kind    string    `json:"kind"`
	TraceID string    `json:"trace_id,omitempty"`
	Msg     string    `json:"msg"`
}

type flightSlot struct {
	mu sync.Mutex
	ev FlightEvent
	ok bool
}

// FlightRecorder is the bounded event ring. All methods are nil-safe.
type FlightRecorder struct {
	slots []flightSlot
	seq   atomic.Uint64
}

// DefaultFlightEvents is the ring capacity when none is given.
const DefaultFlightEvents = 256

// NewFlightRecorder creates a ring holding the most recent n events
// (n <= 0 means DefaultFlightEvents).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightEvents
	}
	return &FlightRecorder{slots: make([]flightSlot, n)}
}

// record stores one slog record: its "kind" and "trace_id" attributes
// become the event's fields, the rest render as text after the message.
// No-op on a nil recorder.
func (f *FlightRecorder) record(t time.Time, msg string, attrs []slog.Attr) {
	if f == nil {
		return
	}
	ev := FlightEvent{Time: t, Msg: msg}
	var rest []byte
	for _, a := range attrs {
		switch a.Key {
		case "kind":
			ev.Kind = a.Value.String()
		case "trace_id":
			ev.TraceID = a.Value.String()
		default:
			rest = appendAttr(rest, a)
		}
	}
	if rest != nil {
		ev.Msg = msg + string(rest)
	}
	ev.Seq = f.seq.Add(1) - 1
	s := &f.slots[ev.Seq%uint64(len(f.slots))]
	s.mu.Lock()
	if !s.ok || ev.Seq > s.ev.Seq {
		s.ev = ev
		s.ok = true
	}
	s.mu.Unlock()
}

// Recorded is the total number of events ever recorded (not the ring
// occupancy); 0 on a nil recorder.
func (f *FlightRecorder) Recorded() uint64 {
	if f == nil {
		return 0
	}
	return f.seq.Load()
}

// Cap is the ring capacity; 0 on a nil recorder.
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.slots)
}

// Snapshot copies the buffered events, oldest first. Nil-safe (nil
// result).
func (f *FlightRecorder) Snapshot() []FlightEvent {
	if f == nil {
		return nil
	}
	evs := make([]FlightEvent, 0, len(f.slots))
	for i := range f.slots {
		s := &f.slots[i]
		s.mu.Lock()
		if s.ok {
			evs = append(evs, s.ev)
		}
		s.mu.Unlock()
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	return evs
}

// flightDump is the JSON shape of a flight-recorder dump.
type flightDump struct {
	Capacity int           `json:"capacity"`
	Recorded uint64        `json:"recorded"`
	Dropped  uint64        `json:"dropped"` // overwritten by wraparound
	Events   []FlightEvent `json:"events"`
}

// WriteJSON dumps the ring as indented JSON (the /debug/flight payload).
// Nil-safe: a disabled recorder dumps an empty ring.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	evs := f.Snapshot()
	if evs == nil {
		evs = []FlightEvent{}
	}
	d := flightDump{Capacity: f.Cap(), Recorded: f.Recorded(), Events: evs}
	d.Dropped = d.Recorded - uint64(len(evs))
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// DumpToLog writes every buffered event to the log output (stderr by
// default), oldest first — the automatic dump taken when a request is
// abandoned, so the events leading up to the failure land next to the
// failure itself. The dump bypasses the ring, so it never re-enters it.
// Nil-safe.
func (f *FlightRecorder) DumpToLog(reason string) {
	if f == nil {
		return
	}
	evs := f.Snapshot()
	now := time.Now()
	writeLine(now, slog.LevelInfo, "flight-recorder dump", []slog.Attr{
		slog.String("reason", reason), slog.Int("events", len(evs)), slog.Uint64("recorded", f.Recorded())})
	for _, ev := range evs {
		writeLine(now, slog.LevelInfo, "flight", []slog.Attr{
			slog.Uint64("seq", ev.Seq), slog.String("at", ev.Time.UTC().Format(time.RFC3339Nano)),
			slog.String("kind", ev.Kind), slog.String("trace_id", ev.TraceID), slog.String("msg", ev.Msg)})
	}
}

var defaultFlight atomic.Pointer[FlightRecorder]

// Flight returns the installed process-wide flight recorder, or nil when
// none is installed. All FlightRecorder methods are nil-safe, so callers
// chain without checking: obs.Flight().WriteJSON(w).
func Flight() *FlightRecorder { return defaultFlight.Load() }

// SetFlight installs (or, with nil, removes) the process-wide recorder.
func SetFlight(f *FlightRecorder) { defaultFlight.Store(f) }

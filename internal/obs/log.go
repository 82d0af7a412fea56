package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Every program event is one log/slog call that carries a "kind"
// attribute, plus "trace_id" when it belongs to a request:
//
//	slog.Info("cpu rescue", "kind", "escalation", "trace_id", tid, "pairs", n)
//
// obs installs slog's default handler, which hands each record to two
// sinks:
//
//   - the log output (stderr by default, so it never mixes with result
//     data on stdout) at Info, and at Debug too once SetVerbosity(1)
//     (the -v flag) is set. The default rendering is human-oriented text
//     ("tag: message key=value ..."); SetLogJSON(true) switches every
//     line to slog's JSON handler —
//
//     {"ts":"2026-08-08T12:00:00.000000001Z","level":"info","msg":"slow request",
//     "component":"alignd","kind":"slow","trace_id":"t-123",...}
//
//     — one object per line, so a serving deployment can ship logs
//     straight into a structured pipeline and join them on trace_id;
//   - the installed flight recorder (SetFlight), which keeps the last N
//     records of every level.
//
// Logf and Debugf remain the printf form for status lines. All output
// state (sink, prefix, format, scratch buffer) is read and written under
// one mutex, so concurrent events and the setters are race-clean and
// lines never interleave.

var (
	logMu     sync.Mutex
	logOut    io.Writer = os.Stderr
	logPrefix string
	logJSON   bool
	logBuf    []byte // per-line scratch, reused under logMu
	verbosity atomic.Int32
)

func init() { slog.SetDefault(slog.New(teeHandler{})) }

// SetLogOutput redirects log output (default os.Stderr).
func SetLogOutput(w io.Writer) {
	logMu.Lock()
	logOut = w
	logMu.Unlock()
}

// SetLogPrefix sets the program tag prepended to every text line
// ("tag: ...") and carried as the "component" field of JSON lines.
func SetLogPrefix(prefix string) {
	logMu.Lock()
	logPrefix = prefix
	logMu.Unlock()
}

// SetLogJSON switches between the default text rendering and one JSON
// object per line (the structured mode serving deployments ingest).
func SetLogJSON(on bool) {
	logMu.Lock()
	logJSON = on
	logMu.Unlock()
}

// SetVerbosity sets the output level: 0 writes Info and above, >=1 adds
// Debug. The flight recorder keeps every level either way.
func SetVerbosity(v int) { verbosity.Store(int32(v)) }

// Logf logs one Info status line.
func Logf(format string, args ...any) { slog.Info(fmt.Sprintf(format, args...)) }

// Debugf logs one Debug diagnostic line.
func Debugf(format string, args ...any) { slog.Debug(fmt.Sprintf(format, args...)) }

// teeHandler is slog's default handler: it hands every record to the
// flight recorder and, at the output's level, to the log output.
type teeHandler struct {
	attrs []slog.Attr // from WithAttrs, keys already group-qualified
	group string      // WithGroup qualifier for the record's own keys
}

func (h teeHandler) Enabled(_ context.Context, l slog.Level) bool {
	return l >= slog.LevelInfo || verbosity.Load() >= 1 || Flight() != nil
}

func (h teeHandler) Handle(_ context.Context, r slog.Record) error {
	attrs := make([]slog.Attr, 0, len(h.attrs)+r.NumAttrs())
	attrs = append(attrs, h.attrs...)
	r.Attrs(func(a slog.Attr) bool {
		a.Key = h.group + a.Key
		attrs = append(attrs, a)
		return true
	})
	Flight().record(r.Time, r.Message, attrs)
	if r.Level >= slog.LevelInfo || verbosity.Load() >= 1 {
		writeLine(r.Time, r.Level, r.Message, attrs)
	}
	return nil
}

func (h teeHandler) WithAttrs(as []slog.Attr) slog.Handler {
	h.attrs = append([]slog.Attr(nil), h.attrs...)
	for _, a := range as {
		a.Key = h.group + a.Key
		h.attrs = append(h.attrs, a)
	}
	return h
}

func (h teeHandler) WithGroup(name string) slog.Handler {
	if name != "" {
		h.group += name + "."
	}
	return h
}

// writeLine renders one record to the log output only. The whole render
// happens under logMu so sink, prefix and format are read consistently
// and concurrent lines never interleave.
func writeLine(t time.Time, level slog.Level, msg string, attrs []slog.Attr) {
	logMu.Lock()
	defer logMu.Unlock()
	if logJSON {
		r := slog.NewRecord(t, level, msg, 0)
		if logPrefix != "" {
			r.AddAttrs(slog.String("component", logPrefix))
		}
		r.AddAttrs(attrs...)
		slog.NewJSONHandler(logOut, &jsonOptions).Handle(context.Background(), r)
		return
	}
	logBuf = logBuf[:0]
	if logPrefix != "" {
		logBuf = append(logBuf, logPrefix...)
		logBuf = append(logBuf, ": "...)
	}
	logBuf = append(logBuf, msg...)
	for _, a := range attrs {
		logBuf = appendAttr(logBuf, a)
	}
	logBuf = append(logBuf, '\n')
	logOut.Write(logBuf)
}

// appendAttr appends " key=value". A value holding a space, tab,
// newline, quote or '=' is quoted, so every line splits back into its
// fields.
func appendAttr(b []byte, a slog.Attr) []byte {
	b = append(append(append(b, ' '), a.Key...), '=')
	v := a.Value.Resolve().String()
	if strings.ContainsAny(v, " \t\n\"=") {
		return strconv.AppendQuote(b, v)
	}
	return append(b, v...)
}

// jsonOptions shape slog's JSON lines: "ts" in UTC RFC3339Nano, a
// lowercase level, durations as strings ("3ms") and NaN/Inf, which have
// no JSON literal, as strings.
var jsonOptions = slog.HandlerOptions{
	Level: slog.LevelDebug, // teeHandler has already filtered
	ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
		if len(groups) == 0 {
			switch a.Key {
			case slog.TimeKey:
				return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
			case slog.LevelKey:
				return slog.String(slog.LevelKey, strings.ToLower(a.Value.String()))
			}
		}
		switch a.Value.Kind() {
		case slog.KindDuration:
			a.Value = slog.StringValue(a.Value.Duration().String())
		case slog.KindFloat64:
			if f := a.Value.Float64(); math.IsNaN(f) || math.IsInf(f, 0) {
				a.Value = slog.StringValue(strconv.FormatFloat(f, 'g', -1, 64))
			}
		}
		return a
	},
}

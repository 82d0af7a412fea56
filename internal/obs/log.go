package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The leveled logger replaces the commands' scattered
// fmt.Fprintf(os.Stderr, ...) status lines: Logf is always-on progress
// output, Debugf only prints once SetVerbosity(1) (the -v flag) is set.
// Output defaults to stderr so it never mixes with result data on stdout.
//
// Two renderings share the same call sites. The default is the original
// human-oriented text ("tag: message key=value ..."); SetLogJSON(true)
// switches every line to a slog-style JSON object —
//
//	{"ts":"2026-08-08T12:00:00.000000001Z","level":"info",
//	 "component":"alignd","msg":"slow request","trace_id":"t-123",...}
//
// — one object per line, fields in call order after the fixed header, so
// a serving deployment can ship logs straight into a structured pipeline
// and join them on trace_id. Info carries explicit key/value fields;
// Logf/Debugf keep their printf contract and render with just the fixed
// header. All logger state (sink, prefix, format, scratch buffer) is read
// and written under one mutex, so concurrent loggers, SetLogOutput and
// SetLogJSON are race-clean and lines never interleave.

var (
	logMu     sync.Mutex
	logOut    io.Writer = os.Stderr
	logPrefix string
	logJSON   bool
	logBuf    []byte // per-line scratch, reused under logMu
	verbosity atomic.Int32
)

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

// SetVerbosity sets the log level: 0 shows Logf only, >=1 adds Debugf.
func SetVerbosity(v int) { verbosity.Store(int32(v)) }

// Logf prints one status line (level 0, always shown).
func Logf(format string, args ...any) { emit("info", fmt.Sprintf(format, args...), nil) }

// Debugf prints one diagnostic line, only at verbosity >= 1.
func Debugf(format string, args ...any) {
	if verbosity.Load() < 1 {
		return
	}
	emit("debug", fmt.Sprintf(format, args...), nil)
}

// Info prints one status line with structured key/value fields
// (alternating key, value, key, value ...). In text mode the fields
// render as trailing key=value columns; in JSON mode each becomes an
// object member after the fixed header.
func Info(msg string, kv ...any) { emit("info", msg, kv) }

// emit renders and writes one line. The whole render happens under logMu
// so sink, prefix and format are read consistently and concurrent lines
// never interleave.
func emit(level, msg string, kv []any) {
	logMu.Lock()
	defer logMu.Unlock()
	logBuf = logBuf[:0]
	if logJSON {
		logBuf = appendJSONLine(logBuf, level, logPrefix, msg, kv)
	} else {
		logBuf = appendTextLine(logBuf, logPrefix, msg, kv)
	}
	logBuf = append(logBuf, '\n')
	logOut.Write(logBuf)
}

func appendTextLine(b []byte, prefix, msg string, kv []any) []byte {
	if prefix != "" {
		b = append(b, prefix...)
		b = append(b, ": "...)
	}
	b = append(b, msg...)
	for i := 0; i+1 < len(kv); i += 2 {
		b = append(b, ' ')
		b = append(b, fieldKey(kv[i], i)...)
		b = append(b, '=')
		b = appendTextValue(b, kv[i+1])
	}
	if len(kv)%2 == 1 {
		b = append(b, " !BADKV="...)
		b = appendTextValue(b, kv[len(kv)-1])
	}
	return b
}

func appendTextValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		if strings.ContainsAny(x, " \t\n\"=") {
			return strconv.AppendQuote(b, x)
		}
		return append(b, x...)
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case uint64:
		return strconv.AppendUint(b, x, 10)
	case float64:
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case bool:
		return strconv.AppendBool(b, x)
	case time.Duration:
		return append(b, x.String()...)
	default:
		return fmt.Appendf(b, "%v", v)
	}
}

func appendJSONLine(b []byte, level, component, msg string, kv []any) []byte {
	b = append(b, `{"ts":`...)
	b = appendJSONString(b, time.Now().UTC().Format(time.RFC3339Nano))
	b = append(b, `,"level":`...)
	b = appendJSONString(b, level)
	if component != "" {
		b = append(b, `,"component":`...)
		b = appendJSONString(b, component)
	}
	b = append(b, `,"msg":`...)
	b = appendJSONString(b, msg)
	for i := 0; i+1 < len(kv); i += 2 {
		b = append(b, ',')
		b = appendJSONString(b, fieldKey(kv[i], i))
		b = append(b, ':')
		b = appendJSONValue(b, kv[i+1])
	}
	if len(kv)%2 == 1 {
		b = append(b, `,"!BADKV":`...)
		b = appendJSONValue(b, kv[len(kv)-1])
	}
	return append(b, '}')
}

// fieldKey coerces one kv key to a usable string; a non-string key is a
// caller bug surfaced in the output rather than dropped.
func fieldKey(k any, i int) string {
	if s, ok := k.(string); ok && s != "" {
		return s
	}
	return "!BADKEY" + strconv.Itoa(i/2)
}

func appendJSONString(b []byte, s string) []byte {
	enc, err := json.Marshal(s)
	if err != nil { // cannot happen for a string; keep the line well-formed
		return append(b, `""`...)
	}
	return append(b, enc...)
}

func appendJSONValue(b []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		return appendJSONString(b, x)
	case int:
		return strconv.AppendInt(b, int64(x), 10)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case uint64:
		return strconv.AppendUint(b, x, 10)
	case bool:
		return strconv.AppendBool(b, x)
	case float64:
		if x != x || x > 1.7e308 || x < -1.7e308 { // NaN/Inf have no JSON literal
			return appendJSONString(b, strconv.FormatFloat(x, 'g', -1, 64))
		}
		return strconv.AppendFloat(b, x, 'g', -1, 64)
	case time.Duration:
		return appendJSONString(b, x.String())
	}
	enc, err := json.Marshal(v)
	if err != nil {
		return appendJSONString(b, fmt.Sprintf("%v", v))
	}
	return append(b, enc...)
}

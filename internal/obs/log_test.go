package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// Info is these tests' shorthand for one slog event at Info.
func Info(msg string, kv ...any) { slog.Info(msg, kv...) }

// resetLogger restores the logger's process-wide state after a test.
func resetLogger() {
	SetLogOutput(os.Stderr)
	SetLogPrefix("")
	SetLogJSON(false)
	SetVerbosity(0)
}

func captureLog(t *testing.T, json bool, fn func()) string {
	t.Helper()
	var buf bytes.Buffer
	SetLogOutput(&buf)
	SetLogPrefix("test")
	SetLogJSON(json)
	defer resetLogger()
	fn()
	return buf.String()
}

func TestLogJSONSchema(t *testing.T) {
	out := captureLog(t, true, func() {
		Info("slow request", "trace_id", "t-123", "pairs", 40,
			"elapsed_sec", 0.25, "ok", true, "wait", 3*time.Millisecond)
	})
	var line map[string]any
	if err := json.Unmarshal([]byte(out), &line); err != nil {
		t.Fatalf("JSON mode emitted an unparsable line: %v\n%s", err, out)
	}
	if line["level"] != "info" || line["component"] != "test" || line["msg"] != "slow request" {
		t.Fatalf("fixed header wrong: %v", line)
	}
	if _, err := time.Parse(time.RFC3339Nano, line["ts"].(string)); err != nil {
		t.Fatalf("ts is not RFC3339Nano: %v", err)
	}
	if line["trace_id"] != "t-123" || line["pairs"] != float64(40) ||
		line["elapsed_sec"] != 0.25 || line["ok"] != true || line["wait"] != "3ms" {
		t.Fatalf("kv fields wrong: %v", line)
	}
}

func TestLogJSONBadFields(t *testing.T) {
	// Caller bugs surface in the output rather than breaking the line: a
	// value with no key becomes slog's !BADKEY, and NaN (no JSON literal)
	// is stringified.
	out := captureLog(t, true, func() {
		Info("oops", "nan", math.NaN(), 42)
	})
	var line map[string]any
	if err := json.Unmarshal([]byte(out), &line); err != nil {
		t.Fatalf("bad fields broke the JSON line: %v\n%s", err, out)
	}
	if line["nan"] != "NaN" || line["!BADKEY"] != float64(42) {
		t.Fatalf("bad-field handling wrong: %v", line)
	}
}

func TestLogTextMode(t *testing.T) {
	out := captureLog(t, false, func() {
		Info("cpu rescue", "pairs", 3, "note", "two words")
		Logf("plain %d", 7)
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out)
	}
	if lines[0] != `test: cpu rescue pairs=3 note="two words"` {
		t.Fatalf("text rendering = %q", lines[0])
	}
	if lines[1] != "test: plain 7" {
		t.Fatalf("Logf rendering = %q", lines[1])
	}
}

// TestLogConcurrencyRaceClean drives every logger entry point and every
// setter from concurrent goroutines; the -race run of the suite is the
// assertion (the original logger read logOut and logPrefix without the
// mutex on one path).
func TestLogConcurrencyRaceClean(t *testing.T) {
	SetLogOutput(io.Discard)
	defer resetLogger()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch g % 4 {
				case 0:
					Logf("line %d", i)
				case 1:
					Info("event", "i", i, "trace_id", "t-race")
				case 2:
					SetLogJSON(i%2 == 0)
				case 3:
					SetLogPrefix("g3")
				}
			}
		}(g)
	}
	wg.Wait()
}

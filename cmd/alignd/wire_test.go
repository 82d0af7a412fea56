package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pimnw/internal/admission"
	"pimnw/internal/cache"
)

// ndjsonBody renders pairs one per line, the way bench/ and most clients
// send them.
func ndjsonBody(wires []wirePair) string {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, w := range wires {
		enc.Encode(w)
	}
	return b.String()
}

// serveAlign runs one request through handleAlign and splits the answer
// into its NDJSON lines.
func serveAlign(sv *server, body string) (int, []wireResult) {
	rec := httptest.NewRecorder()
	sv.handleAlign(rec, httptest.NewRequest(http.MethodPost, "/align", strings.NewReader(body)))
	var lines []wireResult
	if rec.Code != http.StatusOK {
		return rec.Code, nil
	}
	dec := json.NewDecoder(rec.Body)
	for {
		var r wireResult
		if err := dec.Decode(&r); err != nil {
			break
		}
		lines = append(lines, r)
	}
	return rec.Code, lines
}

// TestAlignMalformedBodies pins what a bad body gets: a bad first pair is
// a 400 before any session starts; a bad later pair ends a 200 stream
// with the earlier pairs' results and one trailing error line. Bodies the
// JSON grammar allows (unknown keys, escapes, mixed case) are served.
func TestAlignMalformedBodies(t *testing.T) {
	sv := newTestServer(t, testSessionConfig(t), 2)
	_, wires := testWorkload(t, 3)
	good := ndjsonBody(wires[:2])
	pair := func(rest string) string { return `{"id":2,` + rest + "}\n" }
	okB := `"b":"` + wires[2].B + `"`

	for _, tc := range []struct {
		name, bad string
		wantErr   string // exact trailer text; "" accepts any non-empty error
	}{
		{"invalid base", pair(`"a":"ACGXT",` + okB), "pair 2, sequence a: seq: invalid character 'X' at position 3"},
		{"N without an RNG", pair(okB + `,"a":"ACGNT"`), "pair 2, sequence a: seq: ambiguous base N at position 3 and no RNG to resolve it"},
		{"bad base in b", pair(`"a":"ACGT","b":"AC-GT"`), "pair 2, sequence b: seq: invalid character '-' at position 2"},
		{"truncated JSON", `{"id":2,"a":"ACG`, ""},
		{"string id", `{"id":"3","a":"ACGT",` + okB + "}\n", ""},
		{"fractional id", `{"id":1.5,"a":"ACGT",` + okB + "}\n", ""},
		{"exponent id", `{"id":1e2,"a":"ACGT",` + okB + "}\n", ""},
		{"array element", `[1]` + "\n", ""},
		{"bare string", `"ACGT"` + "\n", ""},
	} {
		t.Run("first pair/"+tc.name, func(t *testing.T) {
			if code, _ := serveAlign(sv, tc.bad); code != http.StatusBadRequest {
				t.Fatalf("bad first pair = %d, want 400", code)
			}
			if code, _ := serveAlign(sv, "["+strings.TrimSpace(tc.bad)+"]"); code != http.StatusBadRequest {
				t.Fatalf("bad first pair in an array = %d, want 400", code)
			}
		})
		t.Run("later pair/"+tc.name, func(t *testing.T) {
			code, lines := serveAlign(sv, good+tc.bad)
			if code != http.StatusOK {
				t.Fatalf("bad later pair = %d, want 200 and a trailer", code)
			}
			if len(lines) != 3 {
				t.Fatalf("%d lines, want 2 results and an error trailer: %+v", len(lines), lines)
			}
			for i, r := range lines[:2] {
				if r.ID != i || r.Err != "" || r.Status == "" {
					t.Fatalf("line %d = %+v, want the result of pair %d", i, r, i)
				}
			}
			last := lines[2]
			if last.Err == "" || (tc.wantErr != "" && last.Err != tc.wantErr) {
				t.Fatalf("trailer error %q, want %q", last.Err, tc.wantErr)
			}
		})
	}

	// What encoding/json accepts is served as if written plainly.
	_, plain := serveAlign(sv, `{"id":7,"a":"ACGTTGCA","b":"ACGTAGCA"}`)
	for _, body := range []string{
		`{"id":7,"x":{"y":[1,-2.5e3,{"z":null}],"w":"\"}"},"a":"ACGTTGCA","b":"ACGTAGCA","zz":true}`,
		`{"b":"ACGTAGCA","a":"ACGTTGCA","id":7}`,
		`{"ID":7,"A":"acgtTgCa","B":"ACGTagca"}`,
		`[ {"id":7,"a":"TTTT","a":"ACGTTGCA","b":"ACGTAGCA","b":null} ]`,
	} {
		code, got := serveAlign(sv, body)
		if code != http.StatusOK || len(got) != 1 || got[0].Err != "" {
			t.Fatalf("%s = %d %+v, want one result", body, code, got)
		}
		got[0].TraceID = plain[0].TraceID
		if !reflect.DeepEqual(got[0], plain[0]) {
			t.Fatalf("%s = %+v, want %+v", body, got[0], plain[0])
		}
	}
}

// TestServerStreamsFirstLineWhileBodyOpen: the first result line must
// reach the client while the request body is still open; holding every
// flush to the end of the body would hang here.
func TestServerStreamsFirstLineWhileBodyOpen(t *testing.T) {
	ts := httptest.NewServer(newTestServer(t, testSessionConfig(t), 1).mux())
	defer ts.Close()
	_, wires := testWorkload(t, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/align", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	go pw.Write([]byte(ndjsonBody(wires[:1])))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("no first line while the body is open: %v", err)
	}
	var first wireResult
	if err := json.Unmarshal([]byte(line), &first); err != nil || first.ID != 0 || first.Err != "" {
		t.Fatalf("first line %q (%v), want pair 0's result", line, err)
	}

	pw.Write([]byte(ndjsonBody(wires[1:])))
	pw.Close()
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	var second wireResult
	if err := json.Unmarshal(rest, &second); err != nil || second.ID != 1 || second.Err != "" {
		t.Fatalf("rest %q (%v), want pair 1's result alone", rest, err)
	}
}

// TestServerWireGolden pins the response bytes — headers the client acts
// on and every NDJSON line — for a computed request, its cached replay, a
// shed-degraded request and a stream ending in an error trailer. The
// trace ID carries HTML-special characters, which the encoder escapes.
func TestServerWireGolden(t *testing.T) {
	c, err := cache.Open(cache.Options{Dir: t.TempDir(), Fsync: cache.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	scfg := testSessionConfig(t)
	scfg.Cache = c
	sv := newTestServer(t, scfg, 2)
	ts := httptest.NewServer(sv.mux())
	defer ts.Close()
	_, wires := testWorkload(t, 10)
	arrayBody, _ := json.Marshal(wires[:4])
	bad := ndjsonBody(wires[6:9]) + `{"id":9,"a":"ACGT","b":"ACXGT"}` + "\n"

	var got bytes.Buffer
	serve := func(name string, body []byte) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/align", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Trace-Id", "golden-<&>-"+name)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		fmt.Fprintf(&got, "### %s %d\n", name, resp.StatusCode)
		for _, h := range []string{"Content-Type", "X-Trace-Id", "X-Shed-Level", "X-Degraded"} {
			fmt.Fprintf(&got, "%s: %s\n", h, resp.Header.Get(h))
		}
		if _, err := io.Copy(&got, resp.Body); err != nil {
			t.Fatal(err)
		}
	}
	serve("computed", arrayBody)
	serve("cached", arrayBody)
	if err := sv.pressure.SetOverride(admission.ShedScoreOnly); err != nil {
		t.Fatal(err)
	}
	serve("degraded", []byte(ndjsonBody(wires[4:6])))
	sv.pressure.ClearOverride()
	serve("error-trailer", []byte(bad))

	path := filepath.Join("testdata", "wire.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("wire bytes differ from %s (rerun with -update only for an intended change):\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}

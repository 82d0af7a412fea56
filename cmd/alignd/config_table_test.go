package main

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pimnw/internal/admission/config"
)

var update = flag.Bool("update", false, "rewrite the goldens under cmd/alignd/testdata from the current code")

// TestFlagSetGolden pins alignd's flag surface — every flag's name and
// default — against the set captured before the flags were generated
// from the config key table.
func TestFlagSetGolden(t *testing.T) {
	fs := flag.NewFlagSet("alignd", flag.ContinueOnError)
	bindFlags(fs)
	var lines []string
	fs.VisitAll(func(f *flag.Flag) { lines = append(lines, f.Name+"\t"+f.DefValue+"\n") })
	sort.Strings(lines)
	got := []byte(strings.Join(lines, ""))

	path := filepath.Join("testdata", "flags.txt")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("alignd's flag set changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// otherValue returns a valid config that differs from cur in key k only.
func otherValue(t *testing.T, k config.Key, cur *config.Config) *config.Config {
	t.Helper()
	for _, text := range []string{"true", "false", "64", "never", "pim:2,cpu:4", "0.25", "0.75", "42", "90s"} {
		next := *cur
		if k.Set(&next, text) == nil && next.Validate() == nil && k.Format(&next) != k.Format(cur) {
			return &next
		}
	}
	t.Fatalf("%s: no candidate value is valid and different from %s", k, k.Format(cur))
	return nil
}

// reloadEveryKey walks the key table (one section of it, or all of it
// when section is "") against a live server: changing any one static key
// is refused with 400 naming that key and leaves the live config
// untouched; changing any one dynamic key is accepted and shows in
// GET /admin/config.
func reloadEveryKey(t *testing.T, sv *server, ts *httptest.Server, section string) {
	t.Helper()
	canonical := func(c *config.Config) string {
		var b bytes.Buffer
		c.WriteTo(&b)
		return b.String()
	}
	reload := func(c *config.Config) (int, string) {
		resp := post(t, ts.URL+"/admin/config", []byte(canonical(c)), nil)
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	live := func() string {
		resp, err := http.Get(ts.URL + "/admin/config")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	// Bursts of at least one, so that every rate has a valid other value.
	base := *sv.cfg.Load()
	base.Limits.GlobalBurst, base.Limits.ClientBurst, base.Limits.IPBurst = 10, 10, 10
	if code, msg := reload(&base); code != http.StatusOK {
		t.Fatalf("base reload = %d: %s", code, msg)
	}
	for _, k := range config.Keys() {
		if section != "" && k.Section != section {
			continue
		}
		cur := sv.cfg.Load()
		next := otherValue(t, k, cur)
		code, msg := reload(next)
		if k.Static {
			if code != http.StatusBadRequest || !strings.Contains(msg, k.String()) {
				t.Errorf("%s → %s: reload = %d %q, want 400 naming the key", k, k.Format(next), code, msg)
			}
			if got := live(); got != canonical(cur) {
				t.Errorf("%s: a refused reload changed the live config:\n%s", k, got)
			}
			continue
		}
		if code != http.StatusOK {
			t.Errorf("%s → %s: reload = %d %q, want 200", k, k.Format(next), code, msg)
		}
		if got, want := live(), canonical(next); got != want {
			t.Errorf("%s: live config after reload:\n%s\nwant:\n%s", k, got, want)
		}
	}
}

package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"pimnw/internal/admission/config"
	"pimnw/internal/cache"
	"pimnw/internal/obs"
)

// TestServerCachedReplay: the same body served twice by a cache-enabled
// server must answer identically, with every replayed line carrying the
// cached marker and the original status/provenance.
func TestServerCachedReplay(t *testing.T) {
	obs.SetDefault(obs.NewRegistry())
	c, err := cache.Open(cache.Options{Dir: t.TempDir(), Fsync: cache.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	scfg := testSessionConfig(t)
	scfg.Cache = c
	ts := httptest.NewServer(newTestServer(t, scfg, 2).mux())
	defer ts.Close()

	_, wires := testWorkload(t, 12)
	var body bytes.Buffer
	body.WriteByte('[')
	for i, w := range wires {
		if i > 0 {
			body.WriteByte(',')
		}
		body.WriteString(`{"id":` + strconv.Itoa(w.ID) + `,"a":"` + w.A + `","b":"` + w.B + `"}`)
	}
	body.WriteByte(']')

	first := postAlign(t, ts, body.Bytes(), "application/json")
	second := postAlign(t, ts, body.Bytes(), "application/json")
	if len(first) != len(wires) || len(second) != len(wires) {
		t.Fatalf("%d then %d results for %d pairs", len(first), len(second), len(wires))
	}
	for i := range first {
		f, s := first[i], second[i]
		if f.Cached {
			t.Errorf("pair %d marked cached on first serving", f.ID)
		}
		if !s.Cached {
			t.Errorf("pair %d not marked cached on replay (status %s)", s.ID, s.Status)
		}
		if f.Score != s.Score || f.Cigar != s.Cigar || f.Status != s.Status ||
			f.Provenance != s.Provenance || f.Trusted != s.Trusted {
			t.Errorf("pair %d replay diverged:\n first %+v\nsecond %+v", f.ID, f, s)
		}
	}
}

// TestAdminCacheReload: the cache placement/durability fields are static
// (refused with 400 naming the section); the size limits hot-reload.
func TestAdminCacheReload(t *testing.T) {
	obs.SetDefault(obs.NewRegistry())
	c, err := cache.Open(cache.Options{Dir: t.TempDir(), Fsync: cache.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	scfg := testSessionConfig(t)
	scfg.Cache = c
	sv := newTestServer(t, scfg, 4)
	ts := httptest.NewServer(sv.mux())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/admin/config")
	if err != nil {
		t.Fatal(err)
	}
	live, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	parsed, err := config.Parse(live)
	if err != nil {
		t.Fatalf("live config does not re-parse: %v\n%s", err, live)
	}

	// Static change: a new fsync policy is refused and names the section.
	bad := *parsed
	bad.Cache.Fsync = "never"
	var buf bytes.Buffer
	bad.WriteTo(&buf)
	resp = post(t, ts.URL+"/admin/config", buf.Bytes(), nil)
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cache static reload = %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(msg), "cache") {
		t.Errorf("400 body %q does not name the cache section", msg)
	}

	// Dynamic change: size limits apply.
	next := *parsed
	next.Cache.MaxEntries = 123456
	next.Cache.HotEntries = 77
	buf.Reset()
	next.WriteTo(&buf)
	resp = post(t, ts.URL+"/admin/config", buf.Bytes(), nil)
	msg, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache limits reload = %d: %s", resp.StatusCode, msg)
	}
	if got := sv.cfg.Load().Cache.MaxEntries; got != 123456 {
		t.Fatalf("live max_entries after reload = %d, want 123456", got)
	}

	// The whole cache section with a cache attached: each placement or
	// durability key refused by name, each size limit applied.
	reloadEveryKey(t, sv, ts, "cache")
}

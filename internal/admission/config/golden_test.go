package config

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false,
	"rewrite internal/admission/config/testdata/canonical_*.yaml from the current code")

// customConfig differs from Default in one key of every value type; the
// string carries everything the quoting has to survive.
func customConfig() *Config {
	c := Default()
	c.Server.AdminToken = `sec "ret" # with\evils`
	c.Server.LogJSON = true
	c.Align.FaultSeed = -9000000000
	c.Session.Linger = 1500 * time.Microsecond
	c.Limits.GlobalQPS = 1.25e-7
	c.Queues.Slots = 9
	return c
}

// TestCanonicalGolden pins WriteTo byte-for-byte against files captured
// from the hand-written emitter the key table replaced.
func TestCanonicalGolden(t *testing.T) {
	for name, c := range map[string]*Config{
		"canonical_default.yaml": Default(),
		"canonical_custom.yaml":  customConfig(),
	} {
		var got bytes.Buffer
		if _, err := c.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: canonical form changed:\n got:\n%s\nwant:\n%s", name, got.Bytes(), want)
		}
	}
}

package config

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestDefaultIsValid(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("Default() fails its own validation: %v", err)
	}
	if c.Queues.Slots != 4 {
		t.Errorf("default queues.slots = %d, want the former -max-requests default 4", c.Queues.Slots)
	}
	if c.Limits.GlobalQPS != 0 || c.Limits.ClientQPS != 0 || c.Limits.IPQPS != 0 {
		t.Error("rate limiting must default to disabled (all tier QPS zero)")
	}
	if c.Server.DrainWait <= 0 {
		t.Error("default drain_wait must give load balancers a draining window")
	}
}

func TestParseAppliesOnTopOfDefaults(t *testing.T) {
	c, err := Parse([]byte(`
# admission config
server:
  addr: "0.0.0.0:9000"
  drain_wait: 2s
  client_header: "X-Tenant"   # tenant key
limits:
  global_qps: 500.5
  global_burst: 100
  ip_qps: 25
  ip_burst: 5
  max_ip_entries: 1024
queues:
  slots: 2
  bulk: 8
shed:
  sample_interval: 20ms
  raise_after: 2
`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Server.Addr != "0.0.0.0:9000" || c.Server.DrainWait != 2*time.Second {
		t.Errorf("server section not applied: %+v", c.Server)
	}
	if c.Server.ClientHeader != "X-Tenant" {
		t.Errorf("quoted value with trailing comment parsed as %q", c.Server.ClientHeader)
	}
	if c.Limits.GlobalQPS != 500.5 || c.Limits.IPQPS != 25 || c.Limits.MaxIPEntries != 1024 {
		t.Errorf("limits section not applied: %+v", c.Limits)
	}
	if c.Queues.Slots != 2 || c.Queues.Bulk != 8 {
		t.Errorf("queues section not applied: %+v", c.Queues)
	}
	if c.Shed.SampleInterval != 20*time.Millisecond || c.Shed.RaiseAfter != 2 {
		t.Errorf("shed section not applied: %+v", c.Shed)
	}
	// Untouched keys keep their defaults.
	if c.Align.Band != 128 || c.Queues.Interactive != 16 {
		t.Errorf("defaults disturbed: band %d, interactive %d", c.Align.Band, c.Queues.Interactive)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseRejects(t *testing.T) {
	for name, body := range map[string]string{
		"unknown section":     "nonsense:\n  a: 1\n",
		"unknown key":         "limits:\n  global_rps: 5\n",
		"entry before header": "  global_qps: 5\n",
		"bad integer":         "queues:\n  slots: many\n",
		"bad bool":            "align:\n  verify: yes\n",
		"bad duration":        "shed:\n  sample_interval: fast\n",
		"empty value":         "limits:\n  global_qps:\n",
		"unterminated quote":  "server:\n  addr: \"127.0.0.1\n",
		"quote then junk":     "server:\n  addr: \"x\" y\n",
		"bare junk line":      "limits\n",
		"key given twice":     "queues:\n  slots: 1\n  slots: 64\n",
		"section given twice": "queues:\n  slots: 1\nshed:\n  raise_after: 2\nqueues:\n  bulk: 3\n",
	} {
		if _, err := Parse([]byte(body)); err == nil {
			t.Errorf("%s: Parse accepted %q", name, body)
		}
	}
	// The messages carry the offending line, and for a repeat both lines.
	for body, want := range map[string]string{
		"limits:\n  global_rps: 5\n":                  "line 2: unknown key limits.global_rps",
		"# c\n\nqueues:\n  slots: many\n":             `line 4: queues.slots: want an integer, got "many"`,
		"queues:\n  slots: 1\n  slots: 64\n":          "line 3: queues.slots already set at line 2",
		"queues:\n  slots: 1\nshed:\nqueues:\n":       `line 4: section "queues" already given at line 1`,
		"server:\n  addr: \"x\" y\n":                  `line 2: server.addr: trailing content "y" after quoted string`,
		"queues:\n  slots: 1\nnonsense:\n  a: 1\n":    `line 3: unknown section "nonsense"`,
		"queues:\n  slots: 1 # one\n  slots: 1 # 2\n": "line 3: queues.slots already set at line 2",
	} {
		if _, err := Parse([]byte(body)); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) = %v, want %q", body, err, want)
		}
	}
}

// TestWriteToRoundTrip pins the canonical-form contract the admin API
// relies on: Parse(WriteTo(c)) == c, byte-for-byte stable.
func TestWriteToRoundTrip(t *testing.T) {
	c := Default()
	c.Server.Addr = "0.0.0.0:0"
	c.Server.AdminToken = `sec "ret" # with\evils`
	c.Align.FaultRate = 0.05
	c.Limits.GlobalQPS = 12345.5
	c.Session.Linger = 3 * time.Millisecond
	c.Shed.HighWater = 0.75

	var a bytes.Buffer
	if _, err := c.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	c2, err := Parse(a.Bytes())
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v\n%s", err, a.String())
	}
	if *c2 != *c {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", *c2, *c)
	}
	var b bytes.Buffer
	c2.WriteTo(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("canonical form is not a fixed point:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestValidateRejects(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"odd band":            func(c *Config) { c.Align.Band = 65 },
		"zero ranks":          func(c *Config) { c.Align.Ranks = 0 },
		"bad lanes":           func(c *Config) { c.Align.Lanes = "32" },
		"fault rate > 1":      func(c *Config) { c.Align.FaultRate = 1.5 },
		"zero slots":          func(c *Config) { c.Queues.Slots = 0 },
		"tiny retry-after":    func(c *Config) { c.Queues.MaxRetryAfter = time.Millisecond },
		"zero sample":         func(c *Config) { c.Shed.SampleInterval = 0 },
		"inverted watermarks": func(c *Config) { c.Shed.LowWater, c.Shed.HighWater = 0.9, 0.5 },
		"burst without qps":   func(c *Config) { c.Limits.GlobalQPS, c.Limits.GlobalBurst = 10, 0 },
		"empty addr":          func(c *Config) { c.Server.Addr = "" },
		"negative linger":     func(c *Config) { c.Session.Linger = -time.Second },
	} {
		c := Default()
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the config", name)
		}
	}
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "align.yaml")
	if err := os.WriteFile(path, []byte("queues:\n  slots: 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Queues.Slots != 7 {
		t.Fatalf("loaded slots = %d, want 7", c.Queues.Slots)
	}
	if _, err := Load(filepath.Join(dir, "missing.yaml")); err == nil {
		t.Fatal("Load must fail on a missing file, not silently default")
	}
	bad := filepath.Join(dir, "bad.yaml")
	os.WriteFile(bad, []byte("queues:\n  slotz: 7\n"), 0o644)
	if _, err := Load(bad); err == nil || !strings.Contains(err.Error(), "bad.yaml") {
		t.Fatalf("Load error %v must name the file", err)
	}
}

// Package config is alignd's validated configuration surface: a small,
// strict YAML subset (two levels — section headers at column zero,
// indented "key: value" entries, '#' comments) chosen so the daemon
// needs no external parser dependency. Every key is known and typed;
// unknown sections or keys are errors, not silent no-ops, so a typo in
// a limits file cannot quietly disable admission control.
//
// WriteTo emits the canonical form of a Config, and Parse(WriteTo(c))
// reproduces c exactly — the admin API leans on this: GET /admin/config
// returns precisely the text POST /admin/config accepts.
package config

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pimnw/internal/admission"
	"pimnw/internal/host"
	"pimnw/internal/kernel"
	"pimnw/internal/obs"
)

// Config is the daemon configuration. Which keys are fixed at startup
// and which may be hot-reloaded through the admin API is recorded per key
// in the key table (keys.go), not per section.
type Config struct {
	Server ServerConfig
	// Align is the alignment engine: the same options pimalign and
	// experiments run on. It also carries the fleet section's one key
	// (Align.Fleet); Align.Workers has no key.
	Align   host.Options
	Session SessionConfig
	Cache   CacheConfig
	Limits  LimitsConfig
	Queues  QueuesConfig
	Shed    ShedConfig
}

// ServerConfig is the HTTP face of the daemon.
type ServerConfig struct {
	// Addr is the listen address (host:port; port 0 picks a free port).
	Addr string
	// DrainWait is how long /healthz advertises draining (503) after
	// SIGTERM before the listener closes — the window load balancers
	// get to route traffic away.
	DrainWait time.Duration
	// SlowRequest logs a stage breakdown for requests at/over this
	// duration (0 = every request, negative = never).
	SlowRequest time.Duration
	// FlightEvents is the flight-recorder ring capacity.
	FlightEvents int
	// LogJSON switches to structured JSON log lines.
	LogJSON bool
	// ClientHeader names the header carrying the per-client key for the
	// client rate-limit tier; requests without it share one anonymous
	// bucket.
	ClientHeader string
	// AdminToken, when set, is required (Authorization: Bearer or
	// X-Admin-Token) on every /admin request.
	AdminToken string
}

// SessionConfig tunes the per-request streaming session (zeros defer
// to the host package's defaults).
type SessionConfig struct {
	BatchPairs    int
	Linger        time.Duration
	QueueLimit    int
	MaxConcurrent int
}

// CacheConfig configures the persistent result cache.
type CacheConfig struct {
	// Dir is the cache directory; empty disables the cache entirely.
	Dir string
	// Fsync is the WAL durability policy: always, interval or never.
	Fsync string
	// FsyncInterval is the background sync period under the interval
	// policy.
	FsyncInterval time.Duration
	// MaxEntries bounds the in-memory index; HotEntries bounds the
	// in-process hot tier.
	MaxEntries int
	HotEntries int
	// CompactInterval enables background WAL compaction when positive.
	CompactInterval time.Duration
}

// LimitsConfig is the rate-limit tier configuration: the admission
// controller's limits plus the period of its idle-entry sweep.
type LimitsConfig struct {
	admission.Limits
	CleanupInterval time.Duration
}

// QueuesConfig sizes the priority admission gate.
type QueuesConfig struct {
	// Slots is how many align requests are served concurrently (the
	// former -max-requests).
	Slots int
	// Interactive/Bulk cap how many requests of each class may wait for
	// a slot; beyond the cap the class gets 429 + computed Retry-After.
	Interactive int
	Bulk        int
	// MaxRetryAfter clamps computed Retry-After values.
	MaxRetryAfter time.Duration
}

// ShedConfig tunes the pressure controller.
type ShedConfig struct {
	// SampleInterval is how often gate load is sampled.
	SampleInterval time.Duration
	admission.PressureConfig
}

// Default is the configuration alignd runs with absent a -config file:
// the pre-admission-control daemon's flag defaults, rate limiting
// disabled, and a conservative shed ladder.
func Default() *Config {
	return &Config{
		Server: ServerConfig{
			Addr:         "127.0.0.1:7433",
			DrainWait:    500 * time.Millisecond,
			SlowRequest:  time.Second,
			FlightEvents: obs.DefaultFlightEvents,
			ClientHeader: "X-Api-Key",
		},
		Align: host.Options{
			Band:       128,
			Ranks:      40,
			Lanes:      "auto",
			FaultSeed:  1,
			MaxRetries: 3,
		},
		Cache: CacheConfig{
			Fsync:           "interval",
			FsyncInterval:   time.Second,
			MaxEntries:      1 << 20,
			HotEntries:      4096,
			CompactInterval: time.Minute,
		},
		Limits: LimitsConfig{
			Limits: admission.Limits{
				MaxClientEntries: 4096,
				MaxIPEntries:     65536,
				IdleTTL:          5 * time.Minute,
			},
			CleanupInterval: time.Minute,
		},
		Queues: QueuesConfig{
			Slots:         4,
			Interactive:   16,
			Bulk:          64,
			MaxRetryAfter: 60 * time.Second,
		},
		Shed: ShedConfig{
			SampleInterval: 100 * time.Millisecond,
			PressureConfig: admission.PressureConfig{
				HighWater:    0.9,
				LowWater:     0.5,
				RaiseAfter:   5,
				ReleaseAfter: 20,
			},
		},
	}
}

// AdmissionLimits is the limits section as the admission controller
// takes it.
func (c *Config) AdmissionLimits() admission.Limits { return c.Limits.Limits }

// PressureConfig is the shed section as the pressure controller takes it.
func (c *Config) PressureConfig() admission.PressureConfig { return c.Shed.PressureConfig }

// Validate checks every field's domain. It is the -check-config gate;
// host/kernel geometry feasibility is validated separately when the
// serving configuration is assembled.
func (c *Config) Validate() error {
	s := &c.Server
	if s.Addr == "" {
		return fmt.Errorf("config: server.addr must not be empty")
	}
	if s.DrainWait < 0 {
		return fmt.Errorf("config: negative server.drain_wait %v", s.DrainWait)
	}
	if s.FlightEvents < 0 {
		return fmt.Errorf("config: negative server.flight_events %d", s.FlightEvents)
	}
	if s.ClientHeader == "" {
		return fmt.Errorf("config: server.client_header must not be empty")
	}
	a := &c.Align
	if a.Band < 2 || a.Band%2 != 0 {
		return fmt.Errorf("config: align.band %d must be even and >= 2", a.Band)
	}
	if a.Ranks < 1 {
		return fmt.Errorf("config: align.ranks %d must be >= 1", a.Ranks)
	}
	if _, err := kernel.ParseLaneWidth(a.Lanes); err != nil {
		return fmt.Errorf("config: align.lanes: %w", err)
	}
	if a.MaxBand < 0 {
		return fmt.Errorf("config: negative align.max_band %d", a.MaxBand)
	}
	if a.FaultRate < 0 || a.FaultRate > 1 || a.FaultRate != a.FaultRate {
		return fmt.Errorf("config: align.fault_rate %v outside [0,1]", a.FaultRate)
	}
	if a.MaxRetries < 0 {
		return fmt.Errorf("config: negative align.max_retries %d", a.MaxRetries)
	}
	if a.BatchDeadlineSec < 0 || a.BatchDeadlineSec != a.BatchDeadlineSec {
		return fmt.Errorf("config: negative align.batch_deadline %v", a.BatchDeadlineSec)
	}
	se := &c.Session
	if se.BatchPairs < 0 || se.QueueLimit < 0 || se.MaxConcurrent < 0 || se.Linger < 0 {
		return fmt.Errorf("config: negative session parameters %+v", *se)
	}
	ca := &c.Cache
	switch ca.Fsync {
	case "always", "interval", "never":
	default:
		return fmt.Errorf("config: cache.fsync %q must be always, interval or never", ca.Fsync)
	}
	if ca.Fsync == "interval" && ca.FsyncInterval <= 0 {
		return fmt.Errorf("config: cache.fsync_interval %v must be positive", ca.FsyncInterval)
	}
	if ca.FsyncInterval < 0 || ca.CompactInterval < 0 {
		return fmt.Errorf("config: negative cache intervals %+v", *ca)
	}
	if ca.MaxEntries < 1 {
		return fmt.Errorf("config: cache.max_entries %d must be >= 1", ca.MaxEntries)
	}
	if ca.HotEntries < 0 {
		return fmt.Errorf("config: negative cache.hot_entries %d", ca.HotEntries)
	}
	if _, err := host.ParseFleet(a.Fleet); err != nil {
		return fmt.Errorf("config: fleet.backends: %w", err)
	}
	if err := c.AdmissionLimits().Validate(); err != nil {
		return fmt.Errorf("config: limits: %w", err)
	}
	if c.Limits.CleanupInterval < 0 {
		return fmt.Errorf("config: negative limits.cleanup_interval %v", c.Limits.CleanupInterval)
	}
	q := &c.Queues
	if q.Slots < 1 {
		return fmt.Errorf("config: queues.slots %d must be >= 1", q.Slots)
	}
	if q.Interactive < 0 || q.Bulk < 0 {
		return fmt.Errorf("config: negative queue caps (interactive %d, bulk %d)", q.Interactive, q.Bulk)
	}
	if q.MaxRetryAfter < time.Second {
		return fmt.Errorf("config: queues.max_retry_after %v must be >= 1s", q.MaxRetryAfter)
	}
	if c.Shed.SampleInterval <= 0 {
		return fmt.Errorf("config: shed.sample_interval %v must be positive", c.Shed.SampleInterval)
	}
	if err := c.PressureConfig().Validate(); err != nil {
		return fmt.Errorf("config: shed: %w", err)
	}
	return nil
}

// Load reads and parses path on top of the defaults. The file must
// exist: a daemon pointed at a missing config starting with silent
// defaults is an operational trap.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	c, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("config: %s: %w", path, err)
	}
	return c, nil
}

// Parse applies the file's entries on top of Default. It is strict:
// unknown sections or keys, malformed values, out-of-section entries and
// a section or key given twice are errors carrying their line number.
func Parse(data []byte) (*Config, error) {
	c := Default()
	section := ""
	seen := map[string]int{} // "section" and "section.key" → line it was given on
	for lineNo, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimRight(raw, " \t\r")
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		indented := line[0] == ' ' || line[0] == '\t'
		if !indented {
			name, ok := strings.CutSuffix(trimmed, ":")
			if !ok || strings.ContainsAny(name, " \t") {
				return nil, fmt.Errorf("line %d: expected a section header like \"limits:\", got %q", lineNo+1, trimmed)
			}
			if _, known := lookup(name, ""); !known {
				return nil, fmt.Errorf("line %d: unknown section %q", lineNo+1, name)
			}
			if first, dup := seen[name]; dup {
				return nil, fmt.Errorf("line %d: section %q already given at line %d", lineNo+1, name, first)
			}
			seen[name] = lineNo + 1
			section = name
			continue
		}
		if section == "" {
			return nil, fmt.Errorf("line %d: entry %q before any section header", lineNo+1, trimmed)
		}
		key, rest, ok := strings.Cut(trimmed, ":")
		key = strings.TrimSpace(key)
		if !ok || key == "" {
			return nil, fmt.Errorf("line %d: expected \"key: value\", got %q", lineNo+1, trimmed)
		}
		val, err := parseValue(rest)
		if err != nil {
			return nil, fmt.Errorf("line %d: %s.%s: %w", lineNo+1, section, key, err)
		}
		k, _ := lookup(section, key)
		if k == nil {
			return nil, fmt.Errorf("line %d: unknown key %s.%s", lineNo+1, section, key)
		}
		if first, dup := seen[k.String()]; dup {
			return nil, fmt.Errorf("line %d: %s already set at line %d", lineNo+1, k, first)
		}
		seen[k.String()] = lineNo + 1
		if err := k.Set(c, val); err != nil {
			return nil, fmt.Errorf("line %d: %s: %w", lineNo+1, k, err)
		}
	}
	return c, nil
}

// parseValue extracts one scalar: a Go-quoted string (comment allowed
// after the closing quote) or a bare token up to an optional
// whitespace-preceded '#' comment.
func parseValue(rest string) (string, error) {
	v := strings.TrimSpace(rest)
	if strings.HasPrefix(v, `"`) {
		end := -1
		for i := 1; i < len(v); i++ {
			if v[i] == '\\' {
				i++
				continue
			}
			if v[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return "", fmt.Errorf("unterminated quoted string %q", v)
		}
		tail := strings.TrimSpace(v[end+1:])
		if tail != "" && !strings.HasPrefix(tail, "#") {
			return "", fmt.Errorf("trailing content %q after quoted string", tail)
		}
		s, err := strconv.Unquote(v[:end+1])
		if err != nil {
			return "", fmt.Errorf("bad quoted string %q: %w", v[:end+1], err)
		}
		return s, nil
	}
	if i := strings.Index(v, " #"); i >= 0 {
		v = strings.TrimSpace(v[:i])
	} else if i := strings.Index(v, "\t#"); i >= 0 {
		v = strings.TrimSpace(v[:i])
	}
	if v == "" {
		return "", fmt.Errorf("empty value")
	}
	return v, nil
}

package config

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// Key is one row of the configuration surface. The table below is the
// only enumeration of alignd's keys: the file parser, the canonical
// emitter, the flag set, flag-over-file precedence and the reload check
// are all walks over it, so a new key is one struct field plus one row.
type Key struct {
	Section, Name string
	// Flag is the alignd flag that overrides the key when given on the
	// command line; "" for a key only the file can set.
	Flag string
	// Usage is the flag's help text, for the flags BindFlags declares
	// itself (host.Options.Bind brings its own for the shared run flags).
	Usage string
	// Static keys are fixed at startup: a reload that changes one is
	// refused. The others are applied live by POST /admin/config.
	Static bool
	// field addresses the key's value in c, as one of
	// *string *int *int64 *float64 *bool *time.Duration.
	field func(c *Config) any
}

const (
	static  = true
	dynamic = false
)

// keys is in canonical file order; the rows of a section are contiguous.
var keys = []Key{
	{"server", "addr", "addr", "listen address (host:port; port 0 picks a free port)", static, func(c *Config) any { return &c.Server.Addr }},
	{"server", "drain_wait", "drain-wait", "how long /healthz advertises draining (503) after SIGTERM before the listener closes", static, func(c *Config) any { return &c.Server.DrainWait }},
	{"server", "slow_request", "slow-request", "log a stage breakdown for align requests at/over this duration (0 = every request, negative = never)", static, func(c *Config) any { return &c.Server.SlowRequest }},
	{"server", "flight_events", "flight-events", "flight-recorder ring capacity (notable events retained for /debug/flight)", static, func(c *Config) any { return &c.Server.FlightEvents }},
	{"server", "log_json", "log-json", "structured JSON log lines instead of text", static, func(c *Config) any { return &c.Server.LogJSON }},
	{"server", "client_header", "", "", static, func(c *Config) any { return &c.Server.ClientHeader }},
	{"server", "admin_token", "", "", static, func(c *Config) any { return &c.Server.AdminToken }},

	{"align", "band", "band", "band size (cells per anti-diagonal / row)", static, func(c *Config) any { return &c.Align.Band }},
	{"align", "ranks", "ranks", "PiM ranks", static, func(c *Config) any { return &c.Align.Ranks }},
	{"align", "score_only", "score-only", "skip traceback/CIGAR", static, func(c *Config) any { return &c.Align.ScoreOnly }},
	{"align", "lanes", "lanes", "", static, func(c *Config) any { return &c.Align.Lanes }},
	{"align", "escalation", "escalation", "", static, func(c *Config) any { return &c.Align.Escalation }},
	{"align", "max_band", "max-band", "", static, func(c *Config) any { return &c.Align.MaxBand }},
	{"align", "verify", "verify", "", static, func(c *Config) any { return &c.Align.Verify }},
	{"align", "fault_rate", "fault-rate", "", static, func(c *Config) any { return &c.Align.FaultRate }},
	{"align", "fault_seed", "fault-seed", "", static, func(c *Config) any { return &c.Align.FaultSeed }},
	{"align", "max_retries", "max-retries", "", static, func(c *Config) any { return &c.Align.MaxRetries }},
	{"align", "batch_deadline", "batch-deadline", "", static, func(c *Config) any { return &c.Align.BatchDeadlineSec }},

	{"session", "batch_pairs", "batch-pairs", "micro-batch size in pairs (0 = 4 per DPU of a rank)", static, func(c *Config) any { return &c.Session.BatchPairs }},
	{"session", "linger", "linger", "max time a pair may wait for its micro-batch to fill (0 = 2ms)", static, func(c *Config) any { return &c.Session.Linger }},
	{"session", "queue_limit", "queue-limit", "per-request cap on admitted-but-undelivered pairs (0 = 8 micro-batches)", static, func(c *Config) any { return &c.Session.QueueLimit }},
	{"session", "max_concurrent", "max-concurrent", "micro-batches in flight per request (0 = 2)", static, func(c *Config) any { return &c.Session.MaxConcurrent }},

	// Cache placement and durability are static (the WAL handle and the
	// background loops bind at Open); the size limits are live.
	{"cache", "dir", "cache-dir", "directory for the persistent result cache (empty = caching disabled)", static, func(c *Config) any { return &c.Cache.Dir }},
	{"cache", "fsync", "", "", static, func(c *Config) any { return &c.Cache.Fsync }},
	{"cache", "fsync_interval", "", "", static, func(c *Config) any { return &c.Cache.FsyncInterval }},
	{"cache", "max_entries", "", "", dynamic, func(c *Config) any { return &c.Cache.MaxEntries }},
	{"cache", "hot_entries", "", "", dynamic, func(c *Config) any { return &c.Cache.HotEntries }},
	{"cache", "compact_interval", "", "", static, func(c *Config) any { return &c.Cache.CompactInterval }},

	// The fleet is static: backends hold placement state shared across
	// every live session.
	{"fleet", "backends", "fleet", "", static, func(c *Config) any { return &c.Align.Fleet }},

	// The limiter's entry caps and sweep period are fixed at startup; the
	// rates are the live knobs.
	{"limits", "global_qps", "", "", dynamic, func(c *Config) any { return &c.Limits.GlobalQPS }},
	{"limits", "global_burst", "", "", dynamic, func(c *Config) any { return &c.Limits.GlobalBurst }},
	{"limits", "client_qps", "", "", dynamic, func(c *Config) any { return &c.Limits.ClientQPS }},
	{"limits", "client_burst", "", "", dynamic, func(c *Config) any { return &c.Limits.ClientBurst }},
	{"limits", "ip_qps", "", "", dynamic, func(c *Config) any { return &c.Limits.IPQPS }},
	{"limits", "ip_burst", "", "", dynamic, func(c *Config) any { return &c.Limits.IPBurst }},
	{"limits", "max_client_entries", "", "", static, func(c *Config) any { return &c.Limits.MaxClientEntries }},
	{"limits", "max_ip_entries", "", "", static, func(c *Config) any { return &c.Limits.MaxIPEntries }},
	{"limits", "idle_ttl", "", "", dynamic, func(c *Config) any { return &c.Limits.IdleTTL }},
	{"limits", "cleanup_interval", "", "", static, func(c *Config) any { return &c.Limits.CleanupInterval }},

	{"queues", "slots", "max-requests", "align requests served concurrently (queues.slots); beyond this requests queue, then 429", dynamic, func(c *Config) any { return &c.Queues.Slots }},
	{"queues", "interactive", "", "", dynamic, func(c *Config) any { return &c.Queues.Interactive }},
	{"queues", "bulk", "", "", dynamic, func(c *Config) any { return &c.Queues.Bulk }},
	{"queues", "max_retry_after", "", "", dynamic, func(c *Config) any { return &c.Queues.MaxRetryAfter }},

	{"shed", "sample_interval", "", "", static, func(c *Config) any { return &c.Shed.SampleInterval }},
	{"shed", "high_water", "", "", dynamic, func(c *Config) any { return &c.Shed.HighWater }},
	{"shed", "low_water", "", "", dynamic, func(c *Config) any { return &c.Shed.LowWater }},
	{"shed", "raise_after", "", "", dynamic, func(c *Config) any { return &c.Shed.RaiseAfter }},
	{"shed", "release_after", "", "", dynamic, func(c *Config) any { return &c.Shed.ReleaseAfter }},
}

// Keys returns the key table in canonical file order. Callers must not
// modify it.
func Keys() []Key { return keys }

// lookup finds the row for section.name (nil if there is none) and
// reports whether the section exists at all.
func lookup(section, name string) (k *Key, sectionKnown bool) {
	for i := range keys {
		if keys[i].Section == section {
			if keys[i].Name == name {
				return &keys[i], true
			}
			sectionKnown = true
		}
	}
	return nil, sectionKnown
}

// String is the key's dotted name, as error messages and the README's
// key reference spell it.
func (k Key) String() string { return k.Section + "." + k.Name }

// Format is the key's value in c as the canonical file form writes it.
func (k Key) Format(c *Config) string {
	switch p := k.field(c).(type) {
	case *string:
		return strconv.Quote(*p)
	case *int:
		return strconv.Itoa(*p)
	case *int64:
		return strconv.FormatInt(*p, 10)
	case *float64:
		return strconv.FormatFloat(*p, 'g', -1, 64)
	case *bool:
		return strconv.FormatBool(*p)
	case *time.Duration:
		return p.String()
	default:
		panic(fmt.Sprintf("config: key %s has unsupported type %T", k, p))
	}
}

// Set parses text — an unquoted scalar, as the file parser or a
// flag.Value's String hands it over — into the key's field of c.
func (k Key) Set(c *Config, text string) error {
	var err error
	switch p := k.field(c).(type) {
	case *string:
		*p = text
	case *int:
		if *p, err = strconv.Atoi(text); err != nil {
			return fmt.Errorf("want an integer, got %q", text)
		}
	case *int64:
		if *p, err = strconv.ParseInt(text, 10, 64); err != nil {
			return fmt.Errorf("want an integer, got %q", text)
		}
	case *float64:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("want a finite number, got %q", text)
		}
		*p = f
	case *bool:
		if text != "true" && text != "false" {
			return fmt.Errorf("want true or false, got %q", text)
		}
		*p = text == "true"
	case *time.Duration:
		if *p, err = time.ParseDuration(text); err != nil {
			return fmt.Errorf("want a duration like 500ms or 1m, got %q", text)
		}
	default:
		panic(fmt.Sprintf("config: key %s has unsupported type %T", k, p))
	}
	return nil
}

// WriteTo emits the canonical file form; Parse(that) reproduces c
// exactly. The admin API serves this as the live config.
func (c *Config) WriteTo(w io.Writer) (int64, error) {
	var b bytes.Buffer
	section := ""
	for _, k := range keys {
		if k.Section != section {
			section = k.Section
			fmt.Fprintf(&b, "%s:\n", section)
		}
		fmt.Fprintf(&b, "  %s: %s\n", k.Name, k.Format(c))
	}
	n, err := w.Write(b.Bytes())
	return int64(n), err
}

// BindFlags declares alignd's configuration flags on fs, bound to c's
// fields with c's values as their defaults: the run flags shared with
// pimalign and experiments through host.Options.Bind, every other flag
// the table names from its row.
func (c *Config) BindFlags(fs *flag.FlagSet) {
	c.Align.Bind(fs)
	for _, k := range keys {
		if k.Flag == "" || fs.Lookup(k.Flag) != nil {
			continue
		}
		switch p := k.field(c).(type) {
		case *string:
			fs.StringVar(p, k.Flag, *p, k.Usage)
		case *int:
			fs.IntVar(p, k.Flag, *p, k.Usage)
		case *int64:
			fs.Int64Var(p, k.Flag, *p, k.Usage)
		case *float64:
			fs.Float64Var(p, k.Flag, *p, k.Usage)
		case *bool:
			fs.BoolVar(p, k.Flag, *p, k.Usage)
		case *time.Duration:
			fs.DurationVar(p, k.Flag, *p, k.Usage)
		}
	}
}

// ApplyFlags overrides c with every flag of fs that was given on the
// command line and that the table maps to a key: the flag surface
// predates the config file and stays authoritative when used.
func (c *Config) ApplyFlags(fs *flag.FlagSet) (err error) {
	fs.Visit(func(f *flag.Flag) {
		for _, k := range keys {
			if k.Flag == f.Name && err == nil {
				if e := k.Set(c, f.Value.String()); e != nil {
					err = fmt.Errorf("-%s: %w", f.Name, e)
				}
			}
		}
	})
	return err
}

// Diff returns the keys whose values differ between c and next, in
// table order. A reload from c to next is admissible when none of them
// is Static.
func (c *Config) Diff(next *Config) []Key {
	var changed []Key
	for _, k := range keys {
		if k.Format(c) != k.Format(next) {
			changed = append(changed, k)
		}
	}
	return changed
}

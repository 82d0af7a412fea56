// Package cache is a persistent, content-addressed result cache for the
// serving path. A Key identifies an alignment problem — the 128-bit
// digests of the two packed operands plus everything else that shapes
// the answer (scoring params, band policy, effective lane width,
// traceback/escalation mode) — and a Value carries the certified result
// (score, CIGAR, provenance, trusted status). Entries persist in an
// append-only WAL (see wal.go); an in-memory index maps keys to disk
// frames under a bounded entry budget, and a small write-through hot
// tier serves repeat keys without touching the disk at all.
//
// Only certified-optimal, non-degraded results belong here: the caller
// (host.Session) filters by pair status and shed labels before Insert.
// The cache itself never relabels — a hit replays the stored status and
// provenance byte for byte.
package cache

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pimnw/internal/core"
	"pimnw/internal/obs"
	"pimnw/internal/seq"
)

// Key flag bits.
const (
	// FlagTraceback marks a full-alignment (CIGAR-producing) run; score-only
	// results live under a distinct key so a score-only hit can never be
	// served to a traceback request.
	FlagTraceback uint8 = 1 << 0
	// FlagEscalate marks a run performed under the adaptive band-escalation
	// policy, whose ceiling is carried in Key.MaxBand.
	FlagEscalate uint8 = 1 << 1
)

// Key identifies one alignment problem. It is comparable (usable as a
// map key) and contains every knob that can change the stored answer:
// two content digests, the scoring model, the band policy (initial band
// plus escalation ceiling), the effective lane width, and the mode
// flags. Anything not in the Key must not influence the result.
type Key struct {
	A, B    seq.Digest
	Params  core.Params
	Band    int32
	MaxBand int32
	Lanes   int32
	Flags   uint8
}

// Value is one certified result. Status and Provenance are stored as the
// host's stable string names (not enum ordinals) so the on-disk format
// survives enum reordering; the host parses Status back and refuses to
// serve anything it cannot parse as a trusted status.
type Value struct {
	Score      int32
	InBand     bool
	Status     string
	Provenance string
	Cigar      []byte
}

// Fsync policies.
type FsyncPolicy int

const (
	// FsyncInterval (the default) syncs on a background ticker: bounded
	// data loss (at most one interval of inserts) at near-FsyncNever cost.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every insert: no committed entry is ever
	// lost, at the price of a disk round-trip per insert.
	FsyncAlways
	// FsyncNever leaves syncing to the OS page cache. A crash may lose
	// recent inserts (never corrupt the survivors — repair truncates any
	// torn tail). Right for scratch/experiment caches.
	FsyncNever
)

// ParseFsyncPolicy maps the config spelling to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "", "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("cache: unknown fsync policy %q (want always, interval or never)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncNever:
		return "never"
	}
	return "interval"
}

// Options configures Open.
type Options struct {
	// Dir is the cache directory; the WAL lives at Dir/cache.wal.
	Dir string
	// Fsync selects the durability policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncInterval is the background sync period under FsyncInterval
	// (default 1s).
	FsyncInterval time.Duration
	// MaxEntries bounds the in-memory index (default 1<<20). Evicted
	// entries stay on disk as dead bytes until compaction.
	MaxEntries int
	// HotEntries bounds the in-process hot tier (default 4096).
	HotEntries int
	// CompactInterval enables background compaction when positive: every
	// interval, the WAL is rewritten without dead bytes if they dominate.
	CompactInterval time.Duration
	// MinCompactBytes is the WAL size below which background compaction
	// never triggers (default 4 MiB) — rewriting a tiny file buys nothing.
	MinCompactBytes int64
}

func (o *Options) fill() {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = time.Second
	}
	if o.MaxEntries <= 0 {
		o.MaxEntries = 1 << 20
	}
	if o.HotEntries <= 0 {
		o.HotEntries = 4096
	}
	if o.MinCompactBytes <= 0 {
		o.MinCompactBytes = 4 << 20
	}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Entries     int   // live index entries
	HotEntries  int   // hot-tier entries
	Hits        int64 // lookups served (hot + disk)
	Misses      int64 // lookups not served
	Inserts     int64 // records appended this process
	InsertBytes int64 // WAL bytes appended this process
	WALBytes    int64 // current WAL file size
	LiveBytes   int64 // WAL bytes reachable from the index
	Repairs     int64 // startup truncations (torn/corrupt tails)
	Evictions   int64 // index entries dropped to the RAM bound
	Compactions int64 // WAL rewrites completed
}

// Cache is the concurrent cache handle. All methods are safe for
// concurrent use; Lookup on the hot tier takes only a read lock and
// performs zero allocations.
type Cache struct {
	mu   sync.RWMutex
	f    *os.File
	path string
	idx  map[Key]recRef
	hot  map[Key]Value
	size int64 // WAL file size (all appended bytes)
	live int64 // bytes reachable from idx
	buf  []byte
	opts Options

	closed bool
	dirty  atomic.Bool // unsynced appends pending (FsyncInterval)
	stop   chan struct{}
	wg     sync.WaitGroup

	hits, misses          atomic.Int64
	inserts, insertBytes  atomic.Int64
	repairs               atomic.Int64
	evictions, compactRun atomic.Int64

	// obs counters, resolved once at Open (nil-safe if no registry).
	cHits, cMisses, cInserts, cInsertBytes, cRepairs, cEvictions *obs.Counter
}

// Open opens (creating if needed) the cache under opts.Dir, replaying
// and repairing the WAL. The returned handle owns the file; Close it.
func Open(opts Options) (*Cache, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("cache: Options.Dir is required")
	}
	opts.fill()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	reg := obs.Default()
	c := &Cache{
		path: filepath.Join(opts.Dir, "cache.wal"),
		idx:  make(map[Key]recRef),
		hot:  make(map[Key]Value, opts.HotEntries),
		opts: opts,
		stop: make(chan struct{}),

		cHits:        reg.Counter("cache_hits_total"),
		cMisses:      reg.Counter("cache_misses_total"),
		cInserts:     reg.Counter("cache_inserts_total"),
		cInsertBytes: reg.Counter("cache_insert_bytes_total"),
		cRepairs:     reg.Counter("cache_wal_repairs_total"),
		cEvictions:   reg.Counter("cache_evictions_total"),
	}
	f, size, repairs, err := openWAL(c.path, func(k Key, v Value, r recRef) {
		if prev, ok := c.idx[k]; ok {
			c.live -= int64(prev.n) // later append wins
		}
		c.idx[k] = r
		c.live += int64(r.n)
		if len(c.idx) > opts.MaxEntries {
			c.evictLocked(len(c.idx) - opts.MaxEntries)
		}
	})
	if err != nil {
		return nil, err
	}
	c.f, c.size = f, size
	if repairs > 0 {
		c.repairs.Add(int64(repairs))
		c.cRepairs.Add(int64(repairs))
		slog.Debug("wal repair: truncated", "kind", "cache", "path", c.path,
			"bytes", size, "live_records", len(c.idx))
	}
	reg.Gauge("cache_entries").Set(float64(len(c.idx)))
	if opts.Fsync == FsyncInterval {
		c.wg.Add(1)
		go c.syncLoop()
	}
	if opts.CompactInterval > 0 {
		c.wg.Add(1)
		go c.compactLoop()
	}
	return c, nil
}

// Lookup returns the stored value for k, if any. Hot-tier hits allocate
// nothing; index hits re-read and re-checksum the disk frame (a frame
// that fails validation is dropped and reported as a miss, never served).
// The returned Value's Cigar and strings are shared — callers must treat
// them as read-only.
func (c *Cache) Lookup(k Key) (Value, bool) {
	c.mu.RLock()
	if v, ok := c.hot[k]; ok {
		c.mu.RUnlock()
		c.hits.Add(1)
		c.cHits.Add(1)
		return v, true
	}
	ref, ok := c.idx[k]
	if !ok {
		c.mu.RUnlock()
		c.misses.Add(1)
		c.cMisses.Add(1)
		return Value{}, false
	}
	// The frame read happens under the same read lock that produced ref:
	// a concurrent compaction swaps the fd and rewrites every offset
	// under the write lock, so dropping the lock here would let the read
	// hit the closed old fd (or the new file at a stale offset) and then
	// delete a perfectly live entry below.
	v, err := c.readFrame(k, ref)
	c.mu.RUnlock()
	if err != nil {
		// The frame went bad on disk after passing startup repair (bit rot,
		// or an external truncation). Drop it so we stop paying the read.
		c.mu.Lock()
		if cur, still := c.idx[k]; still && cur == ref {
			delete(c.idx, k)
			c.live -= int64(ref.n)
		}
		c.mu.Unlock()
		slog.Debug("dropped unreadable record", "kind", "cache", "off", ref.off, "err", err)
		c.misses.Add(1)
		c.cMisses.Add(1)
		return Value{}, false
	}
	// Promote to the hot tier so the next hit is memory-speed.
	c.mu.Lock()
	if !c.closed {
		c.hot[k] = v
		c.trimHotLocked()
	}
	c.mu.Unlock()
	c.hits.Add(1)
	c.cHits.Add(1)
	return v, true
}

// readFrame re-reads and fully re-validates one frame from disk.
func (c *Cache) readFrame(k Key, ref recRef) (Value, error) {
	buf := make([]byte, ref.n)
	if _, err := c.f.ReadAt(buf, ref.off); err != nil {
		return Value{}, err
	}
	dk, v, _, err := parseFrame(buf)
	if err != nil {
		return Value{}, err
	}
	if dk != k {
		return Value{}, fmt.Errorf("cache: frame at off=%d holds a different key", ref.off)
	}
	return v, nil
}

// Insert appends a record and indexes it. Inserting an existing key
// overwrites it (the WAL keeps both; replay and the index take the
// later append). The caller is responsible for only inserting
// certified, non-degraded results.
func (c *Cache) Insert(k Key, v Value) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("cache: closed")
	}
	var err error
	c.buf, err = appendFrame(c.buf[:0], k, v)
	if err != nil {
		return err
	}
	n, err := c.f.Write(c.buf)
	if err != nil {
		// A short append leaves a torn frame; rewind so the file stays
		// frame-aligned and the next insert isn't poisoned.
		if n > 0 {
			_ = rewindWAL(c.f, c.size)
			_, _ = c.f.Seek(c.size, 0)
		}
		return err
	}
	ref := recRef{off: c.size, n: int32(len(c.buf))}
	c.size += int64(len(c.buf))
	if prev, ok := c.idx[k]; ok {
		c.live -= int64(prev.n)
	}
	c.idx[k] = ref
	c.live += int64(ref.n)
	c.hot[k] = v
	c.trimHotLocked()
	if len(c.idx) > c.opts.MaxEntries {
		c.evictLocked(len(c.idx) - c.opts.MaxEntries)
	}
	c.inserts.Add(1)
	c.insertBytes.Add(int64(len(c.buf)))
	c.cInserts.Add(1)
	c.cInsertBytes.Add(int64(len(c.buf)))
	if c.opts.Fsync == FsyncAlways {
		return c.f.Sync()
	}
	c.dirty.Store(true)
	return nil
}

// evictLocked drops n index entries. Eviction order is map-iteration
// order — effectively random sampling, which is the right shape for a
// dedup cache with no strong recency skew and costs nothing to maintain.
func (c *Cache) evictLocked(n int) {
	for k, ref := range c.idx {
		if n <= 0 {
			break
		}
		delete(c.idx, k)
		delete(c.hot, k)
		c.live -= int64(ref.n)
		n--
		c.evictions.Add(1)
		c.cEvictions.Add(1)
	}
}

// trimHotLocked bounds the hot tier the same way.
func (c *Cache) trimHotLocked() {
	over := len(c.hot) - c.opts.HotEntries
	for k := range c.hot {
		if over <= 0 {
			break
		}
		delete(c.hot, k)
		over--
	}
}

// SetLimits adjusts the RAM bounds at runtime (config hot-reload),
// evicting immediately if the new bounds are tighter.
func (c *Cache) SetLimits(maxEntries, hotEntries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if maxEntries > 0 {
		c.opts.MaxEntries = maxEntries
	}
	if hotEntries > 0 {
		c.opts.HotEntries = hotEntries
	}
	if over := len(c.idx) - c.opts.MaxEntries; over > 0 {
		c.evictLocked(over)
	}
	c.trimHotLocked()
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.RLock()
	s := Stats{
		Entries:    len(c.idx),
		HotEntries: len(c.hot),
		WALBytes:   c.size,
		LiveBytes:  c.live,
	}
	c.mu.RUnlock()
	s.Hits = c.hits.Load()
	s.Misses = c.misses.Load()
	s.Inserts = c.inserts.Load()
	s.InsertBytes = c.insertBytes.Load()
	s.Repairs = c.repairs.Load()
	s.Evictions = c.evictions.Load()
	s.Compactions = c.compactRun.Load()
	return s
}

// Sync forces pending appends to disk regardless of policy.
func (c *Cache) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.dirty.Store(false)
	return c.f.Sync()
}

// Compact rewrites the WAL with only live (indexed) records, reclaiming
// dead bytes from overwrites and evictions. Stop-the-world: lookups and
// inserts block for the duration. Frames are copied verbatim, checksums
// and all.
func (c *Cache) Compact() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("cache: closed")
	}
	return c.compactLocked()
}

func (c *Cache) compactLocked() error {
	tmpPath := c.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	cleanup := func(e error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return e
	}
	if _, err := tmp.WriteString(walMagic); err != nil {
		return cleanup(err)
	}
	newIdx := make(map[Key]recRef, len(c.idx))
	off := int64(len(walMagic))
	frame := make([]byte, 0, 4096)
	for k, ref := range c.idx {
		if int64(cap(frame)) < int64(ref.n) {
			frame = make([]byte, ref.n)
		}
		frame = frame[:ref.n]
		if _, err := c.f.ReadAt(frame, ref.off); err != nil {
			return cleanup(err)
		}
		if _, err := tmp.Write(frame); err != nil {
			return cleanup(err)
		}
		newIdx[k] = recRef{off: off, n: ref.n}
		off += int64(ref.n)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmpPath, c.path); err != nil {
		return cleanup(err)
	}
	// tmp's descriptor now refers to the file installed at c.path, and
	// its write offset already sits at off (every byte went through
	// sequential Writes). No failure path may run past the rename: the
	// descriptor is live now, and cleanup() would close it out from
	// under the cache.
	old := c.f
	c.f, c.idx, c.size, c.live = tmp, newIdx, off, off-int64(len(walMagic))
	old.Close()
	c.compactRun.Add(1)
	slog.Debug("compacted WAL", "kind", "cache", "bytes", off, "records", len(newIdx))
	return nil
}

// syncLoop is the FsyncInterval background ticker.
func (c *Cache) syncLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			if c.dirty.Swap(false) {
				c.mu.RLock()
				if !c.closed {
					c.f.Sync()
				}
				c.mu.RUnlock()
			}
		}
	}
}

// compactLoop triggers compaction when dead bytes dominate live ones and
// the file is big enough to be worth rewriting.
func (c *Cache) compactLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.opts.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.mu.Lock()
			if !c.closed && c.size > c.opts.MinCompactBytes {
				dead := c.size - int64(len(walMagic)) - c.live
				if dead > c.live {
					if err := c.compactLocked(); err != nil {
						slog.Debug("background compaction failed", "kind", "cache", "err", err)
					}
				}
			}
			c.mu.Unlock()
		}
	}
}

// Close stops background work, syncs pending appends, and releases the
// file. Further Lookups miss; further Inserts fail.
func (c *Cache) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.stop)
	c.mu.Unlock()
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	if c.opts.Fsync != FsyncNever || c.dirty.Load() {
		err = c.f.Sync()
	}
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	c.idx, c.hot = nil, nil
	return err
}

// Package host implements the paper's host program (§4.1): it stages DNA
// at 2 bits per base while batching (the model charges the bus and each
// DPU's bank 2 bits per base; the kernel reads the caller's bases),
// balances alignment workloads across DPUs with the sorted greedy (LPT)
// heuristic of §4.1.2 using the Workload = (m+n)·w estimate, dispatches
// rank-sized batches through a FIFO queue, launches the (simulated) DPUs,
// and collects scores and CIGARs. A discrete-event timeline prices the
// run: host↔PiM transfers share the DDR bus at the measured ~60 GB/s,
// ranks execute independently, and a rank's results cannot be collected
// before every DPU of the rank has finished — the barrier that makes
// intra-rank balance critical.
package host

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"

	"pimnw/internal/kernel"
	"pimnw/internal/pim"
	"pimnw/internal/seq"
)

// Pair is one alignment request, the kernel's own pair type: the host
// dispatches the caller's bases to the kernel without copying them.
type Pair = kernel.Pair

// PairIndex identifies one (i,j) pair of an all-against-all comparison,
// i < j.
type PairIndex struct{ I, J int }

// AllPairIndices enumerates the n·(n-1)/2 comparisons of an n-sequence
// all-against-all run in row-major order.
func AllPairIndices(n int) []PairIndex {
	out := make([]PairIndex, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			out = append(out, PairIndex{i, j})
		}
	}
	return out
}

// AllPairs is §5.3's all-against-all comparison as a workload for the one
// pipeline: every unordered pair of seqs, with IDs indexing
// AllPairIndices(len(seqs)). The paper runs it score-only; that is the
// caller's Kernel.Traceback choice, and everything else a Config can ask
// for (recovery, escalation, fleets, the session cache) applies unchanged.
// The executable path stages each pair's sequences with the pair; §5.3's
// one-off dataset broadcast is priced where Table 5 is reproduced
// (internal/xp), and differs by bus time only.
func AllPairs(seqs []seq.Seq) []Pair {
	indices := AllPairIndices(len(seqs))
	out := make([]Pair, len(indices))
	for id, pi := range indices {
		out[id] = Pair{ID: id, A: seqs[pi.I], B: seqs[pi.J]}
	}
	return out
}

// Config drives one orchestrated run.
type Config struct {
	PIM    pim.Config
	Kernel kernel.Config
	// Balance selects the intra-rank DPU assignment policy; the zero
	// value is the paper's LPT heuristic.
	Balance BalancePolicy
	// Workers bounds the simulation's host-side parallelism (not part of
	// the modelled timing). Zero means GOMAXPROCS.
	Workers int
	// Faults configures the simulated fabric's fault injection; the zero
	// value is a perfect fabric (no stalls, crashes, corruptions or rank
	// dropouts).
	Faults pim.FaultConfig
	// MaxRetries bounds the recovery attempts per batch beyond the first
	// launch. When a batch still has failed pairs after MaxRetries
	// redispatches, those pairs are abandoned and reported, and the run
	// degrades gracefully instead of erroring.
	MaxRetries int
	// BatchDeadlineSec is the modelled per-attempt deadline: a DPU that
	// has not delivered results by then is declared failed (this is how
	// stalled DPUs are detected) and its pairs are redispatched. Zero
	// means no deadline — stalled DPUs are waited out.
	BatchDeadlineSec float64
	// RetryBackoffSec is the modelled base delay before a retry; attempt
	// k waits RetryBackoffSec * 2^k, plus up to 50 % deterministic
	// jitter. Zero means immediate retries.
	RetryBackoffSec float64
	// Escalate turns on the degradation ladder: pairs whose result is
	// out-of-band or band-edge-clipped are re-dispatched at doubled band
	// widths (trading kernel pools for WRAM via kernel.FitGeometry), then
	// degraded to the score-only kernel at the widest feasible band, and
	// finally to the exact CPU baseline — so every pair gets a correct
	// answer, with provenance recording which rung produced it.
	Escalate bool
	// MaxBand caps the ladder's band doubling; zero means DefaultMaxBand.
	// Ignored unless Escalate is set.
	MaxBand int
	// Verify re-derives every in-band traceback result from its CIGAR and
	// the cost table (internal/verify) before accepting it; a DPU launch
	// with any invalid result is treated exactly like a corrupted transfer
	// (results dropped, pairs redispatched, DPU kept in rotation).
	// Score-only results carry no CIGAR to re-derive, so Verify is a
	// no-op for score-only kernels.
	Verify bool
	// TraceID correlates everything this run emits — wall-clock spans,
	// modelled Perfetto slices, flight-recorder events, structured log
	// lines, the report — with the request that triggered it. A serving
	// frontend sets it per request (host.Session fills it from the
	// context's obs.TraceIDFrom when empty); "" means untraced. It never
	// affects results or modelled timing.
	TraceID string
	// Backends is the fleet: when set, every workload is sharded across
	// these backends by estimated makespan (fleet.go), with whole-backend
	// loss redispatched onto the survivors. Empty means the single
	// simulated fabric described by PIM — the pre-fleet pipeline,
	// byte-identical reports included. Backends carry state (health) and
	// are shared across the micro-batches of a session.
	Backends []Backend
}

// DefaultMaxBand is the escalation ladder's band cap when Config.MaxBand
// is zero: wide enough that only pathological pairs reach the CPU rung.
const DefaultMaxBand = 2048

func (c Config) maxBand() int {
	if c.MaxBand > 0 {
		return c.MaxBand
	}
	return DefaultMaxBand
}

// Validate checks cross-package consistency.
func (c Config) Validate() error {
	if err := c.PIM.Validate(); err != nil {
		return err
	}
	if err := c.Kernel.Validate(); err != nil {
		return err
	}
	if c.Workers < 0 {
		return fmt.Errorf("host: negative Workers")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("host: negative MaxRetries")
	}
	if c.BatchDeadlineSec < 0 || c.RetryBackoffSec < 0 {
		return fmt.Errorf("host: negative BatchDeadlineSec/RetryBackoffSec")
	}
	if c.MaxBand < 0 {
		return fmt.Errorf("host: negative MaxBand")
	}
	if c.Escalate && c.MaxBand > 0 && c.MaxBand < c.Kernel.Band {
		return fmt.Errorf("host: MaxBand %d below the kernel band %d", c.MaxBand, c.Kernel.Band)
	}
	seen := make(map[string]bool, len(c.Backends))
	for i, be := range c.Backends {
		if be == nil {
			return fmt.Errorf("host: fleet backend %d is nil", i)
		}
		name := be.Name()
		if name == "" {
			return fmt.Errorf("host: fleet backend %d has an empty name", i)
		}
		if seen[name] {
			return fmt.Errorf("host: fleet backend name %q repeats", name)
		}
		seen[name] = true
	}
	return nil
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// PairStatus is the typed per-pair outcome the report and exports carry —
// the replacement for sniffing the core.NegInf score sentinel to tell a
// failed alignment from a real one.
type PairStatus int

const (
	// StatusOK: the banded result is trusted as-is (in band, no clip).
	StatusOK PairStatus = iota
	// StatusClipped: the traceback touched the band edge; the score is a
	// lower bound, not a certificate. Final only when escalation is off.
	StatusClipped
	// StatusOutOfBand: (m,n) fell outside the band; the score is the
	// sentinel, not an alignment. Final only when escalation is off.
	StatusOutOfBand
	// StatusEscalated: resolved by a wider-band traceback re-dispatch.
	StatusEscalated
	// StatusDegradedScoreOnly: resolved by the score-only kernel at a wide
	// band — the score is trusted but no CIGAR was produced.
	StatusDegradedScoreOnly
	// StatusDegradedCPU: resolved by the exact full-matrix CPU baseline.
	StatusDegradedCPU
	// StatusAbandoned: no answer — retries exhausted with escalation off.
	StatusAbandoned
	// StatusOverflowed: the 16-bit narrow-lane kernel saturated on this
	// pair and its score is meaningless. Final only when escalation is
	// off; the ladder's same-band full-width rung resolves it otherwise.
	StatusOverflowed
)

var pairStatusNames = [...]string{
	StatusOK:                "ok",
	StatusClipped:           "clipped",
	StatusOutOfBand:         "out-of-band",
	StatusEscalated:         "escalated",
	StatusDegradedScoreOnly: "degraded-score-only",
	StatusDegradedCPU:       "degraded-cpu",
	StatusAbandoned:         "abandoned",
	StatusOverflowed:        "overflowed",
}

func (s PairStatus) String() string {
	if s < 0 || int(s) >= len(pairStatusNames) {
		return "unknown"
	}
	return pairStatusNames[s]
}

// MarshalJSON emits the status name, so reports read "clipped" rather
// than an enum ordinal that shifts when a status is added.
func (s PairStatus) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// Trusted reports whether the pair's score is an exact answer for its
// provenance engine (everything but clipped/out-of-band/abandoned).
func (s PairStatus) Trusted() bool {
	switch s {
	case StatusOK, StatusEscalated, StatusDegradedScoreOnly, StatusDegradedCPU:
		return true
	}
	return false
}

// ParsePairStatus maps a status name back to its value — the inverse of
// String, used when replaying cached results whose status is persisted
// as the stable name rather than the enum ordinal. Unknown names (from a
// future or corrupted record) report ok=false and must be treated as a
// cache miss, never coerced to a status.
func ParsePairStatus(name string) (PairStatus, bool) {
	for s, n := range pairStatusNames {
		if n == name {
			return PairStatus(s), true
		}
	}
	return 0, false
}

// Result is one completed alignment.
type Result struct {
	kernel.PairResult
	Rank, DPU int // where it executed; -1/-1 for the CPU rung
	// Status classifies the outcome; Provenance names the engine that
	// produced the answer of record: "dpu-banded@<w>", "dpu-score-only@<w>"
	// or "cpu-exact".
	Status     PairStatus
	Provenance string
	// Cached marks a result replayed from the persistent result cache
	// rather than computed this run. Status and Provenance still describe
	// the original computation — a hit never relabels.
	Cached bool
	// Backend names the fleet server that computed the answer ("" on the
	// single fabric). It is placement, not provenance: the same pair lands
	// on the same Provenance engine whichever backend runs it.
	Backend string
}

// PairIssue is one pair that did not resolve cleanly on the first rung:
// degraded, clipped, out-of-band or abandoned, with the provenance of
// whatever answer (if any) it ended up with.
type PairIssue struct {
	ID         int        `json:"id"`
	Status     PairStatus `json:"status"`
	Provenance string     `json:"provenance,omitempty"`
}

// EscalationRound records one executed rung of the degradation ladder on
// the simulated timeline.
type EscalationRound struct {
	Round      int     `json:"round"`
	Band       int     `json:"band"`
	Provenance string  `json:"provenance"`
	Pairs      int     `json:"pairs"`
	StartSec   float64 `json:"start_sec"`
	EndSec     float64 `json:"end_sec"`
}

// FaultEvent records one injected fault as the host experienced it.
// AtSec is batch-relative while the batch executes and rebased to the
// absolute simulated timeline when the batch is scheduled.
type FaultEvent struct {
	Batch   int     `json:"batch"`
	Attempt int     `json:"attempt"`
	DPU     int     `json:"dpu"` // rank-relative DPU index; -1 for rank-level faults
	Kind    string  `json:"kind"`
	AtSec   float64 `json:"at_sec"`
}

// RankStats aggregates one rank execution (one batch).
type RankStats struct {
	Rank           int
	Batch          int
	StartSec       float64 // simulated timeline
	TransferInSec  float64
	KernelSec      float64 // kernel compute: every attempt's slowest DPU
	FastestDPUSec  float64 // fastest *loaded* DPU: the balance gap metric
	TransferOutSec float64
	EndSec         float64
	BytesIn        int64
	BytesOut       int64
	DPUStats       pim.DPUStats // summed over the rank's accepted DPU launches
	LoadedDPUs     int
	// Recovery outcome of the batch: launch attempts (1 = clean run),
	// modelled seconds the rank sat waiting rather than computing
	// (backoff intervals, fail-fast fault detection), modelled seconds
	// attributable to recovery overall (failed attempts + waits), and the
	// faults injected while it executed. The rank's busy window is
	// KernelSec + WaitSec; RetrySec ≤ KernelSec + WaitSec.
	Attempts int
	WaitSec  float64
	RetrySec float64
	Faults   []FaultEvent `json:",omitempty"`
	// Backend names the fleet server this rank slot belongs to ("" on the
	// single fabric, where the report format predates fleets).
	Backend string `json:",omitempty"`
}

// Counters is the purely additive part of a Report: tallies, byte and
// cell volumes and summed seconds that compose by addition however the
// contributing runs were arranged in time (slices append, the provenance
// map adds per key). Everything time- or slot-shaped lives on Report
// itself and composes through Then / Alongside. Adding a counter means
// adding the tagged field here and one line in Add; report_algebra_test.go
// fails if either is forgotten.
type Counters struct {
	TransferInSec  float64 `json:"transfer_in_sec"`  // total bus time spent on input transfers
	TransferOutSec float64 `json:"transfer_out_sec"` // total bus time spent on result collection
	KernelSecSum   float64 `json:"kernel_sec_sum"`   // Σ rank kernel times (the compute backbone)
	BytesIn        int64   `json:"bytes_in"`
	BytesOut       int64   `json:"bytes_out"`
	TotalCells     int64   `json:"total_cells"`
	TotalInstr     int64   `json:"total_instr"`
	Alignments     int     `json:"alignments"`
	// Recovery outcome of the run (all zero on a perfect fabric):
	// Retries counts batch re-launches beyond each batch's first attempt,
	// Redispatches counts pair executions moved onto surviving DPUs,
	// FaultsDetected counts the injected faults the host noticed (crashed
	// launches, checksum mismatches, deadline timeouts, rank dropouts —
	// a slowdown that stays under the deadline is invisible),
	// AbandonedPairs (with their IDs) are the pairs dropped after retries
	// were exhausted, WaitSec is the modelled time ranks sat idle between
	// attempts (backoff intervals and fail-fast fault detection — waiting,
	// never compute, so it is kept out of KernelSecSum), and RetrySec is
	// the modelled time spent beyond each batch's first launch window:
	// retry attempts, backoff waits and failure detection.
	Retries        int     `json:"retries"`
	Redispatches   int     `json:"redispatches"`
	FaultsDetected int     `json:"faults_detected"`
	AbandonedPairs int     `json:"abandoned_pairs"`
	AbandonedIDs   []int   `json:"abandoned_ids,omitempty"`
	WaitSec        float64 `json:"wait_sec"`
	RetrySec       float64 `json:"retry_sec"`
	// Integrity outcome of the run. OutOfBandPairs and ClippedPairs count
	// band failures as first observed (before any escalation resolved
	// them); Escalations counts pair re-dispatches onto wider-band DPU
	// rungs over EscalationRounds executed rungs; DegradedScoreOnly and
	// DegradedCPU count pairs whose answer of record came from a lower
	// rung than requested; VerifyChecked/VerifyFailures count the CIGAR
	// re-derivation checks (Config.Verify); CPUFallbackSec and VerifySec
	// are measured host wall-clock spent on the CPU rung and on CIGAR
	// re-derivation — host-side work, deliberately NOT folded into the
	// modelled MakespanSec.
	// OverflowedPairs counts 16-bit narrow-lane saturations as first
	// observed, alongside the band-failure tallies.
	OutOfBandPairs    int     `json:"out_of_band_pairs"`
	ClippedPairs      int     `json:"clipped_pairs"`
	OverflowedPairs   int     `json:"overflowed_pairs"`
	Escalations       int     `json:"escalations"`
	EscalationRounds  int     `json:"escalation_rounds"`
	DegradedScoreOnly int     `json:"degraded_score_only"`
	DegradedCPU       int     `json:"degraded_cpu"`
	VerifyChecked     int     `json:"verify_checked"`
	VerifyFailures    int     `json:"verify_failures"`
	CPUFallbackSec    float64 `json:"cpu_fallback_sec"`
	VerifySec         float64 `json:"verify_sec"`
	// Result-cache outcome of the run, counted per delivery: CacheHits
	// counts submissions answered from a cached value, DedupedPairs those
	// attached to an earlier submission's computation in the same
	// session, and CacheMisses is submissions less hits (only counted when
	// a cache is attached). A replay still counts in Alignments and
	// Provenance — every submission yields exactly one delivered result —
	// or, when its owner was abandoned, in AbandonedPairs/AbandonedIDs.
	// Every other tally (cells, clipped, escalations, …) is per
	// computation and counts each distinct key once.
	CacheHits    int `json:"cache_hits"`
	CacheMisses  int `json:"cache_misses"`
	DedupedPairs int `json:"deduped_pairs"`
	// Provenance counts final answers by producing engine; Issues lists
	// every pair that did not resolve cleanly on the first rung (capped at
	// maxReportIssues).
	Provenance map[string]int `json:"provenance,omitempty"`
	Issues     []PairIssue    `json:"issues,omitempty"`
}

// Add folds src's counters into c. Hand-written on purpose: it runs on
// the serving path once per micro-batch and fleet shard.
func (c *Counters) Add(src *Counters) {
	c.TransferInSec += src.TransferInSec
	c.TransferOutSec += src.TransferOutSec
	c.KernelSecSum += src.KernelSecSum
	c.BytesIn += src.BytesIn
	c.BytesOut += src.BytesOut
	c.TotalCells += src.TotalCells
	c.TotalInstr += src.TotalInstr
	c.Alignments += src.Alignments
	c.Retries += src.Retries
	c.Redispatches += src.Redispatches
	c.FaultsDetected += src.FaultsDetected
	c.AbandonedPairs += src.AbandonedPairs
	c.AbandonedIDs = append(c.AbandonedIDs, src.AbandonedIDs...)
	c.WaitSec += src.WaitSec
	c.RetrySec += src.RetrySec
	c.OutOfBandPairs += src.OutOfBandPairs
	c.ClippedPairs += src.ClippedPairs
	c.OverflowedPairs += src.OverflowedPairs
	c.Escalations += src.Escalations
	c.EscalationRounds += src.EscalationRounds
	c.DegradedScoreOnly += src.DegradedScoreOnly
	c.DegradedCPU += src.DegradedCPU
	c.VerifyChecked += src.VerifyChecked
	c.VerifyFailures += src.VerifyFailures
	c.CPUFallbackSec += src.CPUFallbackSec
	c.VerifySec += src.VerifySec
	c.CacheHits += src.CacheHits
	c.CacheMisses += src.CacheMisses
	c.DedupedPairs += src.DedupedPairs
	for p, n := range src.Provenance {
		if c.Provenance == nil {
			c.Provenance = make(map[string]int)
		}
		c.Provenance[p] += n
	}
	for _, is := range src.Issues {
		c.addIssue(is)
	}
}

// Report is the run-level outcome the experiments consume: the additive
// Counters plus the timeline — what ran where and when on the simulated
// clock. Reports compose with Then (the same fabric reused afterwards)
// and Alongside (another server running concurrently).
type Report struct {
	MakespanSec float64 `json:"makespan_sec"` // simulated wall clock, dispatch to last collection
	Counters
	Batches         int     `json:"batches"`
	UtilizationMin  float64 `json:"utilization_min"`
	UtilizationMean float64 `json:"utilization_mean"` // per-batch mean, weighted by Batches when merged
	// TraceID is the request trace this run belongs to (Config.TraceID),
	// stamped onto every Perfetto slice the report exports; "" when the
	// run was untraced.
	TraceID string `json:"trace_id,omitempty"`
	// Escalation records the executed ladder rungs.
	Escalation []EscalationRound `json:"escalation,omitempty"`
	// Backends is the per-server breakdown of a fleet run, in fleet
	// order; nil on the single fabric.
	Backends []BackendStats `json:"backends,omitempty"`
	Ranks    []RankStats    `json:"ranks"`
}

// newReport is the report of a run on which nothing has executed yet:
// no batches, no ranks, zero makespan, and both utilizations at their
// neutral 1 (the mean carries zero weight until a batch lands).
func newReport(traceID string) *Report {
	return &Report{UtilizationMin: 1, UtilizationMean: 1, TraceID: traceID}
}

// Then appends src after r on the same fabric — an escalation round, a
// session's next micro-batch, a backend's redispatch round. The fabric
// is reused sequentially, so src starts when r's makespan ends: its rank
// slots, fault timestamps and escalation windows are rebased by that
// offset and its batch numbers continue past r's. src is consumed.
func (r *Report) Then(src *Report) {
	offset := r.MakespanSec
	r.fold(src, offset, 0)
	r.MakespanSec = offset + src.MakespanSec
	// Fleet runs carry a per-backend breakdown in fleet order; a server's
	// successive runs reuse it sequentially, so its windows add.
	switch {
	case r.Backends == nil:
		r.Backends = src.Backends
	case len(src.Backends) == len(r.Backends):
		for i := range r.Backends {
			d, s := &r.Backends[i], &src.Backends[i]
			d.Pairs += s.Pairs
			d.Batches += s.Batches
			d.MakespanSec += s.MakespanSec
			d.KernelSecSum += s.KernelSecSum
			d.Redispatched += s.Redispatched
			d.Down = d.Down || s.Down
		}
	}
}

// Alongside merges src as a concurrent server whose window starts at
// t=0 like r's: rank IDs shift by rankOff into the server's slot of the
// fleet rank space and the makespan is the union (max) of the windows,
// never the back-to-back sum. src is consumed.
func (r *Report) Alongside(src *Report, rankOff int) {
	r.fold(src, 0, rankOff)
	if src.MakespanSec > r.MakespanSec {
		r.MakespanSec = src.MakespanSec
	}
}

// fold is the part Then and Alongside share: counters add, src's rank
// slots move by (secOff, rankOff) with batch numbers continuing past
// r's, and the per-batch utilization mean is re-weighted.
func (r *Report) fold(src *Report, secOff float64, rankOff int) {
	batchBase := r.Batches
	for _, rs := range src.Ranks {
		if rs.Rank >= 0 {
			rs.Rank += rankOff
		}
		rs.StartSec += secOff
		rs.EndSec += secOff
		rs.Batch += batchBase
		for i := range rs.Faults {
			rs.Faults[i].AtSec += secOff
			rs.Faults[i].Batch += batchBase
		}
		r.Ranks = append(r.Ranks, rs)
	}
	for _, er := range src.Escalation {
		er.StartSec += secOff
		er.EndSec += secOff
		r.Escalation = append(r.Escalation, er)
	}
	r.Counters.Add(&src.Counters)
	if src.Batches > 0 {
		total := r.Batches + src.Batches
		r.UtilizationMean = (float64(r.UtilizationMean*float64(r.Batches)) +
			float64(src.UtilizationMean*float64(src.Batches))) / float64(total)
		r.Batches = total
	}
	if src.UtilizationMin < r.UtilizationMin {
		r.UtilizationMin = src.UtilizationMin
	}
}

// maxReportIssues caps Report.Issues so a run where every pair degrades
// still produces a bounded report; the counters stay exact.
const maxReportIssues = 10000

func (c *Counters) addIssue(is PairIssue) {
	if len(c.Issues) < maxReportIssues {
		c.Issues = append(c.Issues, is)
	}
}

func (c *Counters) countProvenance(p string) {
	if c.Provenance == nil {
		c.Provenance = make(map[string]int)
	}
	c.Provenance[p]++
}

// relabel maps the pair IDs the counters name (AbandonedIDs, Issues)
// through id, from a lower layer's index space into its caller's.
func (c *Counters) relabel(id func(int) int) {
	for i := range c.AbandonedIDs {
		c.AbandonedIDs[i] = id(c.AbandonedIDs[i])
	}
	for i := range c.Issues {
		c.Issues[i].ID = id(c.Issues[i].ID)
	}
}

// HostOverheadFraction is the share of the makespan during which no DPU
// kernel was computing anywhere — the paper reports 15 % on S1000
// shrinking to <0.1 % on S30000. It is derived from the rank timelines:
// the union of the per-batch kernel windows [kernel start, kernel start +
// KernelSec] is laid over [0, MakespanSec], and the uncovered remainder
// (transfers, launch overhead, backoff waits, collection tails) is the
// overhead. Because KernelSec is pure compute and the union can never
// exceed the makespan, the result is in [0,1] by construction; the clamp
// only guards float rounding, not accounting bugs.
func (r *Report) HostOverheadFraction() float64 {
	if r.MakespanSec <= 0 {
		return 0
	}
	type span struct{ from, to float64 }
	spans := make([]span, 0, len(r.Ranks))
	for _, rs := range r.Ranks {
		from := rs.StartSec + rs.TransferInSec
		to := from + rs.KernelSec
		if to > r.MakespanSec {
			to = r.MakespanSec
		}
		if from < 0 {
			from = 0
		}
		if to > from {
			spans = append(spans, span{from, to})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].from < spans[j].from })
	var covered, edge float64
	for _, s := range spans {
		if s.from > edge {
			edge = s.from
		}
		if s.to > edge {
			covered += s.to - edge
			edge = s.to
		}
	}
	f := 1 - covered/r.MakespanSec
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

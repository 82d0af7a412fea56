package host

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"pimnw/internal/baseline"
	"pimnw/internal/core"
	"pimnw/internal/obs"
	"pimnw/internal/pim"
)

// Backend is one place a round of pairs can execute: the simulated PiM
// fabric the paper models, a CPU worker pool, or one server of a
// heterogeneous fleet. The host pipeline (dispatch, recovery, escalation)
// is backend-agnostic — alignOnceOn drives any Backend through the same
// ladder, and the fleet placement layer (fleet.go) shards a workload
// across several of them by estimated makespan.
//
// A Backend is a failure domain: Round returning ErrBackendDown means the
// whole server is gone (not one DPU — per-DPU faults are recovered inside
// Round by the PR-2 retry machinery), and the placement layer redispatches
// the lost shard onto the survivors.
type Backend interface {
	// Name identifies the backend in reports, metrics and flight events.
	// The single fabric (no fleet configured) is the empty string, which
	// keeps its reports byte-identical to the pre-fleet format.
	Name() string
	// Ranks is the number of rank timeline slots the backend occupies in a
	// merged report; fleet merging offsets each backend's rank IDs by the
	// cumulative rank count of the backends before it.
	Ranks() int
	// EstimateSec prices a workload (Σ Pair.Workload) on this backend —
	// the cost model the placement layer balances on. It must be linear in
	// load and must not depend on placement state.
	EstimateSec(cfg *Config, load int64) float64
	// Round executes one dispatch round — the backend-specific body behind
	// alignPairsRound. Results must be bit-identical to the single-fabric
	// round on the same pairs; only the modelled timeline may differ.
	Round(cfg Config, pairs []Pair, sp *obs.Span) (*Report, []Result, error)
	// Healthy reports whether the backend accepts new rounds. A backend
	// that returned ErrBackendDown stays unhealthy for the rest of the
	// session; the placement layer skips it.
	Healthy() bool
}

// ErrBackendDown is the failure-domain error: the whole backend (server)
// is lost, not one DPU. The fleet executor treats it as redispatchable;
// every other error from Round aborts the run.
var ErrBackendDown = errors.New("host: backend down")

// pimEstimateSec prices a workload on a PiM configuration: DP cells
// (Pair.Workload is the paper's (m+n)·w cell estimate) times the cost
// table's per-cell instruction count, spread over every DPU of the fabric
// at its clock. It ignores transfers and imbalance — it is a placement
// cost model, not a timeline.
func pimEstimateSec(cfg *Config, p pim.Config, load int64) float64 {
	cellCost := cfg.Kernel.Costs.CellScore
	if cfg.Kernel.Traceback {
		cellCost = cfg.Kernel.Costs.CellTB
	}
	if cellCost <= 0 {
		cellCost = 1
	}
	dpus := p.Ranks * pim.DPUsPerRank
	if dpus <= 0 {
		dpus = 1
	}
	hz := float64(p.FreqMHz) * 1e6
	if hz <= 0 {
		hz = 1
	}
	return float64(load) * float64(cellCost) / (hz * float64(dpus))
}

// PiMBackend is one simulated PiM server: the fabric model with its own
// rank count, clock and (optionally) fault profile. The single fabric a
// fleet-less Config describes is an unnamed one at the Config's own rank
// count and clock (alignBatch). Results are bit-identical to the
// single-fabric run on the same pairs — geometry limits (MRAM/WRAM) are
// inherited from the parent Config, so the escalation ladder makes
// identical decisions everywhere; only the modelled timeline scales with
// the server's size and clock.
type PiMBackend struct {
	name    string
	ranks   int
	freqMHz int
	// faults optionally replaces the parent Config's fault profile on
	// this server (nil = inherit). Either way the draw seed is salted by
	// seedSalt so a fleet's servers fail independently; salt 0 (the first
	// fleet slot) reproduces the single-fabric draws exactly.
	faults   *pim.FaultConfig
	seedSalt int64

	down       atomic.Bool
	failRounds atomic.Int32
}

// NewPiMBackend builds one fleet PiM server. Zero ranks or frequency
// inherit the paper's defaults (40 ranks at 350 MHz).
func NewPiMBackend(name string, ranks, freqMHz int) *PiMBackend {
	def := pim.DefaultConfig()
	if ranks <= 0 {
		ranks = def.Ranks
	}
	if freqMHz <= 0 {
		freqMHz = def.FreqMHz
	}
	return &PiMBackend{name: name, ranks: ranks, freqMHz: freqMHz}
}

// SetFaults overrides the fault profile for this server only.
func (b *PiMBackend) SetFaults(fc pim.FaultConfig) *PiMBackend { b.faults = &fc; return b }

// SetSeedSalt decorrelates this server's fault draws from its siblings'.
func (b *PiMBackend) SetSeedSalt(s int64) *PiMBackend { b.seedSalt = s; return b }

// FailRounds makes the next n Round calls fail with ErrBackendDown and
// then marks the backend down — the whole-server crash injection the
// fleet recovery tests use.
func (b *PiMBackend) FailRounds(n int) { b.failRounds.Store(int32(n)) }

func (b *PiMBackend) Name() string  { return b.name }
func (b *PiMBackend) Ranks() int    { return b.ranks }
func (b *PiMBackend) Healthy() bool { return !b.down.Load() }

func (b *PiMBackend) EstimateSec(cfg *Config, load int64) float64 {
	p := cfg.PIM
	p.Ranks, p.FreqMHz = b.ranks, b.freqMHz
	return pimEstimateSec(cfg, p, load)
}

func (b *PiMBackend) Round(cfg Config, pairs []Pair, sp *obs.Span) (*Report, []Result, error) {
	if b.failRounds.Load() > 0 {
		b.failRounds.Add(-1)
		b.down.Store(true)
	}
	if b.down.Load() {
		return nil, nil, fmt.Errorf("%w: %s", ErrBackendDown, b.name)
	}
	// Size the fabric to this server; MRAM/WRAM/stack/bus stay the
	// parent's so kernel geometry — and with it every escalation-ladder
	// decision — is identical across the fleet.
	bcfg := cfg
	bcfg.PIM.Ranks, bcfg.PIM.FreqMHz = b.ranks, b.freqMHz
	bcfg.Kernel.PIM = bcfg.PIM
	if b.faults != nil {
		bcfg.Faults = *b.faults
		bcfg.Faults.Seed += cfg.Faults.Seed // compose with stream/round decorrelation
	}
	bcfg.Faults.Seed += b.seedSalt
	return alignPairsRound(bcfg, pairs, sp)
}

// CPUBackend is the CPU baseline pool as a fleet member: it computes
// pairs through the DPU kernel's own engine choice (kernel.Config.Align),
// so scores, CIGARs, clip/overflow flags — and therefore every
// escalation-ladder decision — are bit-identical to the PiM backends. Its
// modelled makespan prices the DP cells on a calibrated aggregate
// throughput; there are no host↔device transfers, so transfer fields stay
// zero and per-DPU fault injection does not apply.
type CPUBackend struct {
	name    string
	threads int
	// cellsPerSecTB / cellsPerSecScore are the modelled aggregate DP-cell
	// throughputs at `threads` workers.
	cellsPerSecTB    float64
	cellsPerSecScore float64

	down       atomic.Bool
	failRounds atomic.Int32
}

// NewCPUBackend builds a CPU pool backend with the given worker count
// (default 8), priced against the paper's Xeon 4215 scaled to the pool
// size.
func NewCPUBackend(name string, threads int) *CPUBackend {
	if threads <= 0 {
		threads = 8
	}
	m := baseline.Xeon4215
	scale := float64(threads) / float64(m.Cores)
	return &CPUBackend{
		name: name, threads: threads,
		cellsPerSecTB:    m.TBCellsPerSec * scale,
		cellsPerSecScore: m.ScoreCellsPerSec * scale,
	}
}

// FailRounds mirrors PiMBackend.FailRounds for the CPU pool.
func (b *CPUBackend) FailRounds(n int) { b.failRounds.Store(int32(n)) }

func (b *CPUBackend) Name() string  { return b.name }
func (b *CPUBackend) Ranks() int    { return 1 } // one timeline lane
func (b *CPUBackend) Healthy() bool { return !b.down.Load() }

func (b *CPUBackend) rate(traceback bool) float64 {
	if traceback {
		return b.cellsPerSecTB
	}
	return b.cellsPerSecScore
}

func (b *CPUBackend) EstimateSec(cfg *Config, load int64) float64 {
	return float64(load) / b.rate(cfg.Kernel.Traceback)
}

func (b *CPUBackend) Round(cfg Config, pairs []Pair, sp *obs.Span) (*Report, []Result, error) {
	if b.failRounds.Load() > 0 {
		b.failRounds.Add(-1)
		b.down.Store(true)
	}
	if b.down.Load() {
		return nil, nil, fmt.Errorf("%w: %s", ErrBackendDown, b.name)
	}
	rep := newReport(cfg.TraceID)
	if len(pairs) == 0 {
		return rep, nil, nil
	}
	csp := sp.Child("host.cpu_backend")
	csp.SetAttrInt("pairs", int64(len(pairs)))
	defer csp.End()

	k := cfg.Kernel
	results := make([]Result, len(pairs))
	// Contiguous chunks, one pooled scratch arena per worker — the same
	// thread-private reuse the baseline pool plays.
	chunk := (len(pairs) + b.threads - 1) / b.threads
	nChunks := (len(pairs) + chunk - 1) / chunk
	if err := parallelFor(cfg.workers(), nChunks, func(ci int) error {
		lo, hi := ci*chunk, (ci+1)*chunk
		if hi > len(pairs) {
			hi = len(pairs)
		}
		scratch := core.GetScratch()
		defer core.PutScratch(scratch)
		for i := lo; i < hi; i++ {
			p := pairs[i]
			results[i] = Result{PairResult: k.Align(scratch, p.ID, p.A, p.B), Rank: 0, DPU: -1}
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}

	var cells int64
	for i := range results {
		cells += results[i].Cells
	}
	mk := float64(cells) / b.rate(k.Traceback)
	rep.MakespanSec = mk
	rep.KernelSecSum = mk
	rep.TotalCells = cells
	rep.Alignments = len(results)
	rep.Batches = 1
	rep.Ranks = []RankStats{{
		Rank: 0, Batch: 0, KernelSec: mk, FastestDPUSec: mk, EndSec: mk,
		LoadedDPUs: b.threads, Attempts: 1,
	}}
	return rep, results, nil
}

// ParseFleet parses the -fleet specification shared by alignd, pimalign
// and experiments: a comma-separated backend list where each entry is
//
//	pim[:RANKS[@FREQMHZ]][~FAULTRATE]   a simulated PiM server
//	cpu[:THREADS]                       a CPU worker pool
//
// e.g. "pim:40,pim:20@300,cpu:16". Backends are auto-named by position
// ("pim0", "cpu2", ...) and PiM servers get position-salted fault seeds
// so a fleet's servers fail independently; the first slot keeps the
// unsalted seed, making a one-backend fleet bit-identical to the plain
// single-fabric run, fault draws included. An empty spec returns nil (no
// fleet).
func ParseFleet(spec string) ([]Backend, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var fleet []Backend
	for i, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("host: fleet entry %d is empty", i)
		}
		var faultRate float64
		if at := strings.IndexByte(entry, '~'); at >= 0 {
			r, err := strconv.ParseFloat(entry[at+1:], 64)
			if err != nil || r < 0 || r > 1 {
				return nil, fmt.Errorf("host: fleet entry %q: bad fault rate", entry)
			}
			faultRate = r
			entry = entry[:at]
		}
		kind, args, _ := strings.Cut(entry, ":")
		switch kind {
		case "pim":
			ranks, freq := 0, 0
			if args != "" {
				rs, fs, hasFreq := strings.Cut(args, "@")
				var err error
				if ranks, err = strconv.Atoi(rs); err != nil || ranks <= 0 {
					return nil, fmt.Errorf("host: fleet entry %q: bad rank count", entry)
				}
				if hasFreq {
					if freq, err = strconv.Atoi(fs); err != nil || freq <= 0 {
						return nil, fmt.Errorf("host: fleet entry %q: bad frequency", entry)
					}
				}
			}
			b := NewPiMBackend("pim"+strconv.Itoa(i), ranks, freq)
			b.SetSeedSalt(int64(i) * 1000000007)
			if faultRate > 0 {
				b.SetFaults(pim.FaultConfig{Rate: faultRate})
			}
			fleet = append(fleet, b)
		case "cpu":
			if faultRate > 0 {
				return nil, fmt.Errorf("host: fleet entry %q: cpu pools have no DPU fault injection", entry)
			}
			threads := 0
			if args != "" {
				var err error
				if threads, err = strconv.Atoi(args); err != nil || threads <= 0 {
					return nil, fmt.Errorf("host: fleet entry %q: bad thread count", entry)
				}
			}
			fleet = append(fleet, NewCPUBackend("cpu"+strconv.Itoa(i), threads))
		default:
			return nil, fmt.Errorf("host: fleet entry %q: unknown backend kind (want pim or cpu)", entry)
		}
	}
	return fleet, nil
}

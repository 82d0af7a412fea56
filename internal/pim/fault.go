package pim

import (
	"fmt"

	"pimnw/internal/obs"
)

// FaultKind enumerates the fabric faults the model can inject. The kinds
// mirror the failure modes production UPMEM deployments report: tasklets
// stuck in MRAM arbitration (stall), thermally throttled DPUs (slow),
// kernels aborting on a hardware fault (crash), host<->MRAM transfers
// corrupted in flight (corrupt), and whole ranks dropping off the DDR bus
// (rank dropout, detected when the launch call errors).
type FaultKind uint8

// Fault kinds.
const (
	FaultNone FaultKind = iota
	// FaultStall makes the DPU orders of magnitude slower than modelled —
	// in a real deployment it looks stuck until the host's batch deadline
	// expires.
	FaultStall
	// FaultSlow inflates the DPU's cycle count by a moderate factor.
	FaultSlow
	// FaultCrash aborts the kernel; the launch returns a FaultError.
	FaultCrash
	// FaultCorrupt flips bits in the DPU's result transfer; the host
	// detects it through the per-batch result checksum.
	FaultCorrupt
	// FaultRankDrop drops the whole rank off the bus for one launch.
	FaultRankDrop
)

// String names the kind for metrics, traces and reports.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultStall:
		return "stall"
	case FaultSlow:
		return "slow"
	case FaultCrash:
		return "crash"
	case FaultCorrupt:
		return "corrupt"
	case FaultRankDrop:
		return "rank_drop"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// Fault is one drawn fault. Factor is the cycle multiplier for the
// stall/slow kinds and unused otherwise.
type Fault struct {
	Kind   FaultKind
	Factor float64
}

// FaultError is the error a crashed (or rank-dropped) launch returns. The
// host's recovery loop distinguishes it from genuine configuration or
// capacity errors, which are never retried.
type FaultError struct {
	DPU  int
	Kind FaultKind
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("pim: injected %s fault on DPU %d", e.Kind, e.DPU)
}

// Default fault-kind mix: stalls and slowdowns dominate (they do on real
// fleets), crashes and corruptions are rarer.
const (
	defaultStallWeight   = 0.25
	defaultSlowWeight    = 0.45
	defaultCrashWeight   = 0.15
	defaultCorruptWeight = 0.15
	defaultSlowFactor    = 8
	defaultStallFactor   = 512
)

// FaultConfig parameterises the fault model. The zero value is a perfect
// fabric (no injection).
type FaultConfig struct {
	// Rate is the per-DPU-launch fault probability.
	Rate float64
	// RankDropRate is the per-batch-launch probability that the whole
	// rank drops off the bus (detected at launch time).
	RankDropRate float64
	// Seed makes every draw deterministic: the same seed and the same
	// (batch, attempt, dpu) coordinates always produce the same fault,
	// independent of host scheduling.
	Seed int64
	// Kind weights; all zero selects the default mix.
	StallWeight, SlowWeight, CrashWeight, CorruptWeight float64
	// SlowFactor and StallFactor are the cycle multipliers (defaults 8
	// and 512).
	SlowFactor, StallFactor float64
}

// Enabled reports whether the configuration injects anything.
func (c FaultConfig) Enabled() bool { return c.Rate > 0 || c.RankDropRate > 0 }

// Validate rejects impossible fault configurations. The rate checks are
// written so that NaN, which compares false with everything, fails them.
func (c FaultConfig) Validate() error {
	if !(c.Rate >= 0 && c.Rate <= 1) {
		return fmt.Errorf("pim: fault Rate %g outside [0,1]", c.Rate)
	}
	if !(c.RankDropRate >= 0 && c.RankDropRate <= 1) {
		return fmt.Errorf("pim: RankDropRate %g outside [0,1]", c.RankDropRate)
	}
	if c.StallWeight < 0 || c.SlowWeight < 0 || c.CrashWeight < 0 || c.CorruptWeight < 0 {
		return fmt.Errorf("pim: negative fault kind weight")
	}
	if c.SlowFactor < 0 || c.StallFactor < 0 {
		return fmt.Errorf("pim: negative fault factor")
	}
	if c.SlowFactor != 0 && c.SlowFactor < 1 || c.StallFactor != 0 && c.StallFactor < 1 {
		return fmt.Errorf("pim: fault factors below 1 would speed the DPU up")
	}
	return nil
}

// FaultModel draws deterministic faults from a FaultConfig. A nil model is
// the disabled state: every draw returns FaultNone.
type FaultModel struct {
	cfg                           FaultConfig
	wStall, wSlow, wCrash, wTotal float64
	slowFactor, stallFactor       float64
}

// NewFaultModel validates the configuration and builds a model; a disabled
// configuration yields a nil model, which is safe to draw from.
func NewFaultModel(c FaultConfig) (*FaultModel, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if !c.Enabled() {
		return nil, nil
	}
	m := &FaultModel{cfg: c}
	wStall, wSlow, wCrash, wCorrupt := c.StallWeight, c.SlowWeight, c.CrashWeight, c.CorruptWeight
	if wStall+wSlow+wCrash+wCorrupt == 0 {
		wStall, wSlow, wCrash, wCorrupt = defaultStallWeight, defaultSlowWeight, defaultCrashWeight, defaultCorruptWeight
	}
	m.wStall = wStall
	m.wSlow = wStall + wSlow
	m.wCrash = wStall + wSlow + wCrash
	m.wTotal = wStall + wSlow + wCrash + wCorrupt
	m.slowFactor = c.SlowFactor
	if m.slowFactor == 0 {
		m.slowFactor = defaultSlowFactor
	}
	m.stallFactor = c.StallFactor
	if m.stallFactor == 0 {
		m.stallFactor = defaultStallFactor
	}
	return m, nil
}

// splitmix64's finalizer: a strong bijective mixer, the core of every
// deterministic draw.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hash chains the draw coordinates through the mixer so that every
// (seed, stream, batch, attempt, unit) tuple lands on an independent
// uniform value.
func (m *FaultModel) hash(stream, batch, attempt, unit int) uint64 {
	h := mix64(uint64(m.cfg.Seed) ^ 0x9e3779b97f4a7c15)
	h = mix64(h ^ uint64(stream))
	h = mix64(h ^ uint64(batch))
	h = mix64(h ^ uint64(attempt))
	return mix64(h ^ uint64(unit))
}

// uniform maps a hash to [0,1).
func uniform(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Draw returns the fault injected into one DPU launch, identified by its
// batch, recovery attempt and DPU index. Deterministic in the seed and the
// coordinates; FaultNone from a nil model.
func (m *FaultModel) Draw(batch, attempt, dpu int) Fault {
	if m == nil || m.cfg.Rate == 0 {
		return Fault{}
	}
	h := m.hash(1, batch, attempt, dpu)
	if uniform(h) >= m.cfg.Rate {
		return Fault{}
	}
	f := Fault{}
	switch pick := uniform(mix64(h^0xd6e8feb86659fd93)) * m.wTotal; {
	case pick < m.wStall:
		f = Fault{Kind: FaultStall, Factor: m.stallFactor}
	case pick < m.wSlow:
		f = Fault{Kind: FaultSlow, Factor: m.slowFactor}
	case pick < m.wCrash:
		f = Fault{Kind: FaultCrash}
	default:
		f = Fault{Kind: FaultCorrupt}
	}
	m.count(f.Kind)
	return f
}

// DrawRankDrop reports whether the whole rank drops off the bus for this
// batch launch attempt.
func (m *FaultModel) DrawRankDrop(batch, attempt int) bool {
	if m == nil || m.cfg.RankDropRate == 0 {
		return false
	}
	if uniform(m.hash(2, batch, attempt, 0)) < m.cfg.RankDropRate {
		m.count(FaultRankDrop)
		return true
	}
	return false
}

// Jitter is a deterministic uniform [0,1) stream for the host's retry
// backoff, keyed like the fault draws so recovery timing is reproducible.
func (m *FaultModel) Jitter(batch, attempt int) float64 {
	if m == nil {
		return 0
	}
	return uniform(m.hash(3, batch, attempt, 0))
}

// count publishes one injected fault to the default metrics registry.
func (m *FaultModel) count(k FaultKind) {
	reg := obs.Default()
	if reg == nil {
		return
	}
	reg.Counter("pim_faults_injected_total").Add(1)
	reg.Counter("pim_faults_injected_" + k.String() + "_total").Add(1)
}

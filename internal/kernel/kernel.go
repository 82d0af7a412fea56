// Package kernel is the DPU program of the paper's §4.2: the adaptive
// banded Needleman & Wunsch compute kernel that runs on every DPU of the
// (simulated) PiM system. It owns everything that is device-side in the
// paper: the pool-of-tasklets execution geometry (P pools of T tasklets,
// §4.2.3), the WRAM working-set budget (four w-sized anti-diagonal arrays,
// §4.2.1), the MRAM-resident traceback structure streamed row by row
// (§4.2.2), the staged sequences, and the per-phase instruction/DMA cost
// accounting under one of the two ISA cost tables (pure C vs hand-written
// assembly, §4.2.4). The model charges the bank 2 bits per base (§4.1.1);
// the kernel computes on the host's own bases, and the DPU's 2-bit
// extraction is part of the per-cell cost.
//
// The cell recurrence itself is shared with internal/core — the DPU
// kernel and the host reference implementation compute bit-identical
// alignments by construction, which is what lets the experiment harness
// attribute every accuracy difference to band geometry rather than to
// implementation divergence.
package kernel

import (
	"fmt"

	"pimnw/internal/core"
	"pimnw/internal/pim"
	"pimnw/internal/seq"
)

// Geometry is the tasklet execution shape: P pools of T tasklets each.
type Geometry struct {
	Pools           int // P: alignments in flight per DPU
	TaskletsPerPool int // T: tasklets cooperating on one anti-diagonal
}

// DefaultGeometry is the paper's evaluated configuration (P=6, T=4, 24
// tasklets, 95–99 % pipeline utilisation).
func DefaultGeometry() Geometry { return Geometry{Pools: 6, TaskletsPerPool: 4} }

// Tasklets is the number of booted tasklets.
func (g Geometry) Tasklets() int { return g.Pools * g.TaskletsPerPool }

// Config assembles one kernel build: geometry, band, scoring, cost table.
type Config struct {
	Geometry Geometry
	Band     int         // adaptive band size w (cells per anti-diagonal)
	Params   core.Params // scoring model
	Costs    pim.CostTable
	// Traceback selects the CIGAR-producing kernel; false is the
	// score-only kernel used by the 16S experiment.
	Traceback bool
	// LaneWidth selects the DP cell width in bits of the modelled DPU
	// kernel: 64 is the full-width kernel, 16 the saturating
	// narrow-lane kernel (the modelled narrow DPU kernel is score-only;
	// overflowed pairs come back flagged for the host ladder), and 0 is
	// auto — narrow whenever the mode and scoring model admit it. Narrow
	// lanes halve the per-pool WRAM working set, so wider bands fit
	// on-DPU at the same geometry. The lane width names the model, not the
	// arithmetic the simulator runs: under auto a traceback run is
	// modelled at 64 yet computed in 16-bit lanes when they fit (same
	// answers, see Align); an explicit 64 pins the full-width engine in
	// both modes.
	LaneWidth int
	// PIM provides the WRAM/MRAM capacities the kernel must fit in.
	PIM pim.Config
}

// ParseLaneWidth parses the -lanes command-line value shared by pimalign,
// experiments and alignd: "auto" (or "") is 0, else "16" or "64".
func ParseLaneWidth(s string) (int, error) {
	switch s {
	case "", "auto":
		return 0, nil
	case "16":
		return 16, nil
	case "64":
		return 64, nil
	default:
		return 0, fmt.Errorf("kernel: -lanes=%q not supported (want auto, 16 or 64)", s)
	}
}

// Lanes resolves LaneWidth for a band/traceback mode: auto picks the
// 16-bit kernel when the run is score-only and core.NarrowFits admits the
// scoring model at that band, else the 64-bit kernel.
func (c Config) Lanes(band int, traceback bool) int {
	switch c.LaneWidth {
	case 16, 64:
		return c.LaneWidth
	default:
		if !traceback && core.NarrowFits(c.Params, band) {
			return 16
		}
		return 64
	}
}

// WRAM working-set constants (bytes), documented in DESIGN.md §5. The real
// kernel's figures differ in detail; what matters is that the budget is
// enforced, producing the paper's §4.2.3 trade-off: alignment-level
// parallelism alone cannot boot enough tasklets to fill the pipeline.
const (
	seqWindowBytes = 2 * 512  // streaming windows into the two packed sequences
	btBufferBytes  = 2 * 1024 // double-buffered BT rows awaiting MRAM flush
	poolSharedVars = 128      // master/worker shared state per pool
)

// poolWRAM returns the per-pool WRAM working set for band w: the four
// w-sized anti-diagonal arrays of §4.2.1 (two H generations kept by
// in-place update, plus I and D) at the kernel's lane width — int32 cells
// for the 64-bit kernel, int16 for the narrow kernel, which is how narrow
// lanes buy band width — the sequence windows, the BT flush buffers
// (traceback kernels only) and the shared variables.
func poolWRAM(w int, traceback bool, lanes int) int {
	cell := 4
	if lanes == 16 {
		cell = 2
	}
	n := 4*cell*w + seqWindowBytes + poolSharedVars
	if traceback {
		n += btBufferBytes
	}
	return n
}

// Validate checks the geometry against the device: tasklet count, and the
// full WRAM budget (stacks + per-pool working sets) via an allocation pass
// against the scratchpad's capacity model.
func (c Config) Validate() error {
	g := c.Geometry
	if g.Pools < 1 || g.TaskletsPerPool < 1 {
		return fmt.Errorf("kernel: geometry %+v must be at least 1x1", g)
	}
	if g.Tasklets() > pim.MaxTasklets {
		return fmt.Errorf("kernel: %d tasklets exceed the DPU's %d hardware threads",
			g.Tasklets(), pim.MaxTasklets)
	}
	if c.Band < 2 {
		return fmt.Errorf("kernel: band %d too small", c.Band)
	}
	if c.Band%2 != 0 {
		return fmt.Errorf("kernel: band %d must be even (paired nibble rows)", c.Band)
	}
	switch c.LaneWidth {
	case 0, 16, 64:
	default:
		return fmt.Errorf("kernel: lane width %d not supported (want 0, 16 or 64)", c.LaneWidth)
	}
	if c.LaneWidth == 16 && c.Traceback {
		return fmt.Errorf("kernel: the modelled narrow DPU kernel is score-only; the simulator already runs traceback in 16-bit lanes under auto (use lane width 0 or 64 with traceback)")
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if err := c.PIM.Validate(); err != nil {
		return err
	}
	if c.Costs.CellScore <= 0 {
		return fmt.Errorf("kernel: cost table %q has no per-cell cost", c.Costs.Name)
	}
	return c.layoutWRAM()
}

// layoutWRAM performs the boot-time scratchpad layout against the capacity
// model, returning an overflow error identifying the geometry as
// infeasible.
func (c Config) layoutWRAM() error {
	w, err := pim.NewWRAM(c.PIM.WRAM, c.Geometry.Tasklets()*c.PIM.StackBytes)
	if err != nil {
		return fmt.Errorf("kernel: %v", err)
	}
	lanes := c.Lanes(c.Band, c.Traceback)
	for pool := 0; pool < c.Geometry.Pools; pool++ {
		if err := w.Alloc(poolWRAM(c.Band, c.Traceback, lanes)); err != nil {
			return fmt.Errorf("kernel: pool %d working set does not fit: %v", pool, err)
		}
	}
	return nil
}

// Pair is one alignment request: the host's own bases, which the kernel
// reads in place and never writes. StagePair charges their 2-bit packed
// form to a DPU's bank.
type Pair struct {
	ID   int // caller-chosen identifier, returned with the result
	A, B seq.Seq
}

// Workload is the paper's equation (6) load estimate for a pair:
// (m+n)·w, the quantity the host's balancer uses.
func (p Pair) Workload(band int) int64 {
	return int64(len(p.A)+len(p.B)) * int64(band)
}

// PairResult is one alignment outcome returned to the host.
type PairResult struct {
	ID     int
	Score  int32
	InBand bool
	// Clipped reports that the band may have cut the optimal path off
	// (see core.Result.Clipped); the host's escalation ladder re-dispatches
	// clipped pairs at a wider band rather than trusting the score.
	Clipped bool
	// Overflowed reports that the 16-bit narrow-lane kernel hit a
	// saturation sticky bit on this pair; Score is meaningless and the
	// host re-dispatches the pair on the full-width kernel.
	Overflowed bool
	Cigar      []byte // serialized CIGAR text, nil for score-only kernels
	Cells      int64
	Steps      int
}

// Align computes one pair on the engine the config names and returns the
// result as the host receives it — the one place the engine is chosen, for
// the DPU kernel and for the CPU pool backend alike, so scores, CIGARs and
// clip/overflow flags (and with them every escalation-ladder decision) are
// bit-identical wherever a pair runs. The traceback kernel is modelled
// full-width; it is computed narrow-first with an in-engine fallback
// (core's AdaptiveBandAlign — the result is the wide engine's bit for bit)
// unless the lane width is pinned to 64. The score-only kernel pins the
// engine the resolved lane width names, so a narrow overflow surfaces as a
// flagged result for the host ladder instead of silently falling back
// on-device.
func (c Config) Align(scratch *core.Scratch, id int, a, b seq.Seq) PairResult {
	var res core.Result
	switch {
	case c.Traceback && c.LaneWidth == 64:
		res = scratch.AdaptiveBandAlignWide(a, b, c.Params, c.Band)
	case c.Traceback:
		res = scratch.AdaptiveBandAlign(a, b, c.Params, c.Band)
	case c.Lanes(c.Band, c.Traceback) == 16:
		res = scratch.AdaptiveBandScoreNarrow(a, b, c.Params, c.Band)
	default:
		res = scratch.AdaptiveBandScoreWide(a, b, c.Params, c.Band)
	}
	pr := PairResult{ID: id, Score: res.Score, InBand: res.InBand,
		Clipped: res.Clipped, Overflowed: res.Overflowed, Cells: res.Cells, Steps: res.Steps}
	if c.Traceback && res.Cigar != nil {
		pr.Cigar = []byte(res.Cigar.String())
	}
	return pr
}

// FitGeometry shrinks the pool count of cfg's geometry until a kernel at
// the given band (and traceback mode) passes the WRAM admission check of
// Config.Validate, trading alignment-level parallelism for band width —
// the escalation ladder's way of booting wider-band kernels on the same
// device. The tasklets-per-pool shape is preserved. ok=false means even a
// single pool cannot hold the band's working set.
func FitGeometry(cfg Config, band int, traceback bool) (Geometry, bool) {
	for pools := cfg.Geometry.Pools; pools >= 1; pools-- {
		c := cfg
		c.Geometry.Pools = pools
		c.Band = band
		c.Traceback = traceback
		if c.Validate() == nil {
			return c.Geometry, true
		}
	}
	return Geometry{}, false
}

// FitsMRAM reports whether a single pair of the given base lengths can run
// at the given band on one DPU: packed sequences plus (for traceback
// kernels) the full BT scratch must fit the MRAM bank. It is the per-pair
// admission check the escalation ladder applies before re-dispatching a
// pair at a wider band; pairs that fail it skip straight to the next
// degradation rung.
func FitsMRAM(p pim.Config, alen, blen, band int, traceback bool) bool {
	need := seq.PackedSize(alen) + seq.PackedSize(blen)
	if traceback {
		need += (alen + blen + 1) * core.NibbleRowSize(band)
	}
	return need <= p.MRAM
}

// StagePair charges a pair's two 2-bit packed sequences (§4.1.1) to the
// DPU's MRAM bank and returns the pair, the host-side encode step. It fails
// with the bank's overflow error when they do not fit.
func StagePair(d *pim.DPU, id int, a, b seq.Seq) (Pair, error) {
	if err := d.MRAM.Alloc(seq.PackedSize(len(a))); err != nil {
		return Pair{}, err
	}
	if err := d.MRAM.Alloc(seq.PackedSize(len(b))); err != nil {
		return Pair{}, err
	}
	return Pair{ID: id, A: a, B: b}, nil
}

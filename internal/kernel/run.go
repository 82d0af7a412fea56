package kernel

import (
	"fmt"

	"pimnw/internal/core"
	"pimnw/internal/obs"
	"pimnw/internal/pim"
	"pimnw/internal/seq"
)

// Histogram boundaries for the kernel's registry metrics: effective band
// width (cells per computed anti-diagonal, which dips below the configured
// w near the DP corners) and per-DPU pipeline utilization.
var (
	bandWidthBuckets   = []float64{8, 16, 32, 64, 128, 256, 512, 1024}
	utilizationBuckets = []float64{0.5, 0.7, 0.8, 0.9, 0.95, 0.99}
)

// launch is Run's working state: the tasklet traces with the simulators'
// state, the decoded pair and the pool bookkeeping. It is recycled through
// launches, so a warm launch allocates little beyond what it returns. One
// launch holds it at a time, and nothing Run returns aliases it.
type launch struct {
	run    pim.DPURun
	a, b   seq.Seq
	loads  []int64
	btPeak []int
}

// launches is the free list of launch states, shared by every caller of
// Run. It is not a sync.Pool because a pool drops its contents at every GC
// (and at random under the race detector), and a dropped state regrows
// 24 traces; the free list keeps one state per launch that ever ran
// concurrently, up to its capacity, which is one per DPU of a rank.
var launches = make(chan *launch, pim.DPUsPerRank)

// DPUOutcome is everything one DPU produces for a batch: the alignment
// results and the simulated execution statistics.
type DPUOutcome struct {
	Results []PairResult
	Stats   pim.DPUStats
	// MRAMPeak is the modelled peak MRAM consumption: staged sequences
	// plus the concurrent per-pool BT scratch regions.
	MRAMPeak int
	// Checksum covers the result payload as it left the DPU. The host
	// recomputes it with ChecksumResults over the results it received; a
	// mismatch means the MRAM->host transfer was corrupted and the
	// batch's pairs must be redispatched.
	Checksum uint64
}

// ChecksumResults hashes a result list (FNV-1a over every field of every
// result) — the per-batch transfer checksum of the host's recovery
// protocol. Both sides of the simulated bus call it: the kernel to stamp
// DPUOutcome.Checksum, the host to verify what it collected.
func ChecksumResults(rs []PairResult) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	byte8 := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, r := range rs {
		byte8(uint64(r.ID))
		byte8(uint64(uint32(r.Score)))
		flags := uint64(0)
		if r.InBand {
			flags |= 1
		}
		if r.Clipped {
			flags |= 2
		}
		if r.Overflowed {
			flags |= 4
		}
		byte8(flags)
		byte8(uint64(r.Cells))
		byte8(uint64(r.Steps))
		byte8(uint64(len(r.Cigar)))
		for _, b := range r.Cigar {
			h ^= uint64(b)
			h *= prime64
		}
	}
	return h
}

// Run executes the kernel on one DPU: the pairs staged in the DPU's MRAM
// are distributed over the P pools (LPT, the heuristic the host balances
// ranks and DPUs with, at pool granularity), each pool's tasklets compute the
// adaptive-banded DP anti-diagonal by anti-diagonal, the master tasklet
// streams BT rows to MRAM and performs the sequential traceback, and the
// whole schedule is priced by the fluid pipeline/DMA simulator.
func Run(d *pim.DPU, cfg Config, pairs []Pair) (DPUOutcome, error) {
	var out DPUOutcome
	if err := cfg.Validate(); err != nil {
		return out, err
	}
	// An injected crash aborts the launch before any work: the host's SDK
	// call returns an error instead of results.
	if d.Fault.Kind == pim.FaultCrash {
		return out, &pim.FaultError{DPU: d.ID, Kind: pim.FaultCrash}
	}
	g := cfg.Geometry
	var l *launch
	select {
	case l = <-launches:
	default:
		l = new(launch)
	}
	defer func() {
		select {
		case launches <- l:
		default:
		}
	}()
	run := &l.run
	if err := run.Reset(g.Tasklets()); err != nil {
		return out, err
	}

	// LPT assignment of pairs to pools.
	l.loads = l.loads[:0]
	for _, p := range pairs {
		l.loads = append(l.loads, p.Workload(cfg.Band))
	}
	poolPairs, _ := LPT(l.loads, g.Pools)

	out.Results = make([]PairResult, 0, len(pairs))
	rowBytes := core.NibbleRowSize(cfg.Band)
	seqBytesStaged := d.MRAM.Used()
	l.btPeak = append(l.btPeak[:0], make([]int, g.Pools)...)

	// One scratch arena serves the whole launch: pools run sequentially in
	// the simulation, and the arena (the "four integer arrays of size w" in
	// each pool's WRAM, §4.2.1) makes repeated alignments allocation-free.
	scratch := core.GetScratch()
	defer core.PutScratch(scratch)

	for pool := 0; pool < g.Pools; pool++ {
		base := pool * g.TaskletsPerPool
		master := run.Traces[base]
		workers := run.Traces[base : base+g.TaskletsPerPool]
		group := int64(pool)
		for _, idx := range poolPairs[pool] {
			p := pairs[idx]
			l.a = loadSeq(l.a, d, p.AOff, p.ALen)
			l.b = loadSeq(l.b, d, p.BOff, p.BLen)
			pr, btBytes, err := alignOne(d, cfg, scratch, p, l.a, l.b, rowBytes, master, workers, group)
			if err != nil {
				return out, err
			}
			if btBytes > l.btPeak[pool] {
				l.btPeak[pool] = btBytes
			}
			out.Results = append(out.Results, pr)
		}
	}

	// MRAM pressure: in the real device the P pools hold their BT scratch
	// regions concurrently; model the peak as the sum of per-pool maxima.
	peak := seqBytesStaged
	for _, n := range l.btPeak {
		peak += n
	}
	out.MRAMPeak = peak
	if peak > d.MRAM.Capacity() {
		return out, fmt.Errorf("kernel: modelled MRAM peak %d exceeds the %d-byte bank (band %d too large for this batch)",
			peak, d.MRAM.Capacity(), cfg.Band)
	}

	stats, err := pim.FluidSimulate(run)
	if err != nil {
		return out, err
	}
	// Stall/slowdown faults inflate the modelled execution time: the DPU
	// still produces correct results, just (much) later — it is the host's
	// batch deadline that turns a stall into a failure.
	if k := d.Fault.Kind; (k == pim.FaultStall || k == pim.FaultSlow) && d.Fault.Factor > 1 {
		stats.Cycles = int64(float64(stats.Cycles) * d.Fault.Factor)
	}
	out.Stats = stats
	// Stamp the transfer checksum over the true results, then apply any
	// injected transfer corruption so the host's verification catches it.
	out.Checksum = ChecksumResults(out.Results)
	if d.Fault.Kind == pim.FaultCorrupt && len(out.Results) > 0 {
		r := &out.Results[len(out.Results)/2]
		r.Score ^= 1 << 30
		if len(r.Cigar) > 0 {
			r.Cigar[len(r.Cigar)/2] ^= 0xff
		}
	}
	if reg := obs.Default(); reg != nil {
		reg.Counter("pim_dpu_runs_total").Add(1)
		reg.Histogram("pim_dpu_utilization", utilizationBuckets).Observe(stats.Utilization())
	}
	return out, nil
}

// alignOne computes one pair, decoded as a and b, on a pool and appends
// its execution trace.
func alignOne(d *pim.DPU, cfg Config, scratch *core.Scratch, pair Pair, a, b seq.Seq, rowBytes int,
	master *pim.TaskletTrace, workers []*pim.TaskletTrace, group int64) (PairResult, int, error) {

	pr := cfg.Align(scratch, pair.ID, a, b)

	// BT scratch in MRAM: (steps+1) nibble rows, streamed out and read
	// back but never inspected by the simulator, so it is a capacity check
	// (the constraint of §3.3), not bytes.
	btBytes := 0
	if cfg.Traceback {
		btBytes = (pr.Steps + 1) * rowBytes
		if err := d.MRAM.Reserve(btBytes); err != nil {
			return pr, 0, fmt.Errorf("kernel: BT scratch for pair %d: %v", pair.ID, err)
		}
	}

	emitTrace(cfg, pair, pr, rowBytes, master, workers, group)

	// Per-alignment metrics. The nil-registry path is the no-op fast path:
	// one pointer load and a branch, zero allocations (asserted in
	// internal/obs's overhead tests), so the simulation hot loop is
	// unaffected when metrics are off.
	if reg := obs.Default(); reg != nil {
		reg.Counter("pim_alignments_total").Add(1)
		reg.Counter("pim_cells_total").Add(pr.Cells)
		reg.Counter("pim_steps_total").Add(int64(pr.Steps))
		if pr.Steps > 0 {
			reg.Histogram("pim_band_width_cells", bandWidthBuckets).
				Observe(float64(pr.Cells) / float64(pr.Steps))
		}
	}
	return pr, btBytes, nil
}

// emitTrace prices the alignment: the DP phase in BT-flush intervals, then
// the master-only traceback, with pool barriers fencing the phases.
func emitTrace(cfg Config, pair Pair, res PairResult, rowBytes int,
	master *pim.TaskletTrace, workers []*pim.TaskletTrace, group int64) {

	t := int64(len(workers))
	cigarLen := len(res.Cigar)
	costs := cfg.Costs
	cellCost := costs.CellScore
	if cfg.Traceback {
		cellCost = costs.CellTB
	}
	master.Exec(costs.AlignSetup)

	// Rows flushed per interval: half of the double buffer.
	flushSteps := (btBufferBytes / 2) / rowBytes
	if flushSteps < 1 {
		flushSteps = 1
	}
	seqBytes := int64((pair.ALen+3)/4 + (pair.BLen+3)/4)
	steps := int64(res.Steps)
	cells := res.Cells
	seqLeft := seqBytes
	stepsLeft := steps
	cellsLeft := cells
	for stepsLeft > 0 {
		h := int64(flushSteps)
		if h > stepsLeft {
			h = stepsLeft
		}
		cellsHere := cellsLeft * h / stepsLeft
		seqHere := seqLeft * h / stepsLeft
		stepsLeft -= h
		cellsLeft -= cellsHere
		seqLeft -= seqHere

		share := cellsHere / t
		for i, w := range workers {
			own := share
			if i == 0 {
				own += cellsHere % t // master absorbs the remainder
			}
			w.Exec(own*cellCost + h*costs.StepTasklet)
		}
		master.Exec(h * costs.StepMaster)
		master.DMARead(seqHere)
		if cfg.Traceback {
			master.DMAWrite(h * int64(rowBytes))
		}
		if t > 1 {
			for _, w := range workers {
				w.Barrier(group)
			}
		}
	}

	// Sequential traceback on the master (§4.2.2), streaming BT rows back
	// from MRAM in engine-sized chunks.
	if cfg.Traceback {
		btBytes := (steps + 1) * int64(rowBytes)
		cols := int64(cigarLen) // proportional to alignment columns
		for btBytes > 0 {
			chunk := int64(pim.DMAMaxBytes)
			if chunk > btBytes {
				chunk = btBytes
			}
			master.DMARead(chunk)
			colsHere := cols * chunk / ((steps+1)*int64(rowBytes) + 1)
			master.Exec(colsHere * costs.TracebackCol)
			btBytes -= chunk
		}
	}
	master.DMAWrite(int64(16 + cigarLen))
	if t > 1 {
		for _, w := range workers {
			w.Barrier(group)
		}
	}
}

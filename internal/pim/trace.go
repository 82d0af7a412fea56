package pim

import (
	"fmt"

	"pimnw/internal/obs"
)

// SegKind is a tasklet trace segment kind.
type SegKind uint8

// Segment kinds.
const (
	// SegExec executes Arg instructions through the shared pipeline.
	SegExec SegKind = iota
	// SegDMARead moves Arg bytes MRAM->WRAM; the tasklet blocks while the
	// shared DMA engine performs the transfer (§2.1).
	SegDMARead
	// SegDMAWrite moves Arg bytes WRAM->MRAM, blocking likewise.
	SegDMAWrite
	// SegBarrier synchronises the tasklet with every other tasklet that
	// uses barrier group Arg (the per-anti-diagonal pool barrier of
	// §4.2.3).
	SegBarrier
)

// Segment is one step of a tasklet's execution, in kernel-trace form.
type Segment struct {
	Kind SegKind
	Arg  int64
}

// TaskletTrace is the sequence of segments one tasklet executes.
type TaskletTrace struct {
	Segs []Segment
}

// Exec appends n instructions, merging with a trailing Exec segment.
func (t *TaskletTrace) Exec(n int64) {
	if n <= 0 {
		return
	}
	if k := len(t.Segs); k > 0 && t.Segs[k-1].Kind == SegExec {
		t.Segs[k-1].Arg += n
		return
	}
	t.Segs = append(t.Segs, Segment{SegExec, n})
}

// DMARead appends an MRAM->WRAM transfer of n bytes.
func (t *TaskletTrace) DMARead(n int64) {
	if n > 0 {
		t.Segs = append(t.Segs, Segment{SegDMARead, n})
	}
}

// DMAWrite appends a WRAM->MRAM transfer of n bytes.
func (t *TaskletTrace) DMAWrite(n int64) {
	if n > 0 {
		t.Segs = append(t.Segs, Segment{SegDMAWrite, n})
	}
}

// Barrier appends a synchronisation against barrier group g.
func (t *TaskletTrace) Barrier(g int64) {
	t.Segs = append(t.Segs, Segment{SegBarrier, g})
}

// DPURun is one DPU's complete workload: one trace per booted tasklet.
// It also carries the simulators' working state, so a run that is Reset
// and refilled simulates without allocating. A run must not be copied
// once booted, nor simulated from two goroutines at once.
type DPURun struct {
	Traces []*TaskletTrace
	traces [MaxTasklets]TaskletTrace // what Traces points into
	sim    simState
}

// NewDPURun boots n tasklets.
func NewDPURun(n int) (*DPURun, error) {
	r := &DPURun{}
	if err := r.Reset(n); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset reboots the run with n empty tasklet traces, keeping every trace's
// storage for reuse.
func (r *DPURun) Reset(n int) error {
	if n < 1 || n > MaxTasklets {
		return fmt.Errorf("pim: %d tasklets outside 1..%d", n, MaxTasklets)
	}
	r.Traces = r.Traces[:0]
	for i := range r.traces[:n] {
		r.traces[i].Segs = r.traces[i].Segs[:0]
		r.Traces = append(r.Traces, &r.traces[i])
	}
	return nil
}

// Totals sums the static work of the run.
func (r *DPURun) Totals() (instr, dmaBytes int64, dmaTransfers int64) {
	for _, t := range r.Traces {
		for _, s := range t.Segs {
			switch s.Kind {
			case SegExec:
				instr += s.Arg
			case SegDMARead, SegDMAWrite:
				dmaBytes += s.Arg
				dmaTransfers += (s.Arg + DMAMaxBytes - 1) / DMAMaxBytes
			}
		}
	}
	return instr, dmaBytes, dmaTransfers
}

// DPUStats is the outcome of simulating one DPU's run.
type DPUStats struct {
	Cycles        int64 // total execution time in DPU cycles
	Instr         int64 // instructions issued
	DMABytes      int64 // bytes moved MRAM<->WRAM
	DMATransfers  int64 // DMA engine transfers (after max-size splitting)
	DMACycles     int64 // cycles the DMA engine was busy
	IssueCycles   int64 // cycles an instruction was issued (pipeline busy)
	BarrierCycles int64 // tasklet-cycles spent blocked on pool barriers
}

// Utilization is the pipeline issue rate, the metric the paper reports as
// 95–99 % for the 6×4 pool geometry.
func (s DPUStats) Utilization() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.IssueCycles) / float64(s.Cycles)
}

// Add accumulates another run's stats (batches on the same DPU).
func (s *DPUStats) Add(o DPUStats) {
	s.Cycles += o.Cycles
	s.Instr += o.Instr
	s.DMABytes += o.DMABytes
	s.DMATransfers += o.DMATransfers
	s.DMACycles += o.DMACycles
	s.IssueCycles += o.IssueCycles
	s.BarrierCycles += o.BarrierCycles
}

// publish feeds one simulated run's stats into the default metrics
// registry; a no-op (nil registry) when metrics are disabled. Both
// simulators call it on success, so pim_sim_* counters aggregate every
// DPU execution of the process regardless of which model priced it.
func (s DPUStats) publish() {
	reg := obs.Default()
	if reg == nil {
		return
	}
	reg.Counter("pim_sim_runs_total").Add(1)
	reg.Counter("pim_sim_cycles_total").Add(s.Cycles)
	reg.Counter("pim_sim_instructions_total").Add(s.Instr)
	reg.Counter("pim_sim_dma_bytes_total").Add(s.DMABytes)
	reg.Counter("pim_sim_dma_transfers_total").Add(s.DMATransfers)
	reg.Counter("pim_sim_dma_cycles_total").Add(s.DMACycles)
	reg.Counter("pim_sim_issue_cycles_total").Add(s.IssueCycles)
	reg.Counter("pim_sim_barrier_wait_cycles_total").Add(s.BarrierCycles)
}

// LowerBound is the information-theoretic floor for a run's cycle count:
// the pipeline can issue at most one instruction per cycle (and at most
// T/11 per cycle with T tasklets), the DMA engine moves at most 2 B/cycle,
// and every individual tasklet needs 11 cycles per instruction.
func (r *DPURun) LowerBound() int64 {
	instr, bytes, transfers := r.Totals()
	t := int64(len(r.Traces))
	pipe := instr
	if t < PipelineReentry {
		pipe = instr * PipelineReentry / t
	}
	dma := transfers*DMASetupCycles + bytes/DMABytesPerCycle
	var perTasklet int64
	for _, tr := range r.Traces {
		var own int64
		for _, s := range tr.Segs {
			if s.Kind == SegExec {
				own += s.Arg * PipelineReentry
			}
		}
		if own > perTasklet {
			perTasklet = own
		}
	}
	lb := pipe
	if dma > lb {
		lb = dma
	}
	if perTasklet > lb {
		lb = perTasklet
	}
	return lb
}

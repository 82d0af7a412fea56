package pim

import (
	"math"
	"math/rand"
	"testing"

	"pimnw/internal/obs"
)

func TestDefaultConfigValid(t *testing.T) {
	c := DefaultConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.DPUs() != 2560 {
		t.Errorf("DPUs = %d, want 2560 (the paper's 20-DIMM server)", c.DPUs())
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Ranks = 0 },
		func(c *Config) { c.FreqMHz = -1 },
		func(c *Config) { c.MRAM = 0 },
		func(c *Config) { c.WRAM = 0 },
		func(c *Config) { c.StackBytes = 0 },
		func(c *Config) { c.StackBytes = c.WRAM }, // 24 stacks can't fit
		func(c *Config) { c.HostBandwidthGBs = 0 },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestCyclesToSeconds(t *testing.T) {
	c := DefaultConfig()
	if got := c.CyclesToSeconds(350e6); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("350M cycles at 350MHz = %v s, want 1", got)
	}
}

func TestHostTransferSeconds(t *testing.T) {
	c := DefaultConfig()
	if got := c.HostTransferSeconds(60e9); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("60GB at 60GB/s = %v s, want 1", got)
	}
}

func TestDMACycles(t *testing.T) {
	cases := []struct {
		bytes int64
		want  int64
	}{
		{0, 0},
		{2, 64 + 1},
		{2048, 64 + 1024},
		{4096, 2*64 + 2048}, // split into two max-size transfers
	}
	for _, tc := range cases {
		if got := DMACycles(tc.bytes); got != tc.want {
			t.Errorf("DMACycles(%d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
}

func TestMRAMAllocAndOverflow(t *testing.T) {
	m := NewMRAM(1024)
	off, err := m.Alloc(100)
	if err != nil || off != 0 {
		t.Fatalf("first alloc: off=%d err=%v", off, err)
	}
	off2, err := m.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if off2 != 104 { // 8-byte aligned bump
		t.Errorf("second alloc at %d, want 104", off2)
	}
	if _, err := m.Alloc(2000); err == nil {
		t.Error("overflow accepted")
	}
	if _, err := m.Alloc(-1); err == nil {
		t.Error("negative alloc accepted")
	}
	buf := m.Bytes(off2, 100)
	buf[0] = 42
	if m.Bytes(104, 1)[0] != 42 {
		t.Error("MRAM bytes not shared")
	}
	m.Reset()
	if m.Used() != 0 {
		t.Error("reset did not free")
	}
	if m.Capacity() != 1024 {
		t.Error("capacity changed")
	}
}

func TestMRAMOutOfRangePanics(t *testing.T) {
	m := NewMRAM(1024)
	m.Alloc(16)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range access did not panic")
		}
	}()
	m.Bytes(8, 16)
}

func TestWRAMBudget(t *testing.T) {
	w, err := NewWRAM(DefaultWRAM, 24*1536)
	if err != nil {
		t.Fatal(err)
	}
	if w.Used() != 24*1536 {
		t.Errorf("stacks not charged: used=%d", w.Used())
	}
	if err := w.Alloc(w.Free() + 1); err == nil {
		t.Error("overflow accepted")
	}
	if err := w.Alloc(100); err != nil || w.Used() != 24*1536+104 {
		t.Fatalf("alloc: used %d: %v", w.Used(), err)
	}
	if _, err := NewWRAM(1024, 2048); err == nil {
		t.Error("stacks larger than WRAM accepted")
	}
}

// TestMRAMReserve pins the BT stream's capacity model: Reserve charges
// nothing and materialises nothing, and refuses exactly what Alloc would,
// with Alloc's error.
func TestMRAMReserve(t *testing.T) {
	m := NewMRAM(1024)
	if _, err := m.Alloc(100); err != nil {
		t.Fatal(err)
	}
	if err := m.Reserve(1024 - 104); err != nil {
		t.Errorf("reserve of the free bytes: %v", err)
	}
	if m.Used() != 104 {
		t.Errorf("Reserve moved Used to %d", m.Used())
	}
	rerr := m.Reserve(1024 - 103)
	_, aerr := m.Alloc(1024 - 103)
	if rerr == nil || aerr == nil || rerr.Error() != aerr.Error() {
		t.Errorf("overflow: Reserve %v, Alloc %v", rerr, aerr)
	}
	if err := m.Reserve(-1); err == nil {
		t.Error("negative reservation accepted")
	}
}

func TestDPURank(t *testing.T) {
	c := DefaultConfig()
	d := c.NewDPU(130)
	if d.Rank() != 2 {
		t.Errorf("DPU 130 rank = %d, want 2", d.Rank())
	}
	if d.MRAM.Capacity() != c.MRAM {
		t.Error("MRAM capacity mismatch")
	}
}

func TestNewDPURunBounds(t *testing.T) {
	if _, err := NewDPURun(0); err == nil {
		t.Error("0 tasklets accepted")
	}
	if _, err := NewDPURun(MaxTasklets + 1); err == nil {
		t.Error("25 tasklets accepted")
	}
	r, err := NewDPURun(16)
	if err != nil || len(r.Traces) != 16 {
		t.Fatalf("16 tasklets: %v", err)
	}
}

func TestTraceBuilderMergesExec(t *testing.T) {
	var tr TaskletTrace
	tr.Exec(10)
	tr.Exec(5)
	tr.Exec(0) // ignored
	tr.DMARead(100)
	tr.Exec(3)
	if len(tr.Segs) != 3 {
		t.Fatalf("segments = %v", tr.Segs)
	}
	if tr.Segs[0] != (Segment{SegExec, 15}) {
		t.Errorf("merged exec = %v", tr.Segs[0])
	}
}

func TestTotals(t *testing.T) {
	r, _ := NewDPURun(2)
	r.Traces[0].Exec(100)
	r.Traces[0].DMAWrite(3000)
	r.Traces[1].Exec(50)
	r.Traces[1].DMARead(100)
	instr, bytes, transfers := r.Totals()
	if instr != 150 || bytes != 3100 || transfers != 3 {
		t.Errorf("totals = %d instr, %d bytes, %d transfers", instr, bytes, transfers)
	}
}

// --- Closed-form checks of the exact simulator ---

func TestExactSingleTasklet(t *testing.T) {
	r, _ := NewDPURun(1)
	r.Traces[0].Exec(100)
	st, err := ExactSimulate(r)
	if err != nil {
		t.Fatal(err)
	}
	// One tasklet issues every 11 cycles: the 100th instruction issues at
	// cycle 99*11, execution ends one cycle later.
	want := int64(99*PipelineReentry + 1)
	if st.Cycles != want {
		t.Errorf("cycles = %d, want %d", st.Cycles, want)
	}
	if st.Instr != 100 {
		t.Errorf("instr = %d", st.Instr)
	}
	if u := st.Utilization(); math.Abs(u-1.0/11) > 0.01 {
		t.Errorf("utilization = %v, want ~1/11", u)
	}
}

func TestExactElevenTaskletsFillPipeline(t *testing.T) {
	r, _ := NewDPURun(11)
	for _, tr := range r.Traces {
		tr.Exec(100)
	}
	st, err := ExactSimulate(r)
	if err != nil {
		t.Fatal(err)
	}
	// 1100 instructions at IPC 1.
	if st.Cycles < 1100 || st.Cycles > 1115 {
		t.Errorf("cycles = %d, want ~1100", st.Cycles)
	}
	if u := st.Utilization(); u < 0.98 {
		t.Errorf("utilization = %v, want ~1", u)
	}
}

func TestExactSixteenTasklets(t *testing.T) {
	r, _ := NewDPURun(16)
	for _, tr := range r.Traces {
		tr.Exec(200)
	}
	st, err := ExactSimulate(r)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles < 3200 || st.Cycles > 3230 {
		t.Errorf("cycles = %d, want ~3200 (IPC 1)", st.Cycles)
	}
}

func TestExactDMAOnly(t *testing.T) {
	r, _ := NewDPURun(1)
	r.Traces[0].DMARead(2048)
	st, err := ExactSimulate(r)
	if err != nil {
		t.Fatal(err)
	}
	want := DMACycles(2048)
	if st.Cycles < want || st.Cycles > want+2 {
		t.Errorf("cycles = %d, want ~%d", st.Cycles, want)
	}
	if st.DMABytes != 2048 || st.DMATransfers != 1 {
		t.Errorf("dma stats: %+v", st)
	}
}

func TestExactDMASerialisation(t *testing.T) {
	// Two tasklets, DMA only: the single engine serialises them.
	r, _ := NewDPURun(2)
	r.Traces[0].DMARead(2048)
	r.Traces[1].DMARead(2048)
	st, err := ExactSimulate(r)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * DMACycles(2048)
	if st.Cycles < want || st.Cycles > want+4 {
		t.Errorf("cycles = %d, want ~%d", st.Cycles, want)
	}
}

func TestExactBarrierSynchronises(t *testing.T) {
	// Tasklet 0 does 10x work before the barrier; tasklet 1 must wait.
	r, _ := NewDPURun(2)
	r.Traces[0].Exec(1000)
	r.Traces[0].Barrier(1)
	r.Traces[1].Exec(100)
	r.Traces[1].Barrier(1)
	r.Traces[1].Exec(100)
	st, err := ExactSimulate(r)
	if err != nil {
		t.Fatal(err)
	}
	// Tasklet 0 finishes its 1000 instructions at ~ 1000*11/... with 2
	// runnable tasklets each issues every 11 cycles (pipeline far from
	// full): t0 needs 1000 slots * 11 = ~11000 cycles; then t1 runs its
	// tail alone: +100*11.
	min := int64(11000)
	max := int64(11000 + 1100 + 50)
	if st.Cycles < min || st.Cycles > max {
		t.Errorf("cycles = %d, want in [%d,%d]", st.Cycles, min, max)
	}
}

func TestExactBarrierDeadlock(t *testing.T) {
	r, _ := NewDPURun(2)
	r.Traces[0].Barrier(1)
	r.Traces[0].Barrier(1) // second rendezvous never matched by tasklet 1
	r.Traces[1].Barrier(1)
	if _, err := ExactSimulate(r); err == nil {
		t.Error("unbalanced barrier protocol accepted")
	}
}

// --- Fluid vs exact cross-validation ---

func TestFluidMatchesExactClosedForms(t *testing.T) {
	build := func(n int, instr int64) *DPURun {
		r, _ := NewDPURun(n)
		for _, tr := range r.Traces {
			tr.Exec(instr)
		}
		return r
	}
	for _, n := range []int{1, 2, 8, 11, 16, 24} {
		r := build(n, 500)
		ex, err := ExactSimulate(r)
		if err != nil {
			t.Fatal(err)
		}
		fl, err := FluidSimulate(r)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(float64(ex.Cycles-fl.Cycles)) / float64(ex.Cycles)
		if rel > 0.02 {
			t.Errorf("n=%d: exact %d vs fluid %d (%.1f%% apart)", n, ex.Cycles, fl.Cycles, rel*100)
		}
	}
}

func TestFluidMatchesExactRandomTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(14)
		r, _ := NewDPURun(n)
		for _, tr := range r.Traces {
			steps := 3 + rng.Intn(6)
			for s := 0; s < steps; s++ {
				switch rng.Intn(3) {
				case 0, 1:
					tr.Exec(int64(50 + rng.Intn(500)))
				case 2:
					tr.DMARead(int64(8 + rng.Intn(1024)))
				}
			}
			tr.Barrier(7) // one final rendezvous keeps groups balanced
		}
		ex, err := ExactSimulate(r)
		if err != nil {
			t.Fatal(err)
		}
		fl, err := FluidSimulate(r)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(float64(ex.Cycles-fl.Cycles)) / float64(ex.Cycles)
		if rel > 0.10 {
			t.Errorf("trial %d (n=%d): exact %d vs fluid %d (%.1f%%)", trial, n, ex.Cycles, fl.Cycles, rel*100)
		}
		if fl.Cycles < r.LowerBound() {
			t.Errorf("trial %d: fluid %d below lower bound %d", trial, fl.Cycles, r.LowerBound())
		}
	}
}

func TestFluidUtilizationRegimes(t *testing.T) {
	// 4 tasklets cannot fill the pipeline: utilization ~ 4/11.
	r, _ := NewDPURun(4)
	for _, tr := range r.Traces {
		tr.Exec(1000)
	}
	st, err := FluidSimulate(r)
	if err != nil {
		t.Fatal(err)
	}
	if u := st.Utilization(); math.Abs(u-4.0/11) > 0.02 {
		t.Errorf("4-tasklet utilization = %v, want ~%v", u, 4.0/11)
	}
	// 16 compute-bound tasklets saturate it.
	r16, _ := NewDPURun(16)
	for _, tr := range r16.Traces {
		tr.Exec(1000)
	}
	st16, err := FluidSimulate(r16)
	if err != nil {
		t.Fatal(err)
	}
	if u := st16.Utilization(); u < 0.97 {
		t.Errorf("16-tasklet utilization = %v, want ~1", u)
	}
}

func TestFluidDeadlockDetected(t *testing.T) {
	r, _ := NewDPURun(2)
	r.Traces[0].Barrier(1)
	r.Traces[0].Barrier(1)
	r.Traces[1].Barrier(1)
	if _, err := FluidSimulate(r); err == nil {
		t.Error("unbalanced barrier accepted")
	}
}

func TestStatsAdd(t *testing.T) {
	a := DPUStats{Cycles: 10, Instr: 5, DMABytes: 100, DMATransfers: 1, DMACycles: 3, IssueCycles: 5, BarrierCycles: 2}
	a.Add(DPUStats{Cycles: 20, Instr: 10, DMABytes: 200, DMATransfers: 2, DMACycles: 6, IssueCycles: 10, BarrierCycles: 4})
	if a.Cycles != 30 || a.Instr != 15 || a.DMABytes != 300 || a.DMATransfers != 3 || a.BarrierCycles != 6 {
		t.Errorf("Add: %+v", a)
	}
}

func TestBarrierWaitCyclesRecorded(t *testing.T) {
	// Tasklet 1 reaches the rendezvous ~10x earlier than tasklet 0 and
	// must accumulate the wait in BarrierCycles, in both simulators. It
	// waits roughly the issue-time difference: ~900 slots * 11 cycles.
	build := func() *DPURun {
		r, _ := NewDPURun(2)
		r.Traces[0].Exec(1000)
		r.Traces[0].Barrier(1)
		r.Traces[1].Exec(100)
		r.Traces[1].Barrier(1)
		return r
	}
	exact, err := ExactSimulate(build())
	if err != nil {
		t.Fatal(err)
	}
	fluid, err := FluidSimulate(build())
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]DPUStats{"exact": exact, "fluid": fluid} {
		if st.BarrierCycles < 8000 || st.BarrierCycles > 11000 {
			t.Errorf("%s BarrierCycles = %d, want ~9900", name, st.BarrierCycles)
		}
	}
	// The two models must agree on the wait to within a few percent.
	diff := math.Abs(float64(exact.BarrierCycles - fluid.BarrierCycles))
	if diff/float64(exact.BarrierCycles) > 0.05 {
		t.Errorf("barrier wait disagreement: exact %d vs fluid %d",
			exact.BarrierCycles, fluid.BarrierCycles)
	}
}

func TestSimulatorsPublishMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	r, _ := NewDPURun(1)
	r.Traces[0].Exec(10)
	st, err := FluidSimulate(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("pim_sim_runs_total").Value(); got != 1 {
		t.Errorf("pim_sim_runs_total = %d, want 1", got)
	}
	if got := reg.Counter("pim_sim_cycles_total").Value(); got != st.Cycles {
		t.Errorf("pim_sim_cycles_total = %d, want %d", got, st.Cycles)
	}
	if got := reg.Counter("pim_sim_instructions_total").Value(); got != st.Instr {
		t.Errorf("pim_sim_instructions_total = %d, want %d", got, st.Instr)
	}
}

func TestCostTablesOrdering(t *testing.T) {
	// The asm kernel must be cheaper on every itemised phase, and the
	// score-path ratio must sit near the paper's 16S speedup (1.36) while
	// the traceback-path ratio sits near the CIGAR-dataset speedups (~1.6).
	if Asm.CellScore >= PureC.CellScore || Asm.CellTB >= PureC.CellTB ||
		Asm.TracebackCol >= PureC.TracebackCol {
		t.Error("asm table not uniformly cheaper than pure C")
	}
	scoreRatio := float64(PureC.CellScore) / float64(Asm.CellScore)
	if scoreRatio < 1.25 || scoreRatio > 1.5 {
		t.Errorf("score-path ratio %.2f outside the Table 7 16S window", scoreRatio)
	}
	tbRatio := float64(PureC.CellTB) / float64(Asm.CellTB)
	if tbRatio < 1.4 || tbRatio > 1.8 {
		t.Errorf("traceback-path ratio %.2f outside the Table 7 window", tbRatio)
	}
}

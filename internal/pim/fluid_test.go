package pim

import (
	"strings"
	"testing"
)

// fluidCase is a synthetic DPURun with its exact fluid-model outcome. The
// update order (ascending tasklets, barrier release order, DMA FIFO order)
// is part of the model, so every field must repeat bit for bit.
type fluidCase struct {
	name  string
	build func(r *DPURun)
	n     int
	want  DPUStats
}

func fluidCases() []fluidCase {
	return []fluidCase{
		{name: "dma-contention", n: 8, want: DPUStats{Cycles: 19501, Instr: 3980, DMABytes: 26880, DMATransfers: 80, DMACycles: 18560, IssueCycles: 3980}, build: func(r *DPURun) {
			for i, tr := range r.Traces {
				for s := 0; s < 5; s++ {
					tr.Exec(int64(40 + 13*i + 7*s))
					tr.DMARead(int64(256 + 96*i))
					tr.DMAWrite(int64(64 + 8*s))
				}
			}
		}},
		{name: "two-barrier-groups", n: 8, want: DPUStats{Cycles: 68915, Instr: 30720, DMABytes: 5376, DMATransfers: 12, DMACycles: 3456, IssueCycles: 30720, BarrierCycles: 115344}, build: func(r *DPURun) {
			for i, tr := range r.Traces {
				g := int64(i / 4)
				for s := 0; s < 6; s++ {
					tr.Exec(int64(200 + 150*(i%4) + 300*int(g) + 11*s))
					if i%4 == 0 {
						tr.DMARead(int64(128 * (s + 1)))
					}
					tr.Barrier(g)
				}
				tr.Exec(int64(50 * (i + 1)))
			}
		}},
		{name: "single-tasklet", n: 1, want: DPUStats{Cycles: 40752, Instr: 3500, DMABytes: 4120, DMATransfers: 3, DMACycles: 2252, IssueCycles: 3500}, build: func(r *DPURun) {
			tr := r.Traces[0]
			tr.Exec(3000)
			tr.DMARead(4096)
			tr.Barrier(0)
			tr.Exec(500)
			tr.DMAWrite(24)
		}},
		{name: "all-24-busy", n: 24, want: DPUStats{Cycles: 464436, Instr: 452880, DMABytes: 17280, DMATransfers: 240, DMACycles: 24000, IssueCycles: 452880, BarrierCycles: 421977}, build: func(r *DPURun) {
			for i, tr := range r.Traces {
				pool := int64(i / 4)
				for s := 0; s < 20; s++ {
					tr.Exec(int64(700 + 37*(i%4) + 53*int(pool) + 5*s))
					if i%4 == 0 {
						tr.Exec(32)
						tr.DMARead(int64(40 + 16*int(pool)))
						tr.DMAWrite(64)
					}
					tr.Barrier(pool)
				}
			}
		}},
		{name: "one-busy-pool", n: 24, want: DPUStats{Cycles: 372778, Instr: 117580, DMABytes: 5408, DMATransfers: 61, DMACycles: 6608, IssueCycles: 117580, BarrierCycles: 55860}, build: func(r *DPURun) {
			for i, tr := range r.Traces[:4] {
				for s := 0; s < 30; s++ {
					tr.Exec(int64(900 + 31*i))
					if i == 0 {
						tr.DMARead(48)
						tr.DMAWrite(64)
					}
					tr.Barrier(0)
				}
			}
			r.Traces[0].DMARead(2048)
			r.Traces[0].Exec(4000)
		}},
	}
}

func TestFluidSyntheticRunsExact(t *testing.T) {
	for _, c := range fluidCases() {
		r, err := NewDPURun(c.n)
		if err != nil {
			t.Fatal(err)
		}
		c.build(r)
		got, err := FluidSimulate(r)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.want {
			t.Errorf("%s:\n got  %+v\n want %+v", c.name, got, c.want)
		}
	}
}

// TestFluidSimulateErrors keeps the simulator's error returns: an
// unbalanced barrier protocol deadlocks, and a barrier group outside the
// one-group-per-pool range is rejected.
func TestFluidSimulateErrors(t *testing.T) {
	r, _ := NewDPURun(3)
	r.Traces[0].Exec(10)
	r.Traces[0].Barrier(1)
	r.Traces[0].Barrier(1)
	r.Traces[1].Barrier(1)
	r.Traces[2].Exec(100)
	_, err := FluidSimulate(r)
	if err == nil || !strings.Contains(err.Error(), "1 tasklets deadlocked on barrier group 1") {
		t.Errorf("unbalanced barrier: %v", err)
	}
	for _, g := range []int64{-1, MaxTasklets} {
		r, _ := NewDPURun(2)
		r.Traces[0].Barrier(g)
		r.Traces[1].Barrier(g)
		if _, err := FluidSimulate(r); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("barrier group %d: %v", g, err)
		}
		if _, err := ExactSimulate(r); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("exact, barrier group %d: %v", g, err)
		}
	}
}

package kernel

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimnw/internal/pim"
	"pimnw/internal/seq"
)

var updateFluidGolden = flag.Bool("update", false,
	"rewrite internal/kernel/testdata/fluid_stats.golden from the current code")

// fluidGoldenPairs draws n seeded pairs of 300–1200 bp at 6 % errors.
func fluidGoldenPairs(n int) [][2]seq.Seq {
	rng := rand.New(rand.NewSource(int64(34 + n)))
	out := make([][2]seq.Seq, n)
	for i := range out {
		a := seq.Random(rng, 300+rng.Intn(901))
		out[i] = [2]seq.Seq{a, seq.UniformErrors(0.06).Apply(rng, a)}
	}
	return out
}

// fluidStatsMatrix renders one line per kernel launch of the golden
// matrix — mode × cost table × band (128 on the paper's 6×4 geometry, 256
// and 512 on FitGeometry's shrunk ones) × batch size — with the launch's
// full DPUStats, its modelled MRAM peak and its result checksum. Every
// field is an exact-repeat quantity of the fluid model.
func fluidStatsMatrix(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tb := range []bool{true, false} {
		for _, costs := range []pim.CostTable{pim.Asm, pim.PureC} {
			for _, band := range []int{128, 256, 512} {
				cfg := testConfig(tb)
				cfg.Costs = costs
				g, ok := FitGeometry(cfg, band, tb)
				if !ok {
					t.Fatalf("band %d does not fit one pool", band)
				}
				cfg.Geometry, cfg.Band = g, band
				for _, n := range []int{1, 3, 6, 13} {
					d := cfg.PIM.NewDPU(0)
					var kp []Pair
					for i, p := range fluidGoldenPairs(n) {
						sp, err := StagePair(d, i, p[0], p[1])
						if err != nil {
							t.Fatal(err)
						}
						kp = append(kp, sp)
					}
					out, err := Run(d, cfg, kp)
					if err != nil {
						t.Fatalf("tb=%v %s band %d n=%d: %v", tb, costs.Name, band, n, err)
					}
					s := out.Stats
					fmt.Fprintf(&buf, "tb=%v costs=%s band=%d geom=%dx%d pairs=%d: cycles=%d instr=%d dma_bytes=%d dma_transfers=%d dma_cycles=%d issue_cycles=%d barrier_cycles=%d mram_peak=%d checksum=%016x\n",
						tb, costs.Name, band, g.Pools, g.TaskletsPerPool, n,
						s.Cycles, s.Instr, s.DMABytes, s.DMATransfers, s.DMACycles, s.IssueCycles, s.BarrierCycles,
						out.MRAMPeak, out.Checksum)
				}
			}
		}
	}
	return buf.Bytes()
}

// TestFluidStatsGolden pins the fluid pipeline model bit for bit: the
// simulator's update order (ascending tasklets, barrier release order, DMA
// FIFO order) is part of the model, so any change to how it is computed
// must leave every DPUStats field of every launch here unchanged.
func TestFluidStatsGolden(t *testing.T) {
	got := fluidStatsMatrix(t)
	path := filepath.Join("testdata", "fluid_stats.golden")
	if *updateFluidGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/kernel -run TestFluidStatsGolden -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

// TestRunBTStreamOverflow shrinks the bank until the staged sequences fit
// but one pair's traceback stream does not: the launch must fail with the
// per-pair BT scratch error, before the peak check.
func TestRunBTStreamOverflow(t *testing.T) {
	cfg := testConfig(true)
	rng := rand.New(rand.NewSource(5))
	a := seq.Random(rng, 1000)
	b := seq.UniformErrors(0.05).Apply(rng, a)
	cfg.PIM.MRAM = 4096 // room for ~550 staged bytes, not ~2000 BT rows
	d := cfg.PIM.NewDPU(0)
	p, err := StagePair(d, 3, a, b)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(d, cfg, []Pair{p})
	if err == nil || !strings.Contains(err.Error(), "BT scratch for pair 3") {
		t.Fatalf("Run on a bank too small for the BT stream returned %v", err)
	}
	if !strings.Contains(err.Error(), "MRAM overflow") {
		t.Errorf("BT stream error %q does not carry the MRAM overflow cause", err)
	}
}

package kernel

import (
	"math/rand"
	"reflect"
	"testing"

	"pimnw/internal/core"
	"pimnw/internal/pim"
	"pimnw/internal/seq"
)

func TestParseLaneWidth(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int
		ok   bool
	}{
		{"", 0, true}, {"auto", 0, true}, {"16", 16, true}, {"64", 64, true},
		{"32", 0, false}, {"narrow", 0, false},
	} {
		got, err := ParseLaneWidth(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseLaneWidth(%q) = %d, %v; want %d, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestLanesResolution: auto resolves to the narrow kernel exactly when the
// run is score-only and the scoring model has 16-bit headroom at the band;
// explicit widths pass through untouched.
func TestLanesResolution(t *testing.T) {
	c := Config{Params: core.DefaultParams()}
	if got := c.Lanes(128, false); got != 16 {
		t.Errorf("auto score-only default params: lanes %d, want 16", got)
	}
	if got := c.Lanes(128, true); got != 64 {
		t.Errorf("auto traceback: lanes %d, want 64", got)
	}
	hot := Config{Params: core.Params{Match: 127, Mismatch: -4, GapOpen: 4, GapExt: 2}}
	if core.NarrowFits(hot.Params, 128) {
		t.Fatal("test params unexpectedly fit the narrow engine")
	}
	if got := hot.Lanes(128, false); got != 64 {
		t.Errorf("auto without headroom: lanes %d, want 64", got)
	}
	hot.LaneWidth = 16
	if got := hot.Lanes(128, false); got != 16 {
		t.Errorf("explicit 16 must pass through, got %d", got)
	}
}

// TestValidateLaneWidth: unknown widths and the 16-bit/traceback
// combination (the narrow kernel is score-only) are rejected.
func TestValidateLaneWidth(t *testing.T) {
	base := Config{
		Geometry: DefaultGeometry(), Band: 64,
		Params: core.DefaultParams(), Costs: pim.Asm, PIM: pim.DefaultConfig(),
	}
	for _, lw := range []int{0, 16, 64} {
		c := base
		c.LaneWidth = lw
		if err := c.Validate(); err != nil {
			t.Errorf("LaneWidth=%d: %v", lw, err)
		}
	}
	c := base
	c.LaneWidth = 32
	if c.Validate() == nil {
		t.Error("LaneWidth=32 accepted")
	}
	c = base
	c.LaneWidth = 16
	c.Traceback = true
	if c.Validate() == nil {
		t.Error("narrow traceback kernel accepted")
	}
}

// TestNarrowLanesWidenFitGeometry: halving the cell width halves the
// anti-diagonal working set, so at a fixed geometry the narrow kernel must
// admit strictly wider bands than the full-width kernel — the WRAM
// trade the lane-width knob exists to buy.
func TestNarrowLanesWidenFitGeometry(t *testing.T) {
	base := Config{
		Geometry: DefaultGeometry(), Band: 64,
		Params: core.DefaultParams(), Costs: pim.Asm, PIM: pim.DefaultConfig(),
	}
	widest := func(c Config) int {
		last := 0
		for b := 64; b <= 1<<20; b *= 2 {
			if _, ok := FitGeometry(c, b, false); !ok {
				break
			}
			last = b
		}
		return last
	}
	wide := base
	wide.LaneWidth = 64
	narrow := base
	narrow.LaneWidth = 16
	ww, nw := widest(wide), widest(narrow)
	if nw <= ww {
		t.Fatalf("narrow kernel fits band %d, wide fits %d; want narrow strictly wider", nw, ww)
	}
}

// TestAlignMatchesRun: Config.Align is the engine choice the kernel itself
// makes, so calling it directly (as the CPU pool backend does) returns
// exactly the PairResult a DPU launch reports — for the traceback, narrow
// and wide engines alike. Traceback under auto lanes (computed in 16-bit
// lanes) and under the pinned full-width engine must be the same result.
func TestAlignMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := seq.Random(rng, 400)
	b := seq.UniformErrors(0.08).Apply(rng, a)
	var tracebacks []PairResult
	for _, tc := range []struct {
		name      string
		traceback bool
		lanes     int
	}{{"traceback", true, 64}, {"traceback-auto", true, 0}, {"narrow", false, 16}, {"wide", false, 64}} {
		cfg := testConfig(tc.traceback)
		cfg.LaneWidth = tc.lanes
		d := cfg.PIM.NewDPU(0)
		staged, err := StagePair(d, 7, a, b)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(d, cfg, []Pair{staged})
		if err != nil {
			t.Fatal(err)
		}
		scratch := core.GetScratch()
		got := cfg.Align(scratch, 7, a, b)
		core.PutScratch(scratch)
		if !reflect.DeepEqual(got, out.Results[0]) {
			t.Errorf("%s: Align = %+v, Run reported %+v", tc.name, got, out.Results[0])
		}
		if tc.traceback == (got.Cigar == nil) {
			t.Errorf("%s: cigar presence %v", tc.name, got.Cigar != nil)
		}
		if tc.traceback {
			tracebacks = append(tracebacks, got)
		}
	}
	if !reflect.DeepEqual(tracebacks[0], tracebacks[1]) {
		t.Errorf("traceback at lanes 64 = %+v, at auto = %+v", tracebacks[0], tracebacks[1])
	}
}

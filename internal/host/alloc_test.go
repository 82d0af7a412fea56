package host

import (
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"pimnw/internal/core"
	"pimnw/internal/kernel"
	"pimnw/internal/obs"
	"pimnw/internal/pim"
	"pimnw/internal/seq"
)

// TestAlignPairsSteadyStateAllocs pins the scratch-arena property at the
// top of the stack: once the core.Scratch pool has warmed, repeated
// host.AlignPairs rounds — dispatch, kernel DP, verification and the
// escalation ladder included — must not re-allocate the engine's working
// memory.
//
// The test meters allocated *bytes*: the engine's O(w) lanes, offset
// vectors and O((m+n)·w) traceback arenas are where the megabytes are.
// The simulated fabric models WRAM and the BT stream as capacity
// arithmetic and reuses its DPUs, traces and simulator state, so on this
// workload a round with the arena allocates ~0.38 MB and one with
// per-call engine buffers ~2.1 MB; the budget sits between the two
// regimes.
func TestAlignPairsSteadyStateAllocs(t *testing.T) {
	obs.SetLogOutput(io.Discard)
	defer obs.SetLogOutput(os.Stderr)

	pimCfg := pim.DefaultConfig()
	pimCfg.Ranks = 1
	cfg := Config{
		PIM: pimCfg,
		Kernel: kernel.Config{
			Geometry:  kernel.DefaultGeometry(),
			Band:      32,
			Params:    core.DefaultParams(),
			Costs:     pim.Asm,
			Traceback: true,
			PIM:       pimCfg,
		},
		// Single-threaded so goroutine fan-out does not add noise, with the
		// full result-integrity machinery (escalation + verification) on.
		Workers:  1,
		Escalate: true,
		MaxBand:  128,
		Verify:   true,
	}
	rng := rand.New(rand.NewSource(21))
	mut := seq.Mutator{SubRate: 0.03, InsRate: 0.02, DelRate: 0.02, IndelExt: 0.5}
	pairs := make([]Pair, 16)
	for i := range pairs {
		a := seq.Random(rng, 600)
		pairs[i] = Pair{ID: i, A: a, B: mut.Apply(rng, a)}
	}

	run := func() {
		if _, _, err := AlignPairs(cfg, pairs); err != nil {
			t.Fatal(err)
		}
	}
	perRound := measureBytesPerRound(t, run)

	// Fabric-only rounds measure 379 KB; with per-call engine buffers the
	// same workload measures 2 119 KB. Anything above the midpoint means
	// core engine buffers are being re-allocated instead of reused.
	const budget = 1_249_000
	if perRound > budget {
		t.Errorf("steady-state AlignPairs allocates %d bytes/round (budget %d): core engine scratch is not being reused",
			perRound, budget)
	}
}

// measureBytesPerRound warms run, then meters its steady-state allocated
// bytes per invocation.
func measureBytesPerRound(t *testing.T, run func()) uint64 {
	t.Helper()
	for i := 0; i < 3; i++ {
		run() // warm the scratch pool and every per-round buffer
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const rounds = 5
	for i := 0; i < rounds; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / rounds
}

// TestScoreHotPathObservabilityFree pins the request-scoped observability
// plumbing at zero cost on the fault-free score path: installing a flight
// recorder and configuring a trace ID must not change the bytes a
// steady-state round allocates. On a clean run the flight hooks never
// fire (they sit on fault/escalation/abandon paths), the trace ID is a
// string copied by value, and span stamping is gated on a nil tracer —
// so the instrumented rounds must measure the same as the bare ones,
// within a sliver of runtime noise.
func TestScoreHotPathObservabilityFree(t *testing.T) {
	obs.SetLogOutput(io.Discard)
	defer obs.SetLogOutput(os.Stderr)

	pimCfg := pim.DefaultConfig()
	pimCfg.Ranks = 1
	cfg := Config{
		PIM: pimCfg,
		Kernel: kernel.Config{
			Geometry:  kernel.DefaultGeometry(),
			Band:      32,
			Params:    core.DefaultParams(),
			Costs:     pim.Asm,
			Traceback: false, // the score hot path
			PIM:       pimCfg,
		},
		Workers: 1,
	}
	rng := rand.New(rand.NewSource(23))
	mut := seq.Mutator{SubRate: 0.03, InsRate: 0.02, DelRate: 0.02, IndelExt: 0.5}
	pairs := make([]Pair, 16)
	for i := range pairs {
		a := seq.Random(rng, 600)
		pairs[i] = Pair{ID: i, A: a, B: mut.Apply(rng, a)}
	}

	run := func() {
		if _, _, err := AlignPairs(cfg, pairs); err != nil {
			t.Fatal(err)
		}
	}
	base := measureBytesPerRound(t, run)

	obs.SetFlight(obs.NewFlightRecorder(64))
	defer obs.SetFlight(nil)
	cfg.TraceID = "t-alloc"
	instrumented := measureBytesPerRound(t, run)

	// Identical work either way; 16 KB of slack absorbs GC bookkeeping
	// noise on multi-MB rounds.
	const slack = 16 * 1024
	if instrumented > base+slack {
		t.Errorf("fault-free score rounds allocate %d bytes with observability plumbing vs %d without: the flight/trace hooks are not free",
			instrumented, base)
	}
	if fr := obs.Flight(); fr.Recorded() != 0 {
		t.Errorf("flight recorder captured %d events on a fault-free run, want 0", fr.Recorded())
	}
}

package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pimnw/internal/seq"
)

// narrowRunCase is one pair of the run differential.
type narrowRunCase struct {
	a, b seq.Seq
	p    Params
	w    int
}

// narrowRunCases draws the pairs of TestNarrowStepAsmMatchesPortable:
// every band ≡ 0–3 (mod 4) from 2 to 33 plus 64, 127 and 128; pairs
// shorter than the band, length-skewed ones both ways, and ones long
// enough to cross one or two 512-anti-diagonal rebases; error rates from
// none to a fifth; and every narrowFuzzParams model, whose stress shapes
// end runs on the sticky flag.
func narrowRunCases(rng *rand.Rand, short bool) []narrowRunCase {
	bands := []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17, 31, 32, 33, 64, 127, 128}
	var cases []narrowRunCase
	for k := 0; k < 240; k++ {
		if short && k%4 != 0 {
			continue
		}
		w := bands[k%len(bands)]
		var m, n int
		switch k % 5 {
		case 0: // shorter than the band
			m, n = rng.Intn(w+2), rng.Intn(w+2)
		case 1: // skewed: b much longer
			m, n = rng.Intn(60), 100+rng.Intn(500)
		case 2: // skewed: a much longer
			m, n = 100+rng.Intn(500), rng.Intn(60)
		case 3: // crosses one or two rebases
			m = 300 + rng.Intn(900)
			n = m - 20 + rng.Intn(41)
		default:
			m = 20 + rng.Intn(300)
			n = m - 10 + rng.Intn(21)
		}
		a := seq.Random(rng, m)
		b := seq.UniformErrors([]float64{0, 0.01, 0.05, 0.2}[k%4]).Apply(rng, a)
		b = append(b, seq.Random(rng, max(0, n-len(b)))...)[:max(0, n)]
		cases = append(cases, narrowRunCase{a, b, narrowFuzzParams[k/5%len(narrowFuzzParams)], w})
	}
	return cases
}

// narrowRunDiff runs the engine's run (narrowStep.run) and the portable
// window loop narrowRunGo side by side over one pair, in runs of random
// length that never cross a rebase, applying the engine's rebase to both
// sides between runs. After every run it compares the whole state: the
// verdict and cell count, and, while no sticky has set, the position, ring
// offsets and previous shift, the lane ring, and off, edge and the
// traceback rows of every anti-diagonal the run computed. mutate, when not
// nil, perturbs the run side's state before each run. shield runs one
// anti-diagonal at a time, each shielded (shieldStep). It returns the
// first difference ("" if none) and what it exercised.
func narrowRunDiff(c narrowRunCase, traceback, shield bool, rng *rand.Rand, mutate func(*narrowStep)) (diff string, steps, rebases, shielded int, sticky bool) {
	m, n := len(c.a), len(c.b)
	// Fresh scratches: zeroed traceback arenas, so rows compare whole.
	run, ref := NewScratch().newNarrowStep(c.a, c.b, c.p, c.w, traceback), NewScratch().newNarrowStep(c.a, c.b, c.p, c.w, traceback)
	for run.t < m+n {
		t0 := run.t
		next := (t0/narrowRebaseEvery + 1) * narrowRebaseEvery
		run.tEnd = min(m+n, next, t0+[]int{1, 1, 2, 3, 7, 64, 600}[rng.Intn(7)])
		if shield {
			run.tEnd = t0 + 1
			if shieldStep(&run, &ref) {
				shielded++
			}
		}
		ref.tEnd = run.tEnd
		if mutate != nil {
			mutate(&run)
		}
		var stRun bool
		func() {
			defer func() {
				if r := recover(); r != nil {
					diff = fmt.Sprintf("run panicked: %v", r)
				}
			}()
			stRun = run.run()
		}()
		if diff != "" {
			return diff, steps, rebases, shielded, sticky
		}
		stRef := narrowRunGo(&ref)
		label := fmt.Sprintf("run [%d, %d)", t0, run.tEnd)
		if stRun != stRef || run.cells != ref.cells {
			return fmt.Sprintf("%s: sticky %v cells %d, portable sticky %v cells %d", label, stRun, run.cells, stRef, ref.cells), steps, rebases, shielded, sticky
		}
		if stRun {
			return "", steps, rebases, shielded, true
		}
		steps += run.t - t0
		switch {
		case run.t != ref.t || run.dPrev != ref.dPrev || run.bnd != ref.bnd ||
			[7]int{run.hPrev, run.hCur, run.hNext, run.iCur, run.iNext, run.dCur, run.dNext} !=
				[7]int{ref.hPrev, ref.hCur, ref.hNext, ref.iCur, ref.iNext, ref.dCur, ref.dNext}:
			return fmt.Sprintf("%s: position t=%d dPrev=%d ring %d…, portable t=%d dPrev=%d ring %d…",
				label, run.t, run.dPrev, run.hCur, ref.t, ref.dPrev, ref.hCur), steps, rebases, shielded, sticky
		case !slices.Equal(run.off[t0:run.t+1], ref.off[t0:ref.t+1]):
			return fmt.Sprintf("%s: off %v, portable %v", label, run.off[t0:run.t+1], ref.off[t0:ref.t+1]), steps, rebases, shielded, sticky
		case !slices.Equal(run.edge[t0%narrowRebaseEvery:][:run.t-t0], ref.edge[t0%narrowRebaseEvery:][:ref.t-t0]):
			return fmt.Sprintf("%s: edge %v, portable %v", label, run.edge, ref.edge), steps, rebases, shielded, sticky
		case !slices.Equal(run.ring, ref.ring):
			return fmt.Sprintf("%s: lane ring\n %x\n portable\n %x", label, run.ring, ref.ring), steps, rebases, shielded, sticky
		}
		if traceback {
			lo, hi := (t0+1)*run.rowBytes, (run.t+1)*run.rowBytes
			if !bytes.Equal(run.bt[lo:hi], ref.bt[lo:hi]) {
				return fmt.Sprintf("%s: traceback rows\n %x\n portable\n %x", label, run.bt[lo:hi], ref.bt[lo:hi]), steps, rebases, shielded, sticky
			}
		}
		if run.t%narrowRebaseEvery == 0 && run.t < m+n {
			_, okRun := run.rebase()
			_, okRef := ref.rebase()
			if okRun != okRef {
				return fmt.Sprintf("%s: rebase ok %v, portable %v", label, okRun, okRef), steps, rebases, shielded, sticky
			}
			if !okRun {
				return "", steps, rebases, shielded, true
			}
			rebases++
		}
	}
	return "", steps, rebases, shielded, sticky
}

// shieldStep poisons, in both states alike, the lanes of anti-diagonal
// t−1 that only the masked-out lanes of step t's first and last span
// words read, as their diagonal neighbour — window lanes, which the next
// step rewrites, not the sentinel words: at narrowTop, a masked-out
// lane whose bases agree (beyond the matrix both are zero padding, or
// padding and an A) carries, while no kept lane reads a poisoned lane. So
// a routine that let a masked-out lane reach the sticky flag ends the run
// where the portable loop does not. It reports whether it poisoned a lane.
func shieldStep(run, ref *narrowStep) bool {
	probe := *ref
	probe.ring, probe.off, probe.edge = slices.Clone(ref.ring), slices.Clone(ref.off), slices.Clone(ref.edge)
	probe.bt, probe.tEnd = slices.Clone(ref.bt), ref.t+1
	if narrowRunGo(&probe) {
		return false
	}
	t, m, n, w := ref.t, ref.m, ref.n, ref.w
	o := int(probe.off[t+1])
	dd := o - int(ref.off[t]) + ref.dPrev
	lo, hi := max(0, 1-o, t+1-n-o)+narrowLane0, min(w-1, m-o, t-o)+narrowLane0
	if lo > hi {
		return false
	}
	poisoned := false
	for l := 4 * (lo >> 2); l < 4*(hi>>2)+4; l++ {
		if p := l - 1 + dd; (l < lo || l > hi) && p >= narrowLane0 && p < 4*ref.winEnd {
			run.setLane(run.hPrev, p, narrowTop)
			ref.setLane(ref.hPrev, p, narrowTop)
			poisoned = true
		}
	}
	return poisoned
}

// TestNarrowStepAsmMatchesPortable pins the narrow engine's run — the SSE2
// routine narrowRunSSE on amd64 — to the portable window loop
// narrowRunGo, state for state, on whole pairs (narrowRunDiff): both
// traceback modes, bands ≡ 0–3 (mod 4), skewed pairs, pairs shorter than
// the band, runs of 1 to 600 anti-diagonals that cross rebases, runs
// that end on the sticky flag, and shielded runs (shieldStep) in which
// the masked-out lanes of partial span words carry. Off amd64 both sides are the portable loop
// and the test pins run splitting: a run of k anti-diagonals equals k
// runs of one.
//
// The mutations then perturb one field of the run side's state before
// every run — each broadcast constant, each scoring parameter the
// boundary cells read, the bias, the previous shift, the pair's extent,
// the cell count, each pair of rotating ring offsets — and each must make
// the comparison fail on some pair: the differential reads every field of
// the argument block the routine does.
func TestNarrowStepAsmMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cases := narrowRunCases(rng, testing.Short())
	steps, rebases, shielded, stickies, skewed := 0, 0, 0, 0, 0
	for i, c := range cases {
		for _, tb := range bothModes {
			shield := i%3 == 2
			diff, s, r, sh, st := narrowRunDiff(c, tb, shield, rng, nil)
			if diff != "" {
				t.Fatalf("pair %d (m=%d n=%d w=%d p=%+v tb=%v shield=%v): %s", i, len(c.a), len(c.b), c.w, c.p, tb, shield, diff)
			}
			steps, rebases, shielded = steps+s, rebases+r, shielded+sh
			if st {
				stickies++
			}
			if len(c.a) > 2*len(c.b)+c.w || len(c.b) > 2*len(c.a)+c.w {
				skewed++
			}
		}
	}
	t.Logf("%d anti-diagonals, %d rebases, %d shielded steps, %d sticky runs, %d skewed pairs",
		steps, rebases, shielded, stickies, skewed)
	if !testing.Short() && (steps < 150_000 || rebases < 40 || shielded < 40_000 || stickies < 30 || skewed < 150) {
		t.Fatalf("lopsided coverage: %d anti-diagonals, %d rebases, %d shielded steps, %d sticky runs, %d skewed pairs",
			steps, rebases, shielded, stickies, skewed)
	}

	lanes := func(v uint64) uint64 { return v + lanesOne }
	mutations := []struct {
		name   string
		mutate func(*narrowStep)
	}{
		{"eV", func(st *narrowStep) { st.eV = lanes(st.eV) }},
		{"oeV", func(st *narrowStep) { st.oeV = lanes(st.oeV) }},
		{"nmV", func(st *narrowStep) { st.nmV = lanes(st.nmV) }},
		{"gbV", func(st *narrowStep) { st.gbV = lanes(st.gbV) + 64*lanesOne }},
		{"smV", func(st *narrowStep) { st.smV = lanes(st.smV) }},
		{"p.GapOpen", func(st *narrowStep) { st.p.GapOpen++ }},
		{"p.GapExt", func(st *narrowStep) { st.p.GapExt++ }},
		{"bnd", func(st *narrowStep) { st.bnd++ }},
		{"dPrev", func(st *narrowStep) { st.dPrev ^= 1 }},
		{"m", func(st *narrowStep) { st.m = max(0, st.m-1) }},
		{"n", func(st *narrowStep) { st.n = max(0, st.n-1) }},
		{"cells", func(st *narrowStep) { st.cells++ }},
		{"hPrev/hCur", func(st *narrowStep) { st.hPrev, st.hCur = st.hCur, st.hPrev }},
		{"iCur/iNext", func(st *narrowStep) { st.iCur, st.iNext = st.iNext, st.iCur }},
		{"dCur/dNext", func(st *narrowStep) { st.dCur, st.dNext = st.dNext, st.dCur }},
	}
	for _, mu := range mutations {
		caught := false
		for i := 0; i < len(cases) && !caught; i++ {
			for _, tb := range bothModes {
				if diff, _, _, _, _ := narrowRunDiff(cases[i], tb, false, rng, mu.mutate); diff != "" {
					caught = true
					break
				}
			}
		}
		if !caught {
			t.Errorf("mutating %s went unnoticed on every pair", mu.name)
		}
	}
}

//go:build amd64

package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestNarrowStepAsmMatchesPortable pins the SSE2 kernels (through their
// amd64 wrappers) to the portable SWAR loops directly — on amd64 the engine hands the Go loops only the
// odd trailing word, so nothing else compares them lane for lane. Random
// lane words mix dead, near-guard, mid-range (a narrow value range, so
// extend and origin ties are common) and near-top lanes under every
// d × dd stream offset. The sticky verdict (zero / non-zero) must always
// agree; when it is clear the H/I/D words and the nibble bytes must be
// identical (on a sticky the assembly's in-flight lanes may legitimately
// differ — the engine discards the step).
func TestNarrowStepAsmMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const words = 14 // lanes 0..55, plus the pad word
	type lanes = []uint64
	newLanes := func() lanes { return make(lanes, words+1) }
	clear, sticky := 0, 0
	for trial := 0; trial < 6000; trial++ {
		p := narrowFuzzParams[trial%len(narrowFuzzParams)]
		e16 := uint16(p.GapExt)
		oe16 := uint16(p.GapOpen + p.GapExt)
		gb16 := uint16(narrowGuard(p))
		eV, oeV := uint64(e16)*lanesOne, uint64(oe16)*lanesOne
		nmV, gbV := uint64(uint16(-p.Mismatch))*lanesOne, uint64(gb16)*lanesOne
		smd := uint16(p.Match - p.Mismatch)

		// A clean trial keeps every H lane comfortably live so the guard
		// stays quiet; a rough one sprinkles the hazards over H as well.
		rough := trial%3 == 0
		base := uint16(2000 + rng.Intn(24000))
		lane := func(hazards bool) uint16 {
			if hazards {
				switch rng.Intn(8) {
				case 0:
					return 0 // dead
				case 1:
					return gb16 - 3 + uint16(rng.Intn(7)) // around the guard floor
				case 2:
					return uint16(1 + rng.Intn(int(oe16)+2)) // clamps in the subtract
				case 3:
					if rough {
						return narrowTop - uint16(rng.Intn(int(smd)+2)) // carries in the add
					}
				}
			}
			return base + uint16(rng.Intn(12))
		}
		fill := func(a lanes, hazards bool) {
			for l := 0; l < 4*words; l++ {
				setLane16(a, l, lane(hazards))
			}
		}
		hCur, iCur, dCur, hPrev, nsub := newLanes(), newLanes(), newLanes(), newLanes(), newLanes()
		fill(hCur, rough)
		fill(hPrev, rough)
		fill(iCur, true)
		fill(dCur, true)
		for l := 0; l < 4*words; l++ {
			if rng.Intn(3) == 0 {
				setLane16(nsub, l, smd)
			}
		}

		gA := 1 + rng.Intn(3)
		pairs := 1 + rng.Intn((words-1-gA)/2)
		gB := gA + 2*pairs - 1
		for d := 0; d <= 1; d++ {
			for dd := 0; dd <= 2; dd++ {
				for _, tb := range bothModes {
					hG, iG, dG := newLanes(), newLanes(), newLanes()
					hS, iS, dS := newLanes(), newLanes(), newLanes()
					btG, btS := make([]byte, 2*words), make([]byte, 2*words)
					// An even word count keeps the amd64 wrappers on the SSE2
					// kernels alone (no trailing portable word).
					var ovG, ovS uint64
					if tb {
						ovG = narrowStepWordsGoTB(hG, iG, dG, hCur, iCur, dCur, hPrev, nsub, btG, gA, gB, d, dd, eV, oeV, nmV, gbV)
						ovS = narrowStepWordsTB(hS, iS, dS, hCur, iCur, dCur, hPrev, nsub, btS, gA, gB, d, dd, eV, oeV, nmV, gbV)
					} else {
						ovG = narrowStepWordsGo(hG, iG, dG, hCur, iCur, dCur, hPrev, nsub, gA, gB, d, dd, eV, oeV, nmV, gbV)
						ovS = narrowStepWords(hS, iS, dS, hCur, iCur, dCur, hPrev, nsub, gA, gB, d, dd, eV, oeV, nmV, gbV)
					}
					if (ovG != 0) != (ovS != 0) {
						t.Fatalf("trial %d d=%d dd=%d tb=%v p=%+v: sticky verdicts differ: portable %#x, sse %#x",
							trial, d, dd, tb, p, ovG, ovS)
					}
					if ovG != 0 {
						sticky++
						continue
					}
					clear++
					for g := 0; g <= words; g++ {
						if hG[g] != hS[g] || iG[g] != iS[g] || dG[g] != dS[g] {
							t.Fatalf("trial %d d=%d dd=%d tb=%v p=%+v word %d [%d,%d]:\n portable H %#016x I %#016x D %#016x\n sse      H %#016x I %#016x D %#016x",
								trial, d, dd, tb, p, g, gA, gB, hG[g], iG[g], dG[g], hS[g], iS[g], dS[g])
						}
					}
					if !bytes.Equal(btG, btS) {
						t.Fatalf("trial %d d=%d dd=%d p=%+v words [%d,%d]: nibble rows differ:\n portable %x\n sse      %x",
							trial, d, dd, p, gA, gB, btG, btS)
					}
				}
			}
		}
	}
	if clear < 10000 || sticky < 10000 {
		t.Fatalf("lopsided coverage: %d clear and %d sticky steps", clear, sticky)
	}
}

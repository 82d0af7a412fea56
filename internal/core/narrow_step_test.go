package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestNarrowStepAsmMatchesPortable pins the narrow engine's four cell
// updates to one another. Unmasked, the SSE2 kernels (through their amd64
// wrappers) must match the portable SWAR loops word for word — on amd64
// the engine hands the Go loops only the edge words and an odd trailing
// word, so nothing else compares them lane for lane (off amd64 both sides
// are the portable loop). Masked, the portable loops under a random lane
// keep-mask must match their own unmasked run: lanes outside the mask
// keep their previous H/I/D and nibble contents bit for bit and raise no
// sticky bit, kept lanes equal the unmasked step.
//
// Random lane words mix dead, near-guard, mid-range (a narrow value range,
// so extend and origin ties are common) and near-top lanes, the base lanes
// of b copy those of a in long runs (so match-heavy words occur) at random
// stream offsets, under every d × dd neighbour offset. The unmasked sticky
// verdict (zero / non-zero) must always agree; when it is clear the H/I/D
// words and the nibble bytes must be identical (on a sticky the assembly's
// in-flight lanes may legitimately differ — the engine discards the step).
func TestNarrowStepAsmMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const words = 14 // lanes 0..55, plus the pad word
	const baseWords = words + 4
	type lanes = []uint64
	newLanes := func(n int) lanes { return make(lanes, n) }
	clear, sticky, masked := 0, 0, 0
	for trial := 0; trial < 6000; trial++ {
		p := narrowFuzzParams[trial%len(narrowFuzzParams)]
		oe16 := uint16(p.GapOpen + p.GapExt)
		gb16 := uint16(narrowGuard(p))
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
		fill := func(a lanes, hazards bool) lanes {
			for l := 0; l < 4*words; l++ {
				setLane16(a, l, lane(hazards))
			}
			return a
		}
		st := narrowStep{
			hCur: fill(newLanes(words+1), rough), hPrev: fill(newLanes(words+1), rough),
			iCur: fill(newLanes(words+1), true), dCur: fill(newLanes(words+1), true),
			a: newLanes(baseWords), b: newLanes(baseWords),
			aOff: rng.Intn(8), bOff: rng.Intn(8),
			eV:  uint64(uint16(p.GapExt)) * lanesOne,
			oeV: uint64(oe16) * lanesOne,
			nmV: uint64(uint16(-p.Mismatch)) * lanesOne,
			gbV: uint64(gb16) * lanesOne,
			smV: uint64(smd) * lanesOne,
		}
		// Base lanes: b agrees with a in runs of about eight lanes.
		for l := 0; l < 4*baseWords; l++ {
			setLane16(st.a, l, uint16(rng.Intn(4)))
			setLane16(st.b, l, uint16(rng.Intn(4)))
		}
		agree := rng.Intn(2) == 0
		for l := 0; l < 4*words; l++ {
			if rng.Intn(8) == 0 {
				agree = !agree
			}
			if agree {
				setLane16(st.b, l+st.bOff, getLane16(st.a, l+st.aOff))
			}
		}

		// An even word count keeps the amd64 wrappers on the SSE2 kernels
		// alone (no trailing portable word).
		gA := 1 + rng.Intn(3)
		pairs := 1 + rng.Intn((words-1-gA)/2)
		gB := gA + 2*pairs - 1
		// The masked word, its keep-mask, and the junk its outputs start
		// from (any subset of lanes, the empty and full masks included).
		gM := 1 + rng.Intn(words-1)
		var keep uint64
		for k := uint(0); k < 4; k++ {
			if rng.Intn(2) == 0 {
				keep |= 0xffff << (16 * k)
			}
		}
		junk := func() (lanes, lanes, lanes, []byte) {
			r := rand.New(rand.NewSource(int64(trial)))
			h, i, d, bt := newLanes(words+1), newLanes(words+1), newLanes(words+1), make([]byte, 2*words)
			for g := range h {
				h[g], i[g], d[g] = r.Uint64(), r.Uint64(), r.Uint64()
			}
			r.Read(bt)
			return h, i, d, bt
		}
		kn := keep & 0x000f000f000f000f
		kn |= kn >> 12

		for d := 0; d <= 1; d++ {
			for dd := 0; dd <= 2; dd++ {
				for _, tb := range bothModes {
					st.d, st.dd = d, dd
					run := func(h, i, dn lanes, bt []byte, sse bool, g0, g1 int, keep uint64) uint64 {
						s := st
						s.hNext, s.iNext, s.dNext, s.bt = h, i, dn, bt
						switch {
						case tb && sse:
							return narrowStepWordsTB(&s, g0, g1)
						case tb:
							return narrowStepWordsGoTB(&s, g0, g1, keep)
						case sse:
							return narrowStepWords(&s, g0, g1)
						default:
							return narrowStepWordsGo(&s, g0, g1, keep)
						}
					}

					hG, iG, dG := newLanes(words+1), newLanes(words+1), newLanes(words+1)
					hS, iS, dS := newLanes(words+1), newLanes(words+1), newLanes(words+1)
					btG, btS := make([]byte, 2*words), make([]byte, 2*words)
					ovG := run(hG, iG, dG, btG, false, gA, gB, ^uint64(0))
					ovS := run(hS, iS, dS, btS, true, gA, gB, 0)
					if (ovG != 0) != (ovS != 0) {
						t.Fatalf("trial %d d=%d dd=%d tb=%v p=%+v: sticky verdicts differ: portable %#x, sse %#x",
							trial, d, dd, tb, p, ovG, ovS)
					}
					if ovG != 0 {
						sticky++
					} else {
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

					// Masked word gM against the unmasked step of the same word.
					hF, iF, dF, btF := junk()
					hM, iM, dM, btM := junk()
					h0, i0, d0, bt0 := junk()
					ovF := run(hF, iF, dF, btF, false, gM, gM, ^uint64(0))
					ovM := run(hM, iM, dM, btM, false, gM, gM, keep)
					masked++
					if ovM != ovF&keep {
						t.Fatalf("trial %d d=%d dd=%d tb=%v keep=%#x: masked sticky %#x, unmasked %#x",
							trial, d, dd, tb, keep, ovM, ovF)
					}
					for g := 0; g <= words; g++ {
						var k uint64 // the lanes of word g the step may write
						if g == gM {
							k = keep
						}
						if hM[g] != h0[g]&^k|hF[g]&k || iM[g] != i0[g]&^k|iF[g]&k || dM[g] != d0[g]&^k|dF[g]&k {
							t.Fatalf("trial %d d=%d dd=%d tb=%v keep=%#x word %d (masked %d):\n masked   H %#016x I %#016x D %#016x\n unmasked H %#016x I %#016x D %#016x\n before   H %#016x I %#016x D %#016x",
								trial, d, dd, tb, keep, g, gM, hM[g], iM[g], dM[g], hF[g], iF[g], dF[g], h0[g], i0[g], d0[g])
						}
					}
					wantBT := bytes.Clone(bt0)
					if tb {
						for k, kb := range []byte{byte(kn), byte(kn >> 32)} {
							j := 2*gM + k
							wantBT[j] = bt0[j]&^kb | btF[j]&kb
						}
					}
					if !bytes.Equal(btM, wantBT) {
						t.Fatalf("trial %d d=%d dd=%d tb=%v keep=%#x word %d: nibble row\n masked %x\n want   %x",
							trial, d, dd, tb, keep, gM, btM, wantBT)
					}
				}
			}
		}
	}
	if clear < 10000 || sticky < 10000 || masked < 60000 {
		t.Fatalf("lopsided coverage: %d clear and %d sticky steps, %d masked words", clear, sticky, masked)
	}
}

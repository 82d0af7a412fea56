package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestNarrowStepAsmMatchesPortable pins the narrow engine's four cell
// updates to one another under the span contract: words [gA, gB] of one
// anti-diagonal, the first under a lane keep-mask keepLo and the last
// under keepHi. The kernel the engine calls (the SSE2 assembly on amd64,
// the portable loop elsewhere) must match the portable SWAR loop lane for
// lane, traceback bits included, whenever the portable sticky verdict is
// clear, and agree with it on the verdict (zero / non-zero) always. The
// portable loop under the masks must equal its own unmasked run on the
// kept lanes, its sticky flag included: the masked flag is exactly the OR
// of each word's unmasked flag (that word run alone) restricted to the
// word's kept lanes, so only kept lanes may raise it. Lanes outside the
// masks keep their previous H/I/D and traceback bits bit for bit in every
// run.
//
// Spans are 1–15 words long (odd counts end the kernel in a half
// iteration) and the masks are any lane subsets, the empty and full ones
// included. Random lane words mix dead, near-guard, mid-range (a narrow
// value range, so extend and origin ties are common) and near-top lanes;
// the base lanes of b copy those of a in long runs (so match-heavy words
// occur) at random stream offsets, under every d × dd neighbour offset.
// On shielded trials every masked-out lane of the span is made to carry —
// its diagonal input at narrowTop on a matching base — while the kept
// lanes stay clean, so a kernel that let a masked-out lane reach the
// sticky flag fails the verdict check.
func TestNarrowStepAsmMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	const words = 20 // per lane array: spans from word 1–3, plus neighbour words
	const baseWords = words + 6
	const rowBytes = 2 * (words - 1)
	clear_, sticky, shielded, odd := 0, 0, 0, 0
	for trial := 0; trial < 6000; trial++ {
		p := narrowFuzzParams[trial%len(narrowFuzzParams)]
		oe16 := uint16(p.GapOpen + p.GapExt)
		gb16 := uint16(narrowGuard(p))
		smd := uint16(p.Match - p.Mismatch)

		// A clean trial keeps every H lane comfortably live so the guard
		// stays quiet; a rough one sprinkles the hazards over H as well.
		rough := trial%3 == 0
		shield := !rough && trial%2 == 1
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
		st := narrowStep{
			ring:  make([]uint64, 7*words),
			words: words,
			a:     make([]uint64, baseWords), b: make([]uint64, baseWords),
			aOff: rng.Intn(8), bOff: rng.Intn(8),
			eV:  uint64(uint16(p.GapExt)) * lanesOne,
			oeV: uint64(oe16) * lanesOne,
			nmV: uint64(uint16(-p.Mismatch)) * lanesOne,
			gbV: uint64(gb16) * lanesOne,
			smV: uint64(smd) * lanesOne,
		}
		st.hCur, st.hNext = words, 2*words
		st.iCur, st.iNext, st.dCur, st.dNext = 3*words, 4*words, 5*words, 6*words
		for _, arr := range []int{st.hPrev, st.hCur, st.iCur, st.dCur} {
			hz := rough || arr == st.iCur || arr == st.dCur
			for l := 0; l < 4*words; l++ {
				setLane16(st.ring, 4*arr+l, lane(hz))
			}
		}
		// The output arrays and the traceback row start as junk.
		for _, arr := range []int{st.hNext, st.iNext, st.dNext} {
			for g := 0; g < words; g++ {
				st.ring[arr+g] = rng.Uint64()
			}
		}
		junkBT := make([]byte, rowBytes)
		rng.Read(junkBT)
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

		gA := 1 + rng.Intn(3)
		gB := gA + rng.Intn(15)
		if (gB-gA)%2 == 0 {
			odd++
		}
		mask := func() uint64 {
			var k uint64
			for l := uint(0); l < 4; l++ {
				if rng.Intn(2) == 0 {
					k |= 0xffff << (16 * l)
				}
			}
			return k
		}
		keepLo, keepHi := mask(), mask()
		// kept is the keep-mask of word g; keptBT folds it onto traceback
		// byte j, one bit per kept lane in each nibble of word j's byte in
		// either half of the row.
		kept := func(g int) uint64 {
			if g < gA || g > gB {
				return 0
			}
			return narrowKeep(g, gA, gB, keepLo, keepHi)
		}
		keptBT := func(j int) byte { return narrowBits(kept(j%(rowBytes/2))&nH) * 0x11 }

		for d := 0; d <= 1; d++ {
			for dd := 0; dd <= 2; dd++ {
				in := st
				in.d, in.dd = d, dd
				in.ring, in.b = slices.Clone(st.ring), slices.Clone(st.b)
				if shield {
					for g := gA; g <= gB; g++ {
						for l := 4 * g; l < 4*g+4; l++ {
							if kept(g)>>(16*uint(l&3))&1 == 0 {
								setLane16(in.ring, 4*in.hPrev+l-1+dd, narrowTop)
								setLane16(in.b, l+in.bOff, getLane16(in.a, l+in.aOff))
							}
						}
					}
				}
				for _, tb := range bothModes {
					run := func(kernel bool, lo, hi int, keepLo, keepHi uint64) ([]uint64, []byte, uint64) {
						s := in
						s.ring, s.bt = slices.Clone(in.ring), slices.Clone(junkBT)
						s.bind()
						if kernel {
							return s.ring, s.bt, s.kernel(lo, hi, keepLo, keepHi, tb)
						}
						return s.ring, s.bt, narrowStepWordsGo(&s, lo, hi, keepLo, keepHi, tb)
					}
					ringF, btF, ovF := run(false, gA, gB, ^uint64(0), ^uint64(0))
					ringP, btP, ovP := run(false, gA, gB, keepLo, keepHi)
					ringK, btK, ovK := run(true, gA, gB, keepLo, keepHi)
					// The exact sticky of the masked span: each word's
					// unmasked sticky, run on that word alone, restricted
					// to the word's kept lanes.
					var ovWant, ovWords uint64
					for g := gA; g <= gB; g++ {
						_, _, ov := run(false, g, g, ^uint64(0), ^uint64(0))
						ovWant |= ov & kept(g)
						ovWords |= ov
					}
					label := func() string {
						return fmt.Sprintf("trial %d d=%d dd=%d tb=%v words [%d,%d] keep %#x/%#x: sticky unmasked %#x, portable %#x (want %#x), kernel %#x",
							trial, d, dd, tb, gA, gB, keepLo, keepHi, ovF, ovP, ovWant, ovK)
					}
					if ovWords != ovF {
						t.Fatalf("%s: the words' stickies OR to %#x, not the span's", label(), ovWords)
					}
					if ovP != ovWant {
						t.Fatalf("%s: masked sticky is not the unmasked one on the kept lanes", label())
					}
					if (ovP != 0) != (ovK != 0) {
						t.Fatalf("%s: sticky verdicts differ", label())
					}
					switch {
					case ovP != 0:
						sticky++
					case ovF != 0:
						shielded++
					default:
						clear_++
					}

					for i, arr := range []int{in.hNext, in.iNext, in.dNext} {
						for g := 0; g < words; g++ {
							k, j := kept(g), arr+g
							if want := in.ring[j]&^k | ringF[j]&k; ringP[j] != want {
								t.Fatalf("%s: portable array %d word %d: %#016x, want %#016x (unmasked %#016x, before %#016x)",
									label(), i, g, ringP[j], want, ringF[j], in.ring[j])
							}
							if ringK[j]&^k != in.ring[j]&^k {
								t.Fatalf("%s: kernel wrote masked-out lanes of array %d word %d: %#016x, before %#016x",
									label(), i, g, ringK[j], in.ring[j])
							}
						}
					}
					for _, r := range [][]uint64{ringP, ringK} {
						for _, arr := range []int{in.hPrev, in.hCur, in.iCur, in.dCur} {
							if !slices.Equal(r[arr:arr+words], in.ring[arr:arr+words]) {
								t.Fatalf("%s: an input array changed", label())
							}
						}
					}
					for j := range junkBT {
						var k byte
						if tb {
							k = keptBT(j)
						}
						if want := junkBT[j]&^k | btF[j]&k; btP[j] != want {
							t.Fatalf("%s: portable traceback byte %d: %#02x, want %#02x", label(), j, btP[j], want)
						}
						if btK[j]&^k != junkBT[j]&^k {
							t.Fatalf("%s: kernel wrote masked-out traceback bits of byte %d: %#02x, before %#02x",
								label(), j, btK[j], junkBT[j])
						}
					}
					if ovP == 0 && (!slices.Equal(ringK, ringP) || !bytes.Equal(btK, btP)) {
						t.Fatalf("%s: kernel and portable step differ:\n kernel   %x\n portable %x\n bt       %x\n portable %x",
							label(), ringK, ringP, btK, btP)
					}
				}
			}
		}
	}
	if clear_ < 20000 || sticky < 12000 || shielded < 16000 || odd < 2500 {
		t.Fatalf("lopsided coverage: %d clear, %d sticky and %d shielded steps, %d odd spans",
			clear_, sticky, shielded, odd)
	}
}

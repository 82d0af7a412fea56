package core

import (
	"testing"
)

// narrowFuzzParams are the scoring models the equivalence fuzzer cycles
// through: the default model plus shapes that stress each saturation
// mechanism (high match drift, heavy gap decay, deep mismatch folds). All
// pass narrowParamsFit, so the engine runs rather than rejecting a-priori;
// overflow remains a legal outcome the oracle skips.
var narrowFuzzParams = []Params{
	DefaultParams(),
	{Match: 31, Mismatch: -4, GapOpen: 4, GapExt: 2},
	{Match: 127, Mismatch: -4, GapOpen: 4, GapExt: 2},
	{Match: 2, Mismatch: -4, GapOpen: 64, GapExt: 32},
	{Match: 2, Mismatch: -96, GapOpen: 4, GapExt: 2},
}

// FuzzNarrowWideEquivalence pins the narrow engine to the full-width one:
// on arbitrary pairs, bands and scoring models, a narrow-lane run that
// does not report Overflowed must be bit-identical to the wide engine on
// every result field — in traceback mode the CIGAR included. Overflowed
// runs must carry the NegInf sentinel and never leak a partial score or
// CIGAR.
func FuzzNarrowWideEquivalence(f *testing.F) {
	f.Add([]byte("ACGTACGTACGT"), []byte("ACGAACGT"), uint8(8), uint8(0), true)
	f.Add([]byte(""), []byte("TTTT"), uint8(2), uint8(1), true)
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), []byte("AAAA"), uint8(3), uint8(2), false)
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 3, 2, 1, 0}, []byte{3, 2, 1, 0}, uint8(63), uint8(3), false)
	f.Add([]byte("ACACACACACACACACACACACAC"), []byte("ACACACACACACACACACACACAC"), uint8(16), uint8(4), true)
	// Bands w ≡ 1, 2, 3 (mod 4), so the window ends mid-word, on pairs
	// whose first anti-diagonals open the span mid-word beside the o == 0
	// boundary cell and close it mid-word beside the j == 0 one, and whose
	// last ones do the same against the i == m and j == n edges.
	f.Add([]byte("ACGTTGCAACGTAGGCTTACGATCG"), []byte("ACGTTGCTACGTAGCTTACGTTCG"), uint8(3), uint8(0), true)
	f.Add([]byte("ACGTTGCAACGTAGGCTTACGATCG"), []byte("ACGTTGCTACGTAGCTTACGTTCG"), uint8(4), uint8(1), false)
	f.Add([]byte("TTGACCGATAGCCAGTTAGCAAT"), []byte("TTGACGATAGCCCAGTTAGGCAAT"), uint8(5), uint8(0), true)
	f.Add([]byte("GATTACAGATTACAGATTACAGATTACA"), []byte("GATTACAGATTCAGATTACAGATTTACA"), uint8(9), uint8(4), true)
	f.Add([]byte("CCGGTTAACCGGTTAA"), []byte("CCGGTAACCGGTTTAAG"), uint8(7), uint8(2), false)
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, wRaw, pRaw uint8, traceback bool) {
		a := bytesToSeq(rawA, 96)
		b := bytesToSeq(rawB, 96)
		w := 2 + int(wRaw)%96
		p := narrowFuzzParams[int(pRaw)%len(narrowFuzzParams)]
		s := NewScratch()
		narrow, ok := s.adaptiveBandNarrow(a, b, p, w, traceback)
		if !ok {
			if !narrow.Overflowed {
				t.Fatalf("ok=false without Overflowed (w=%d p=%+v a=%v b=%v)", w, p, a, b)
			}
			if narrow.Score != NegInf || narrow.Cigar != nil {
				t.Fatalf("overflowed run leaked %+v (w=%d p=%+v a=%v b=%v)", narrow, w, p, a, b)
			}
			return
		}
		if narrow.Overflowed {
			t.Fatalf("ok=true with Overflowed set (w=%d p=%+v a=%v b=%v)", w, p, a, b)
		}
		wide, _ := s.adaptiveBand(a, b, p, w, traceback)
		if narrow.Score != wide.Score || narrow.InBand != wide.InBand ||
			narrow.Clipped != wide.Clipped || narrow.Cells != wide.Cells ||
			narrow.Steps != wide.Steps || narrow.Cigar.String() != wide.Cigar.String() {
			t.Fatalf("narrow engine diverged (w=%d traceback=%v p=%+v):\n narrow %+v\n wide   %+v\n a=%v\n b=%v",
				w, traceback, p, narrow, wide, a, b)
		}
	})
}

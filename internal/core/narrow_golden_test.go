package core

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pimnw/internal/seq"
)

var (
	updateNarrowGolden = flag.Bool("update-narrow-golden", false,
		"rewrite internal/core/testdata/narrow_verdicts.golden from the current code")
	updateWideGolden = flag.Bool("update-wide-golden", false,
		"rewrite internal/core/testdata/wide_results.golden from the current code")
)

// narrowGoldenShapes are the pair shapes of the verdict golden: the
// degenerate edges, a length skew that hugs the matrix boundary, a pair
// smaller than most bands, and the serving and benchmark shapes.
func narrowGoldenShapes() []struct {
	name string
	a, b seq.Seq
} {
	rng := rand.New(rand.NewSource(27))
	long := seq.Random(rng, 400)
	tiny := seq.Random(rng, 5)
	kb2 := seq.Random(rng, 2000)
	kb10 := seq.Random(rng, 10_000)
	return []struct {
		name string
		a, b seq.Seq
	}{
		{"empty", nil, seq.Random(rng, 37)},
		{"one-base", seq.Random(rng, 1), seq.Random(rng, 29)},
		{"skewed", long, seq.UniformErrors(0.05).Apply(rng, long[:60])},
		{"tiny", tiny, seq.UniformErrors(0.2).Apply(rng, tiny)},
		{"2kb-8pct", kb2, seq.UniformErrors(0.08).Apply(rng, kb2)},
		{"10kb-1pct", kb10, seq.UniformErrors(0.01).Apply(rng, kb10)},
	}
}

// goldenLongShape is the shape the wide golden leaves out under -short:
// the full-width engine spends most of the matrix's time on it.
const goldenLongShape = "10kb-1pct"

// engineVerdicts renders one line per input of the golden matrix — scoring
// model × band × mode × shape — with what verdict reports for it. The
// shape named skip is left out.
func engineVerdicts(skip string, verdict func(s *Scratch, a, b seq.Seq, p Params, w int, tb bool) string) []byte {
	var buf bytes.Buffer
	s := NewScratch()
	shapes := narrowGoldenShapes()
	for pi, p := range narrowFuzzParams {
		for _, w := range []int{2, 3, 8, 63, 64, 65, 128, 256, 1024, 1100} {
			for _, tb := range bothModes {
				for _, sh := range shapes {
					if sh.name == skip {
						continue
					}
					fmt.Fprintf(&buf, "p%d w=%d tb=%v %s: %s\n", pi, w, tb, sh.name, verdict(s, sh.a, sh.b, p, w, tb))
				}
			}
		}
	}
	return buf.Bytes()
}

func cigarHash(res Result) uint64 {
	h := fnv.New64a()
	h.Write([]byte(res.Cigar.String()))
	return h.Sum64()
}

// narrowVerdict is the narrow engine's verdict: the score, cell count and
// CIGAR hash when it completes, or "overflowed".
func narrowVerdict(s *Scratch, a, b seq.Seq, p Params, w int, tb bool) string {
	res, ok := s.adaptiveBandNarrow(a, b, p, w, tb)
	if !ok {
		return "overflowed"
	}
	return fmt.Sprintf("ok score=%d inband=%v clipped=%v cells=%d cigar=%016x",
		res.Score, res.InBand, res.Clipped, res.Cells, cigarHash(res))
}

// wideResult is the full-width engine's result, which never overflows,
// with a hash of its window-offset trajectory.
func wideResult(s *Scratch, a, b seq.Seq, p Params, w int, tb bool) string {
	res, off := s.adaptiveBand(a, b, p, w, tb)
	h := fnv.New64a()
	var word [4]byte
	for _, o := range off {
		binary.LittleEndian.PutUint32(word[:], uint32(o))
		h.Write(word[:])
	}
	return fmt.Sprintf("score=%d inband=%v clipped=%v cells=%d steps=%d cigar=%016x off=%016x",
		res.Score, res.InBand, res.Clipped, res.Cells, res.Steps, cigarHash(res), h.Sum64())
}

// checkGolden compares got with the committed golden file, or rewrites the
// file when update is set. Lines of the shape skip are dropped from the
// file before comparing, to match an engineVerdicts run that skipped it.
func checkGolden(t *testing.T, name string, got []byte, update bool, skip string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if update {
		if skip != "" {
			t.Fatalf("%s: rewrite it without -short", name)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wl := bytes.SplitAfter(want, []byte("\n"))
	if skip != "" {
		kept := wl[:0]
		for _, l := range wl {
			if !bytes.Contains(l, []byte(" "+skip+": ")) {
				kept = append(kept, l)
			}
		}
		wl = kept
	}
	gl := bytes.SplitAfter(got, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s line %d changed:\n got  %s\n want %s", name, i+1, bytes.TrimSpace(g), bytes.TrimSpace(w))
		}
	}
}

// TestNarrowVerdictGolden pins the narrow engine's verdicts, not only its
// answers: FuzzNarrowWideEquivalence skips overflowed runs, so an engine
// that overflowed more often — more StatusOverflowed pairs under
// score-only lanes, more silent wide fallbacks — would pass it while
// changing behaviour. Every line of the committed golden must come back
// byte for byte.
func TestNarrowVerdictGolden(t *testing.T) {
	bothNarrowEngines(t, func(t *testing.T) {
		checkGolden(t, "narrow_verdicts.golden", engineVerdicts("", narrowVerdict), *updateNarrowGolden, "")
	})
}

// TestWideResultGolden pins the full-width engine over the same matrix,
// including the inputs the narrow engine overflows on: every result field
// and the window trajectory, so a rewrite of the wide engine must
// reproduce the file byte for byte.
func TestWideResultGolden(t *testing.T) {
	skip := ""
	if testing.Short() {
		skip = goldenLongShape
	}
	bothNarrowEngines(t, func(t *testing.T) {
		checkGolden(t, "wide_results.golden", engineVerdicts(skip, wideResult), *updateWideGolden, skip)
	})
}

// bothNarrowEngines runs f on the narrow engine this CPU selects and,
// where that is the AVX2 routine, again with the portable engine forced,
// so both must reproduce the same golden file.
func bothNarrowEngines(t *testing.T, f func(t *testing.T)) {
	t.Run(NarrowEngine(), f)
	if narrowAVX2 {
		narrowAVX2 = false
		defer func() { narrowAVX2 = true }()
		t.Run(NarrowEngine(), f)
	}
}

package core

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pimnw/internal/seq"
)

var updateNarrowGolden = flag.Bool("update-narrow-golden", false,
	"rewrite internal/core/testdata/narrow_verdicts.golden from the current code")

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

// narrowVerdicts renders one line per input of the golden matrix — scoring
// model × band × mode × shape — with the narrow engine's verdict: the
// score, cell count and CIGAR hash when it completes, or "overflowed".
func narrowVerdicts() []byte {
	var buf bytes.Buffer
	s := NewScratch()
	shapes := narrowGoldenShapes()
	for pi, p := range narrowFuzzParams {
		for _, w := range []int{2, 3, 8, 63, 64, 65, 128, 256, 1024, 1100} {
			for _, tb := range bothModes {
				for _, sh := range shapes {
					fmt.Fprintf(&buf, "p%d w=%d tb=%v %s: ", pi, w, tb, sh.name)
					res, ok := s.adaptiveBandNarrow(sh.a, sh.b, p, w, tb, DefaultVariant())
					if !ok {
						fmt.Fprintln(&buf, "overflowed")
						continue
					}
					h := fnv.New64a()
					h.Write([]byte(res.Cigar.String()))
					fmt.Fprintf(&buf, "ok score=%d inband=%v clipped=%v cells=%d cigar=%016x\n",
						res.Score, res.InBand, res.Clipped, res.Cells, h.Sum64())
				}
			}
		}
	}
	return buf.Bytes()
}

// TestNarrowVerdictGolden pins the narrow engine's verdicts, not only its
// answers: FuzzNarrowWideEquivalence skips overflowed runs, so an engine
// that overflowed more often — more StatusOverflowed pairs under
// score-only lanes, more silent wide fallbacks — would pass it while
// changing behaviour. Every line of the committed golden must come back
// byte for byte.
func TestNarrowVerdictGolden(t *testing.T) {
	path := filepath.Join("testdata", "narrow_verdicts.golden")
	got := narrowVerdicts()
	if *updateNarrowGolden {
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
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("verdict line %d changed:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

package seq

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBaseChar(t *testing.T) {
	cases := []struct {
		b Base
		c byte
	}{{A, 'A'}, {C, 'C'}, {G, 'G'}, {T, 'T'}}
	for _, tc := range cases {
		if got := tc.b.Char(); got != tc.c {
			t.Errorf("Base(%d).Char() = %c, want %c", tc.b, got, tc.c)
		}
		if got := tc.b.String(); got != string(tc.c) {
			t.Errorf("Base(%d).String() = %q, want %q", tc.b, got, string(tc.c))
		}
	}
}

func TestBaseFromChar(t *testing.T) {
	for _, c := range []byte{'A', 'C', 'G', 'T', 'a', 'c', 'g', 't'} {
		b, ok := BaseFromChar(c)
		if !ok {
			t.Fatalf("BaseFromChar(%c) not ok", c)
		}
		upper := c &^ 0x20
		if b.Char() != upper {
			t.Errorf("BaseFromChar(%c) = %v, want %c", c, b, upper)
		}
	}
	for _, c := range []byte{'N', 'n', 'X', ' ', '>', 0} {
		if _, ok := BaseFromChar(c); ok {
			t.Errorf("BaseFromChar(%c) unexpectedly ok", c)
		}
	}
}

func TestFromStringRoundTrip(t *testing.T) {
	const in = "ACGTACGTTTGGCCAA"
	s, err := FromString(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != in {
		t.Errorf("round trip = %q, want %q", got, in)
	}
}

func TestFromStringLowercase(t *testing.T) {
	s, err := FromString("acgt", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != "ACGT" {
		t.Errorf("got %q, want ACGT", got)
	}
}

func TestFromStringNResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s, err := FromString("ANNNT", rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 5 {
		t.Fatalf("len = %d, want 5", len(s))
	}
	if s[0] != A || s[4] != T {
		t.Errorf("unambiguous bases altered: %v", s)
	}
	// Same seed, same resolution: the substitution must be deterministic.
	s2, err := FromString("ANNNT", rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(s2) {
		t.Errorf("N resolution not deterministic: %v vs %v", s, s2)
	}
}

func TestFromStringNWithoutRNG(t *testing.T) {
	if _, err := FromString("AN", nil); err == nil {
		t.Error("expected error for N without RNG")
	}
}

func TestFromStringInvalid(t *testing.T) {
	if _, err := FromString("ACGU", nil); err == nil {
		t.Error("expected error for invalid character U")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := MustFromString("ACGT")
	c := s.Clone()
	c[0] = T
	if s[0] != A {
		t.Error("Clone shares storage with original")
	}
	if !s.Equal(s.Clone()) {
		t.Error("Clone not equal to original")
	}
}

func TestEqual(t *testing.T) {
	a := MustFromString("ACGT")
	if !a.Equal(MustFromString("ACGT")) {
		t.Error("equal sequences reported unequal")
	}
	if a.Equal(MustFromString("ACGA")) {
		t.Error("different content reported equal")
	}
	if a.Equal(MustFromString("ACG")) {
		t.Error("different length reported equal")
	}
}

func TestGC(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"", 0}, {"AT", 0}, {"GC", 1}, {"ACGT", 0.5}, {"GGGA", 0.75},
	}
	for _, tc := range cases {
		if got := MustFromString(tc.in).GC(); got != tc.want {
			t.Errorf("GC(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestRandomLengthAndAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := Random(rng, 1000)
	if len(s) != 1000 {
		t.Fatalf("len = %d", len(s))
	}
	var counts [NumBases]int
	for _, b := range s {
		if b >= NumBases {
			t.Fatalf("base out of range: %d", b)
		}
		counts[b]++
	}
	for b, n := range counts {
		if n < 150 || n > 350 {
			t.Errorf("base %d count %d suspiciously far from uniform", b, n)
		}
	}
}

func TestRandomGCBias(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := RandomGC(rng, 20000, 0.7)
	if gc := s.GC(); gc < 0.67 || gc > 0.73 {
		t.Errorf("GC = %v, want ~0.7", gc)
	}
}

func TestComplement(t *testing.T) {
	pairs := map[Base]Base{A: T, T: A, C: G, G: C}
	for b, want := range pairs {
		if got := b.Complement(); got != want {
			t.Errorf("%v.Complement() = %v, want %v", b, got, want)
		}
	}
}

func TestReverseComplement(t *testing.T) {
	s := MustFromString("AACGT")
	if got := s.ReverseComplement().String(); got != "ACGTT" {
		t.Errorf("revcomp = %q, want ACGTT", got)
	}
}

func TestReverseComplementInvolution(t *testing.T) {
	f := func(raw []byte) bool {
		s := make(Seq, len(raw))
		for i, r := range raw {
			s[i] = Base(r & 3)
		}
		return s.ReverseComplement().ReverseComplement().Equal(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackedSize(t *testing.T) {
	cases := []struct{ n, want int }{{0, 0}, {1, 1}, {4, 1}, {5, 2}, {8, 2}, {9, 3}}
	for _, tc := range cases {
		if got := PackedSize(tc.n); got != tc.want {
			t.Errorf("PackedSize(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestFASTARoundTrip(t *testing.T) {
	recs := []Record{
		{Name: "read1 description", Seq: MustFromString("ACGTACGTACGT")},
		{Name: "read2", Seq: MustFromString(strings.Repeat("ACGT", 50))},
		{Name: "empty", Seq: Seq{}},
	}
	var sb strings.Builder
	if err := WriteFASTA(&sb, recs, 10); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFASTA(strings.NewReader(sb.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].Name != recs[i].Name {
			t.Errorf("record %d name = %q, want %q", i, got[i].Name, recs[i].Name)
		}
		if !got[i].Seq.Equal(recs[i].Seq) {
			t.Errorf("record %d sequence mismatch", i)
		}
	}
}

func TestReadFASTAErrors(t *testing.T) {
	if _, err := ReadFASTA(strings.NewReader("ACGT\n"), nil); err == nil {
		t.Error("data before header accepted")
	}
	if _, err := ReadFASTA(strings.NewReader(">r\nACGX\n"), nil); err == nil {
		t.Error("invalid base accepted")
	}
}

func TestReadFASTAMultiline(t *testing.T) {
	in := ">r1\nACGT\nTTTT\n\n>r2\nGG\n"
	recs, err := ReadFASTA(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Seq.String() != "ACGTTTTT" {
		t.Errorf("r1 = %q", recs[0].Seq.String())
	}
	if recs[1].Seq.String() != "GG" {
		t.Errorf("r2 = %q", recs[1].Seq.String())
	}
}

// TestCharTableMatchesAlphabet checks the byte table against the alphabet
// spelled out: every byte, both cases, N and nothing else.
func TestCharTableMatchesAlphabet(t *testing.T) {
	for c := 0; c < 256; c++ {
		want, wantOK := Base(0), false
		if i := strings.IndexByte("ACGT", byte(c)&^0x20); i >= 0 {
			want, wantOK = Base(i), true
		}
		if b, ok := BaseFromChar(byte(c)); b != want || ok != wantOK {
			t.Errorf("BaseFromChar(%q) = %v, %v; want %v, %v", byte(c), b, ok, want, wantOK)
		}
	}
}

// TestAppendBytesChunked: decoding a string in pieces gives FromString's
// bases, its N draws and its error, with positions counted over the whole
// sequence.
func TestAppendBytesChunked(t *testing.T) {
	for _, in := range []string{"ACGTacgtNNacgT", "ACGTAC-GT", "ACGTACGN", ""} {
		want, wantErr := FromString(in, nil)
		wantN, _ := FromString(in, rand.New(rand.NewSource(3)))
		for cut := 0; cut <= len(in); cut++ {
			got, err := AppendBytes(nil, []byte(in[:cut]), nil)
			if err == nil {
				got, err = AppendBytes(got, []byte(in[cut:]), nil)
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || (err == nil && !got.Equal(want)) {
				t.Fatalf("%q cut at %d = %v, %v; want %v, %v", in, cut, got, err, want, wantErr)
			}
			if err != nil && strings.IndexFunc(in, func(r rune) bool { return !strings.ContainsRune("ACGTacgt", r) }) != len(got) {
				t.Fatalf("%q cut at %d: %d bases before the error", in, cut, len(got))
			}
			rng := rand.New(rand.NewSource(3))
			got, err = AppendBytes(Seq{}, []byte(in[:cut]), rng)
			if err == nil {
				got, err = AppendBytes(got, []byte(in[cut:]), rng)
			}
			if (err == nil) != (wantN != nil) || (err == nil && !got.Equal(wantN)) {
				t.Fatalf("%q cut at %d with an RNG = %v, %v; want %v", in, cut, got, err, wantN)
			}
		}
	}
}

func BenchmarkFromString(b *testing.B) {
	text := Random(rand.New(rand.NewSource(1)), 1000).String()
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		if _, err := FromString(text, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Package seq provides DNA sequence primitives shared by the aligners, the
// PiM kernel, and the dataset generators: a 2-bit nucleotide code, the
// size of the 2-bit packed host→DPU transfer format of §4.1.1 of the paper
// (the model charges the bus and the bank 2 bits per base), content
// digests, ambiguous-base ("N") resolution, and FASTA I/O.
package seq

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// Base is a nucleotide encoded on 2 bits: A=0, C=1, G=2, T=3.
// This is the code used in host memory and in the 2-bit packed transfer
// format, where each byte holds 4 bases.
type Base uint8

// The four nucleotide codes.
const (
	A Base = 0
	C Base = 1
	G Base = 2
	T Base = 3
)

// NumBases is the alphabet size.
const NumBases = 4

// baseToChar maps a 2-bit code to its ASCII letter.
var baseToChar = [NumBases]byte{'A', 'C', 'G', 'T'}

// Char returns the ASCII letter for b.
func (b Base) Char() byte { return baseToChar[b&3] }

// String implements fmt.Stringer.
func (b Base) String() string { return string(baseToChar[b&3]) }

// charCode maps every byte to isBase|code for the letters A, C, G, T in
// either case, to isN for the ambiguity code N, and to 0 for any other
// byte, so the table is a plain literal.
var charCode = [256]uint8{
	'A': isBase | 0, 'a': isBase | 0, 'C': isBase | 1, 'c': isBase | 1,
	'G': isBase | 2, 'g': isBase | 2, 'T': isBase | 3, 't': isBase | 3,
	'N': isN, 'n': isN,
}

const (
	isBase = 0x80
	isN    = 0x40
)

// BaseFromChar converts an ASCII nucleotide letter (upper or lower case) to
// its 2-bit code. It reports ok=false for any other character, including the
// ambiguity code 'N' (see ResolveN for the policy the paper applies to Ns).
func BaseFromChar(c byte) (b Base, ok bool) {
	v := charCode[c]
	return Base(v & 3), v&isBase != 0
}

// Seq is an unpacked DNA sequence, one base per element.
type Seq []Base

// FromString parses an ASCII DNA string. Ambiguous bases ('N'/'n') are
// substituted with a base drawn from rng, following the paper's §4.1.1
// policy (citing metaFlye and BWA: replacing N with a random nucleotide does
// not affect alignment results). rng may be nil if the input has no Ns, in
// which case an N is an error.
func FromString(s string, rng *rand.Rand) (Seq, error) {
	out, err := appendText(make(Seq, 0, len(s)), s, rng)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AppendBytes appends the bases spelled by text to s, resolving Ns as
// FromString does. An error gives the offending byte's position in the
// grown sequence, and the Seq returned with it holds the bases before
// that byte.
func AppendBytes(s Seq, text []byte, rng *rand.Rand) (Seq, error) {
	return appendText(s, text, rng)
}

// appendText is the one decoding loop behind FromString and AppendBytes.
// A run of eight plain bases costs eight table loads and one test; any
// other byte takes the one-byte path.
func appendText[T string | []byte](s Seq, text T, rng *rand.Rand) (Seq, error) {
	n := len(s)
	s = slices.Grow(s, len(text))[:n+len(text)]
	out := s[n:]
	for i := 0; i < len(text); {
		if i+8 <= len(text) {
			t, o := text[i:i+8], out[i:i+8]
			c0, c1, c2, c3 := charCode[t[0]], charCode[t[1]], charCode[t[2]], charCode[t[3]]
			c4, c5, c6, c7 := charCode[t[4]], charCode[t[5]], charCode[t[6]], charCode[t[7]]
			if c0&c1&c2&c3&c4&c5&c6&c7&isBase != 0 {
				o[0], o[1], o[2], o[3] = Base(c0&3), Base(c1&3), Base(c2&3), Base(c3&3)
				o[4], o[5], o[6], o[7] = Base(c4&3), Base(c5&3), Base(c6&3), Base(c7&3)
				i += 8
				continue
			}
		}
		v := charCode[text[i]]
		if v&isBase == 0 {
			if v != isN {
				return s[:n+i], fmt.Errorf("seq: invalid character %q at position %d", text[i], n+i)
			}
			if rng == nil {
				return s[:n+i], fmt.Errorf("seq: ambiguous base N at position %d and no RNG to resolve it", n+i)
			}
			v = uint8(rng.Intn(NumBases))
		}
		out[i] = Base(v & 3)
		i++
	}
	return s, nil
}

// MustFromString is FromString for test and example literals; it panics on
// invalid input and resolves Ns deterministically with seed 1.
func MustFromString(s string) Seq {
	sq, err := FromString(s, rand.New(rand.NewSource(1)))
	if err != nil {
		panic(err)
	}
	return sq
}

// String renders the sequence as ASCII letters.
func (s Seq) String() string {
	var sb strings.Builder
	sb.Grow(len(s))
	for _, b := range s {
		sb.WriteByte(b.Char())
	}
	return sb.String()
}

// Clone returns a deep copy of s.
func (s Seq) Clone() Seq {
	out := make(Seq, len(s))
	copy(out, s)
	return out
}

// Equal reports whether two sequences have identical length and content.
func (s Seq) Equal(t Seq) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// GC returns the GC fraction of the sequence (0 for an empty sequence).
func (s Seq) GC() float64 {
	if len(s) == 0 {
		return 0
	}
	n := 0
	for _, b := range s {
		if b == G || b == C {
			n++
		}
	}
	return float64(n) / float64(len(s))
}

// Random returns a uniformly random sequence of length n drawn from rng.
func Random(rng *rand.Rand, n int) Seq {
	s := make(Seq, n)
	for i := range s {
		s[i] = Base(rng.Intn(NumBases))
	}
	return s
}

// RandomGC returns a random sequence of length n with expected GC content gc.
func RandomGC(rng *rand.Rand, n int, gc float64) Seq {
	s := make(Seq, n)
	for i := range s {
		if rng.Float64() < gc {
			if rng.Intn(2) == 0 {
				s[i] = G
			} else {
				s[i] = C
			}
		} else {
			if rng.Intn(2) == 0 {
				s[i] = A
			} else {
				s[i] = T
			}
		}
	}
	return s
}

// Complement returns the Watson-Crick complement of b.
func (b Base) Complement() Base { return b ^ 3 }

// ReverseComplement returns the reverse complement of s.
func (s Seq) ReverseComplement() Seq {
	out := make(Seq, len(s))
	for i, b := range s {
		out[len(s)-1-i] = b.Complement()
	}
	return out
}

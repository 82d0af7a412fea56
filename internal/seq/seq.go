// Package seq provides DNA sequence primitives shared by the aligners, the
// PiM kernel, and the dataset generators: a 2-bit nucleotide code, the
// size of the 2-bit packed host→DPU transfer format of §4.1.1 of the paper
// (the model charges the bus and the bank 2 bits per base), content
// digests, ambiguous-base ("N") resolution, and FASTA I/O.
package seq

import (
	"fmt"
	"math/rand"
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

// BaseFromChar converts an ASCII nucleotide letter (upper or lower case) to
// its 2-bit code. It reports ok=false for any other character, including the
// ambiguity code 'N' (see ResolveN for the policy the paper applies to Ns).
func BaseFromChar(c byte) (b Base, ok bool) {
	switch c {
	case 'A', 'a':
		return A, true
	case 'C', 'c':
		return C, true
	case 'G', 'g':
		return G, true
	case 'T', 't':
		return T, true
	}
	return 0, false
}

// Seq is an unpacked DNA sequence, one base per element.
type Seq []Base

// FromString parses an ASCII DNA string. Ambiguous bases ('N'/'n') are
// substituted with a base drawn from rng, following the paper's §4.1.1
// policy (citing metaFlye and BWA: replacing N with a random nucleotide does
// not affect alignment results). rng may be nil if the input has no Ns, in
// which case an N is an error.
func FromString(s string, rng *rand.Rand) (Seq, error) {
	out := make(Seq, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if b, ok := BaseFromChar(c); ok {
			out = append(out, b)
			continue
		}
		if c == 'N' || c == 'n' {
			if rng == nil {
				return nil, fmt.Errorf("seq: ambiguous base N at position %d and no RNG to resolve it", i)
			}
			out = append(out, Base(rng.Intn(NumBases)))
			continue
		}
		return nil, fmt.Errorf("seq: invalid character %q at position %d", c, i)
	}
	return out, nil
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

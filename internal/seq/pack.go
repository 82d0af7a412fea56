package seq

import "fmt"

// Packed is a 2-bit packed DNA sequence: 4 bases per byte, base i occupying
// bits [2*(i%4), 2*(i%4)+2) of byte i/4. This is the wire format the host
// uses when transferring sequences to DPU MRAM (paper §4.1.1): it divides
// the host→PiM transfer volume by 4 relative to ASCII and lets the DPU
// extract nucleotides with cheap shift instructions.
type Packed struct {
	// Bytes holds the packed payload. len(Bytes) == ceil(N/4).
	Bytes []byte
	// N is the number of bases.
	N int
}

// PackedSize returns the number of bytes needed to pack n bases.
func PackedSize(n int) int { return (n + 3) / 4 }

// Pack converts an unpacked sequence into its 2-bit representation.
func Pack(s Seq) Packed {
	p := Packed{Bytes: make([]byte, PackedSize(len(s))), N: len(s)}
	for i, b := range s {
		p.Bytes[i>>2] |= byte(b&3) << uint((i&3)*2)
	}
	return p
}

// PackInto packs s into dst, which must have at least PackedSize(len(s))
// bytes; it returns the number of bytes written. Unlike Pack it performs no
// allocation, matching the host's on-the-fly encode-while-batching loop.
func PackInto(dst []byte, s Seq) int {
	n := PackedSize(len(s))
	for i := range dst[:n] {
		dst[i] = 0
	}
	for i, b := range s {
		dst[i>>2] |= byte(b&3) << uint((i&3)*2)
	}
	return n
}

// Base returns base i of the packed sequence.
func (p Packed) Base(i int) Base {
	return Base(p.Bytes[i>>2]>>uint((i&3)*2)) & 3
}

// Unpack expands the packed sequence back to one base per element.
func (p Packed) Unpack() Seq {
	s := make(Seq, p.N)
	for i := range s {
		s[i] = p.Base(i)
	}
	return s
}

// Validate checks the internal consistency of the packed buffer.
func (p Packed) Validate() error {
	if p.N < 0 {
		return fmt.Errorf("seq: packed length %d is negative", p.N)
	}
	if want := PackedSize(p.N); len(p.Bytes) < want {
		return fmt.Errorf("seq: packed buffer has %d bytes, need %d for %d bases", len(p.Bytes), want, p.N)
	}
	return nil
}

// Word64 returns 32 consecutive bases starting at base index i (which must
// be a multiple of 32) as a single uint64, little-endian base order. The DPU
// kernel uses 64-bit WRAM loads plus shifts to stream nucleotides, and the
// cmpb4-style comparison operates on such words.
func (p Packed) Word64(i int) uint64 {
	byteOff := i >> 2
	var w uint64
	for k := 0; k < 8 && byteOff+k < len(p.Bytes); k++ {
		w |= uint64(p.Bytes[byteOff+k]) << uint(8*k)
	}
	return w
}

// WordPad is the zero tail (bytes) PackPadded appends past the payload so
// that WordAt can always issue two unconditional 64-bit loads. Buffers not
// produced by PackPadded/PackReversed still work — WordAt falls back to a
// byte loop near the end of an unpadded buffer.
const WordPad = 8

// PackPadded packs s into buf (grown as needed) with a WordPad zero tail
// and returns the grown buffer plus the Packed view. Like PackInto it
// performs no allocation once buf has reached capacity, which is what lets
// the aligners' scratch arenas re-pack operands for free on every call.
func PackPadded(buf []byte, s Seq) ([]byte, Packed) {
	return packPadded(buf, s, false)
}

// PackReversed is PackPadded with the bases stored in reverse order:
// base i of the view is s[len(s)-1-i]. Along an anti-diagonal the indices
// into the query ascend while the indices into the target descend, so
// packing the target reversed makes both comparator operands advance with
// the same +1 stride — the precondition for the word-parallel MatchMask.
func PackReversed(buf []byte, s Seq) ([]byte, Packed) {
	return packPadded(buf, s, true)
}

func packPadded(buf []byte, s Seq, reverse bool) ([]byte, Packed) {
	need := PackedSize(len(s)) + WordPad
	if cap(buf) < need {
		buf = make([]byte, need)
	} else {
		buf = buf[:need]
		clear(buf)
	}
	if reverse {
		n := len(s)
		for i, b := range s {
			r := n - 1 - i
			buf[r>>2] |= byte(b&3) << uint((r&3)*2)
		}
	} else {
		for i, b := range s {
			buf[i>>2] |= byte(b&3) << uint((i&3)*2)
		}
	}
	return buf, Packed{Bytes: buf, N: len(s)}
}

// WordAt returns 32 consecutive bases starting at any base index i ≥ 0 as a
// uint64 in little-endian base order, zero-filled (base A) past the end of
// the buffer. Unlike Word64 the start needs no alignment: on PackPadded
// buffers it compiles to two 64-bit loads and a funnel shift, the Go
// analogue of the DPU kernel's unaligned WRAM nucleotide streaming.
func (p Packed) WordAt(i int) uint64 {
	byteOff := i >> 2
	shift := uint(i&3) * 2
	if b := p.Bytes; byteOff+9 <= len(b) {
		_ = b[byteOff+8]
		lo := uint64(b[byteOff]) | uint64(b[byteOff+1])<<8 | uint64(b[byteOff+2])<<16 |
			uint64(b[byteOff+3])<<24 | uint64(b[byteOff+4])<<32 | uint64(b[byteOff+5])<<40 |
			uint64(b[byteOff+6])<<48 | uint64(b[byteOff+7])<<56
		return lo>>shift | uint64(b[byteOff+8])<<(64-shift)
	}
	// Unpadded tail: assemble base by base.
	var w uint64
	for k := 0; k < 32 && i+k < p.N; k++ {
		w |= uint64(p.Base(i+k)) << uint(2*k)
	}
	return w
}

// matchEven selects the low bit of every 2-bit group.
const matchEven = 0x5555555555555555

// MatchMask compares 32 bases of a starting at ai against 32 bases of b
// starting at bi in one word operation — the Go analogue of the paper's
// cmpb4 4-base comparator (§4.2.4), widened to 32 bases per uint64: XOR the
// packed words, OR each 2-bit group onto its low bit, invert and mask. In
// the result, bit 2k is set iff a[ai+k] == b[bi+k]; odd bits are zero.
// Positions past either sequence's end read as base A and may therefore
// report spurious matches — callers consume only in-range lanes.
func MatchMask(a, b Packed, ai, bi int) uint64 {
	x := a.WordAt(ai) ^ b.WordAt(bi)
	return ^(x | x>>1) & matchEven
}

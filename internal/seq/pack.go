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
func (p Packed) Unpack() Seq { return p.UnpackInto(nil) }

// UnpackInto is Unpack into dst's storage, which it grows only when too
// small; the result aliases dst.
func (p Packed) UnpackInto(dst Seq) Seq {
	if cap(dst) < p.N {
		dst = make(Seq, p.N)
	}
	s := dst[:p.N]
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

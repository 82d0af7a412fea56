package seq

// Digest is a 128-bit content digest of a DNA sequence, computed over the
// 2-bit packed representation (the layout PackedSize describes). Two
// sequences with equal content — regardless of how they were built — have
// equal digests, which is what makes the result cache
// content-addressed: the digest pair stands in for the packed operands in
// the cache key. The hash is a non-cryptographic splitmix64-style mix
// (murmur-grade dispersion); at 128 bits, accidental collisions are
// negligible for dedup purposes, but it is NOT safe against adversarial
// collision construction.
//
// The function is part of the persistent cache's on-disk contract:
// changing it invalidates every WAL ever written. TestDigestGolden pins
// the exact values.
type Digest struct {
	Hi, Lo uint64
}

// Digest mixing constants (splitmix64 / murmur3 finalizer family).
const (
	digestSeedHi = 0x9e3779b97f4a7c15
	digestSeedLo = 0xc2b2ae3d27d4eb4f
	digestMulA   = 0xbf58476d1ce4e5b9
	digestMulB   = 0x94d049bb133111eb
)

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= digestMulA
	x ^= x >> 27
	x *= digestMulB
	x ^= x >> 31
	return x
}

// DigestSeq hashes a sequence's content. It allocates nothing: the packed
// words are assembled inline, 32 bases at a time in the 2-bit packed
// layout, so no packing buffer is needed.
func DigestSeq(s Seq) Digest {
	h1 := uint64(digestSeedHi) ^ uint64(len(s))
	h2 := uint64(digestSeedLo) + uint64(len(s))*digestMulB
	for i := 0; i < len(s); i += 32 {
		n := len(s) - i
		if n > 32 {
			n = 32
		}
		var w uint64
		for k := 0; k < n; k++ {
			w |= uint64(s[i+k]&3) << uint(2*k)
		}
		// Two independent lanes so the digest is genuinely 128 bits wide,
		// not one 64-bit hash written twice.
		h1 = mix64(h1^w) + digestSeedLo
		h2 = mix64(h2^(w*digestMulA)) + digestSeedHi
	}
	return Digest{Hi: mix64(h1 ^ h2>>32), Lo: mix64(h2 ^ h1>>29)}
}

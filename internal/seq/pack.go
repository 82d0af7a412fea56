package seq

// PackedSize returns the number of bytes n bases occupy in the 2-bit
// packed format the host transfers to DPU MRAM (paper §4.1.1): 4 bases per
// byte, base i in bits [2*(i%4), 2*(i%4)+2) of byte i/4. It divides the
// host→PiM transfer volume by 4 relative to ASCII; the model charges the
// bus and the bank this size, and DigestSeq hashes the same layout.
func PackedSize(n int) int { return (n + 3) / 4 }

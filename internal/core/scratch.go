package core

import (
	"sync"

	"pimnw/internal/seq"
)

// Scratch is the reusable working-memory arena of the hot-path engines: the
// four w-sized anti-diagonal lanes of §4.2.1 (held as rotating buffers,
// full-width and 16-bit packed), the window-offset vector, the traceback
// arena, the one-base-per-lane operand buffers, and the row-major lanes of
// the static and full aligners. Every buffer grows
// monotonically and is reused across calls, so a worker that threads one
// Scratch through repeated alignments performs zero engine allocations in
// steady state (a property the tests assert with testing.AllocsPerRun).
//
// A Scratch is not safe for concurrent use; give each worker its own, via
// NewScratch or the package's GetScratch/PutScratch pool.
type Scratch struct {
	// Adaptive-band state: the window offset of every anti-diagonal and
	// the full-width engine's seven w-sized lanes (H over three
	// anti-diagonals, I and D over two), cell p at index p.
	off                        []int32
	h0, h1, h2, i0, i1, d0, d1 []int32

	// Narrow-lane (16-bit) engine state: the same seven lanes, packed four
	// cells per uint64 word behind a dead word and ahead of two zero pad
	// words, so every word a span touches has in-bounds funnel-shifted
	// neighbour loads, held back to back in one ring that the step rotates
	// by index (narrowStep); and the operands one base per 16-bit lane (a,
	// and b reversed), which the step compares in-lane (laneBases).
	nring  []uint64
	na, nb []uint64

	// Traceback arena, lazily sized on the first traceback call — the
	// score-only paths never touch it. The wide engine lays it out as
	// zeroed NibbleRows (btBuf); the narrow engine as lane-indexed rows
	// it does not zero (banded_narrow.go).
	bt []byte

	// Row-major lanes shared by the static-band and Gotoh engines.
	hrow, icol []int32
}

// NewScratch returns an empty arena; buffers are grown on first use.
func NewScratch() *Scratch { return new(Scratch) }

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes an arena from the package pool. Callers on a hot path
// (the DPU kernel's pool loop, the CPU baseline's workers) hold one across
// a whole batch and return it with PutScratch when done; the convenience
// entry points (AdaptiveBandScore and friends) get and put around a single
// call, which still allocates nothing once the pool is warm.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns an arena to the pool. The arena must no longer be
// used by the caller; results never alias scratch memory, so returning it
// immediately after an Align call is always safe.
func PutScratch(s *Scratch) { scratchPool.Put(s) }

// growI32 resizes buf to n int32s, reusing its backing array when it fits.
// Contents are unspecified — callers initialise what they read.
func growI32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// growU64 is growI32 for uint64 word buffers.
func growU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// growU8 is growI32 for byte buffers.
func growU8(buf []uint8, n int) []uint8 {
	if cap(buf) < n {
		return make([]uint8, n)
	}
	return buf[:n]
}

// btBuf returns the n-byte traceback arena, zeroed: the full-width engine
// writes nibble rows sparsely (only in-matrix cells), and a zeroed backing
// keeps the unwritten cells the same whatever ran on s before.
func (s *Scratch) btBuf(n int) []byte {
	if cap(s.bt) < n {
		s.bt = make([]byte, n)
		return s.bt
	}
	s.bt = s.bt[:n]
	clear(s.bt)
	return s.bt
}

// laneBases expands s into buf (grown as needed) one base per 16-bit lane,
// base k at lane k+narrowLane0 — of s reversed when reverse is set, so
// that along an anti-diagonal both operands advance with stride +1. A
// dead word on either side keeps the out-of-span lanes of a partial edge
// word in bounds.
func laneBases(buf []uint64, s seq.Seq, reverse bool) []uint64 {
	buf = growU64(buf, len(s)/4+4)
	clear(buf)
	for i, b := range s {
		if reverse {
			i = len(s) - 1 - i
		}
		k := i + narrowLane0
		buf[k>>2] |= uint64(b&3) << (uint(k&3) * 16)
	}
	return buf
}

//go:build amd64

package core

// narrowRunAVX2 is narrowRunGo in AVX2 assembly (narrow_step_amd64.s),
// with and without traceback: the window decisions in scalar registers,
// the span sixteen lanes per iteration. VPCMPEQW of the two base streams
// masked with Match−Mismatch is the substitution word, VPSUBUSW the
// per-lane saturating subtract and VPMAXSW the lane max (sound because
// live lanes keep bit 15 clear); the sticky flag is the OR of the raw
// diagonal sums (a carry) and the minimum H output (below the guard
// floor).
//
//go:noescape
func narrowRunAVX2(st *narrowStep) bool

// cpuid and xgetbv execute the instructions of the same names
// (narrow_step_amd64.s); xgetbv reads XCR0.
func cpuid(leaf, sub uint32) (a, b, c, d uint32)
func xgetbv() uint32

// haveAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE, and XCR0's SSE and AVX
// state bits), which narrowRunAVX2 needs.
func haveAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx || xgetbv()&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0
}

// run computes anti-diagonals st.t+1 … st.tEnd in one narrowRunAVX2 call,
// or with narrowRunGo where the CPU lacks AVX2. Bounds are asserted here,
// once per run: the routine touches words 0 … winEnd+3 of each lane array,
// base lanes up to m+22 of a and n+22 of b (laneBases sizes them for
// that), off[t … tEnd], edge[t mod certBlock …] and traceback rows t+1 …
// tEnd, and it trusts every state it derives from off[t] ≥ 0 and a run
// that ends by the next rebase.
func (st *narrowStep) run() bool {
	if !narrowAVX2 {
		return narrowRunGo(st)
	}
	if st.w < 2 || st.winEnd != (narrowLane0+st.w+3)/4 || st.words < st.winEnd+4 ||
		len(st.ring) < 7*st.words || len(st.a) < st.m/4+7 || len(st.b) < st.n/4+7 ||
		min(st.hPrev, st.hCur, st.hNext, st.iCur, st.iNext, st.dCur, st.dNext) < 0 ||
		max(st.hPrev, st.hCur, st.hNext, st.iCur, st.iNext, st.dCur, st.dNext) > 6*st.words ||
		st.t < 0 || st.t > st.tEnd || st.tEnd >= len(st.off) || st.off[st.t] < 0 ||
		len(st.edge) < certBlock || st.tEnd > st.t/narrowRebaseEvery*narrowRebaseEvery+narrowRebaseEvery ||
		st.bt != nil && (st.rowBytes != 2*(st.words-1) || len(st.bt) < (st.tEnd+1)*st.rowBytes) {
		panic("core: narrow run outside its arrays")
	}
	return narrowRunAVX2(st)
}

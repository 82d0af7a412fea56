//go:build amd64

package core

// narrowRunSSE is narrowRunGo in SSE2 assembly (narrow_step_amd64.s), with
// and without traceback: the window decisions in scalar registers, the
// span eight lanes per iteration. PCMPEQW of the two base streams masked
// with Match−Mismatch is the substitution word, PSUBUSW the per-lane
// saturating subtract and PMAXSW the lane max (sound because live lanes
// keep bit 15 clear); the sticky flag is the OR of the raw diagonal sums
// (a carry) and the minimum H output (below the guard floor).
//
//go:noescape
func narrowRunSSE(st *narrowStep) bool

// run computes anti-diagonals st.t+1 … st.tEnd in one narrowRunSSE call.
// Bounds are asserted here, once per run: the routine touches words 0 …
// winEnd+1 of each lane array, base lanes up to m+14 of a and n+14 of b
// (laneBases sizes them for that), off[t … tEnd], edge[t mod certBlock …]
// and traceback rows t+1 … tEnd, and it trusts every state it derives
// from off[t] ≥ 0 and a run that ends by the next rebase.
func (st *narrowStep) run() bool {
	if st.w < 2 || st.winEnd != (narrowLane0+st.w+3)/4 || st.words < st.winEnd+2 ||
		len(st.ring) < 7*st.words || len(st.a) < st.m/4+5 || len(st.b) < st.n/4+5 ||
		min(st.hPrev, st.hCur, st.hNext, st.iCur, st.iNext, st.dCur, st.dNext) < 0 ||
		max(st.hPrev, st.hCur, st.hNext, st.iCur, st.iNext, st.dCur, st.dNext) > 6*st.words ||
		st.t < 0 || st.t > st.tEnd || st.tEnd >= len(st.off) || st.off[st.t] < 0 ||
		len(st.edge) < certBlock || st.tEnd > st.t/narrowRebaseEvery*narrowRebaseEvery+narrowRebaseEvery ||
		st.bt != nil && (st.rowBytes != 2*(st.words-1) || len(st.bt) < (st.tEnd+1)*st.rowBytes) {
		panic("core: narrow run outside its arrays")
	}
	return narrowRunSSE(st)
}

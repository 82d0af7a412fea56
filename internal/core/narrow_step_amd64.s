// AVX2 window loop of the 16-bit narrow-lane adaptive-band engine.
// See banded_narrow.go for the value encoding and narrow_step.go for
// narrowRunGo, the portable window loop this must match state for state:
// the same shift decisions, offsets, abandoned edge lanes, cell counts,
// lane ring, traceback rows and sticky verdict.
//
// One call runs anti-diagonals t+1 … tEnd of one pair. Per anti-diagonal,
// in scalar registers: read the two edge lanes, run chooseShift with its
// two clamps branch-free, write off[t+1] and edge[t mod 512], count the cells,
// derive the span and its lane keep-masks, clear the dead flanks with
// whole-word stores; then the span, sixteen lanes (four words) per
// iteration; then the sticky test, the two matrix-boundary cells from
// GapCost(t+1) with their traceback bits, and the ring rotates. An
// interior anti-diagonal — the whole window inside the matrix — skips the
// span arithmetic, the flanks and the boundary cells: its span and masks
// are the run's constants, kept in the frame. The state lives in the
// narrowStep at AX, the constants and the sticky accumulators in Y9–Y15
// for the whole run. Every vector instruction is VEX-encoded, and
// VZEROUPPER runs before each RET.
//
// The span's cell update: VPCMPEQW of the two one-base-per-lane streams,
// masked with Match−Mismatch, is the substitution word (the in-lane
// cmpb4), VPSUBUSW the per-lane saturating-at-zero subtract, VPMAXSW the
// lane max (sound because live lanes keep bit 15 clear), VPADDW the
// substitution add. The gap-open candidates H − (GapOpen+GapExt) need no
// saturation: each meets VPMAXSW against an extend candidate I ⊖ GapExt or
// D ⊖ GapExt that is never negative, so an open candidate that wraps below
// zero loses exactly where the saturated one would have tied at zero or
// lost, and VPSUBW issues on more ports than VPSUBUSW. The sticky flag
// accumulates cheaply: the raw diagonal sums are OR-ed into Y13 (a bit-15
// carry) and the H outputs min-reduced into Y12 (below the guard floor in
// Y14), and both are tested once per anti-diagonal; the first that sets
// ends the call. On a sticky the in-flight lane values may diverge from
// the reference — the caller discards the pair — so no clamp
// reconstruction is done here.
//
// Iterations start at odd words b0, b0+4, …: the traceback planes hold one
// byte per word, the I bits of lanes 4b…4b+7 in byte b and their D bits
// in byte b+1 (setBT). VPACKSSWB packs within each 128-bit half, so
// VPMOVMSKB of the packed I and D compares returns [I lanes 0–7 | D lanes
// 0–7 | I lanes 8–15 | D lanes 8–15], and one 32-bit store at byte b writes
// exactly the bytes of pairs b and b+2. A span with an odd number of word
// pairs ends in a half iteration: the same sixteen-lane step under a mask
// whose upper half is zero, which stores eight lanes (VEX-128) and a 16-bit
// traceback word. The first and last iterations run under lane keep-masks
// (the frame's M0 and M1, 0xffff per kept lane) unless both keep every
// lane: their outputs and traceback bits are zeroed outside the masks and
// their sticky contributions dropped. The last iteration runs first, so
// the bottom edge lane that steers the next anti-diagonal is ready early.
// CX is the one induction variable: it counts words up to zero, streams
// are addressed (base)(CX*8) and the traceback planes (base)(CX*1), every
// base pointing at the last iteration's first word; the left H stream is
// the up H stream two bytes on. Loads reach four words past the span's
// last word, which the pad words of the ring and of the base streams keep
// in bounds (narrowStep.run).
//
// A run never crosses a rebase, a multiple of 512 anti-diagonals
// (certBlock), so edge is indexed by t mod 512.
//
// Frame: 0 M0, 32 M1, 64 d, 72 the new offset o, 80 the words from the
// first iteration to the last, 88 the last iteration's first word gL,
// 96 zero when M0 and M1 keep every lane, 112 whether the span slots hold
// the whole window, 120 zero when the last iteration is a half.

#include "go_asm.h"
#include "textflag.h"

// lanes<> is the lane index of each of an iteration's sixteen lanes.
DATA lanes<>+0(SB)/8, $0x0003000200010000
DATA lanes<>+8(SB)/8, $0x0007000600050004
DATA lanes<>+16(SB)/8, $0x000b000a00090008
DATA lanes<>+24(SB)/8, $0x000f000e000d000c
GLOBL lanes<>(SB), RODATA|NOPTR, $32

// LANEMASK stores at off(SP) the keep-mask of the iteration at word g:
// lane k keeps iff lo (R11) ≤ 4g+k ≤ hi (R12). Y0 holds it after.
#define LANEMASK(g, off) \
	MOVQ         g, R8;               \
	SHLQ         $2, R8;              \
	MOVQ         R11, R9;             \
	SUBQ         R8, R9;              \
	VMOVQ        R9, X0;              \
	VPBROADCASTW X0, Y0;              \
	LEAQ         1(R12), R9;          \
	SUBQ         R8, R9;              \
	VMOVQ        R9, X1;              \
	VPBROADCASTW X1, Y1;              \
	VPCMPGTW     lanes<>(SB), Y0, Y0; \
	VPCMPGTW     lanes<>(SB), Y1, Y1; \
	VPANDN       Y1, Y0, Y0;          \
	VMOVDQU      Y0, off(SP)

// One 16-lane step: Y0 = I and Y3 = D outputs, Y5 the raw diagonal sum.
#define CELLS \
	VMOVDQU  (R12)(CX*8), Y0;     \
	VPSUBUSW Y9, Y0, Y0;          \
	VMOVDQU  (R11)(CX*8), Y1;     \
	VPSUBW   Y10, Y1, Y1;         \
	VPMAXSW  Y1, Y0, Y0;          \
	VMOVDQU  (R14)(CX*8), Y3;     \
	VPSUBUSW Y9, Y3, Y3;          \
	VMOVDQU  2(R11)(CX*8), Y4;    \
	VPSUBW   Y10, Y4, Y4;         \
	VPMAXSW  Y4, Y3, Y3;          \
	VMOVDQU  (DI)(CX*8), Y8;      \
	VPCMPEQW (R15)(CX*8), Y8, Y8; \
	VPAND    Y15, Y8, Y8;         \
	VPADDW   (DX)(CX*8), Y8, Y5

#define CELLS_PLAIN \
	CELLS;                    \
	VPOR     Y5, Y13, Y13;    \
	VPSUBUSW Y11, Y5, Y5;     \
	VPMAXSW  Y0, Y5, Y5;      \
	VPMAXSW  Y3, Y5, Y5;      \
	VPMINSW  Y5, Y12, Y12;    \
	VMOVDQU  Y5, (R8)(CX*8);  \
	VMOVDQU  Y0, (R9)(CX*8);  \
	VMOVDQU  Y3, (R10)(CX*8)

// HOLD_MIN folds the H outputs in h into the running minimum under the
// mask in Y2: masked-out lanes enter it as 0x7fff, kept ones as max(H, 0),
// which differs from H only on a lane whose sum carried, already sticky.
#define HOLD_MIN(h) \
	VPCMPEQW Y7, Y7, Y7; \
	VPXOR    Y2, Y7, Y7; \
	VPSRLW   $1, Y7, Y7; \
	VPMAXSW  h, Y7, Y7;  \
	VPMINSW  Y7, Y12, Y12

// The masked step under the mask at off(SP). h, i and d are Y5, Y0 and
// Y3, or their low halves X5, X0 and X3 for a half iteration.
#define CELLS_MASKED(off, h, i, d) \
	CELLS;                     \
	VMOVDQU  off(SP), Y2;      \
	VPAND    Y5, Y2, Y6;       \
	VPOR     Y6, Y13, Y13;     \
	VPSUBUSW Y11, Y5, Y5;      \
	VPMAXSW  Y0, Y5, Y5;       \
	VPMAXSW  Y3, Y5, Y5;       \
	HOLD_MIN(Y5);              \
	VPAND    Y2, Y5, Y5;       \
	VMOVDQU  h, (R8)(CX*8);    \
	VPAND    Y2, Y0, Y0;       \
	VMOVDQU  i, (R9)(CX*8);    \
	VPAND    Y2, Y3, Y3;       \
	VMOVDQU  d, (R10)(CX*8)

// The traceback step. TB_IN computes iv (Y1), dv (Y4) and the raw
// diagonal sum (Y5), and packs the two extend masks (−1 where the extend
// candidate equals the max: it wins or ties) into the bytes of Y0, one
// per lane, so that VPMOVMSKB yields the I-extend and D-extend bytes of
// the iteration's two word pairs — the layout of setBT's first plane.
#define TB_IN \
	VMOVDQU   (R12)(CX*8), Y0;     \
	VPSUBUSW  Y9, Y0, Y0;          \
	VMOVDQU   (R11)(CX*8), Y1;     \
	VPSUBW    Y10, Y1, Y1;         \
	VPMAXSW   Y0, Y1, Y1;          \
	VPCMPEQW  Y1, Y0, Y0;          \
	VMOVDQU   (R14)(CX*8), Y3;     \
	VPSUBUSW  Y9, Y3, Y3;          \
	VMOVDQU   2(R11)(CX*8), Y4;    \
	VPSUBW    Y10, Y4, Y4;         \
	VPMAXSW   Y3, Y4, Y4;          \
	VPCMPEQW  Y4, Y3, Y3;          \
	VPACKSSWB Y3, Y0, Y0;          \
	VMOVDQU   (DI)(CX*8), Y8;      \
	VPCMPEQW  (R15)(CX*8), Y8, Y8; \
	VPAND     Y15, Y8, Y8;         \
	VPADDW    (DX)(CX*8), Y8, Y5

// TB_MAX, after I and D are stored: diag = sum ⊖ nm, then best =
// max(diag, iv, dv) in Y4; Y5 = −1 where diag = max(diag, iv) and Y1 = −1
// where max(diag, iv) = best — the complements of the strict origin
// compares iv > diag and dv > max(diag, iv), so ties keep the earlier
// origin — packed into Y5 like the extend masks: the second plane's not
// from I and not from D bytes.
#define TB_MAX \
	VPSUBUSW  Y11, Y5, Y5; \
	VPMAXSW   Y5, Y1, Y1;  \
	VPCMPEQW  Y1, Y5, Y5;  \
	VPMAXSW   Y1, Y4, Y4;  \
	VPCMPEQW  Y4, Y1, Y1;  \
	VPACKSSWB Y1, Y5, Y5

#define TB_PLAIN \
	TB_IN;                     \
	VPOR      Y5, Y13, Y13;    \
	VMOVDQU   Y1, (R9)(CX*8);  \
	VMOVDQU   Y4, (R10)(CX*8); \
	TB_MAX;                    \
	VPMINSW   Y4, Y12, Y12;    \
	VMOVDQU   Y4, (R8)(CX*8);  \
	VPMOVMSKB Y0, R13;         \
	MOVL      R13, (BX)(CX*1); \
	VPMOVMSKB Y5, R13;         \
	MOVL      R13, (SI)(CX*1)

// The masked traceback step: masked-out sums cleared before the OR, and
// the outputs and bits zeroed outside the mask, packed like the bits. i
// and hd are Y1 and Y4 and mov is MOVL, or X1, X4 and MOVW for a half
// iteration.
#define TB_MASKED(off, i, hd, mov) \
	TB_IN;                      \
	VMOVDQU   off(SP), Y2;      \
	VPAND     Y2, Y1, Y1;       \
	VMOVDQU   i, (R9)(CX*8);    \
	VPAND     Y2, Y4, Y4;       \
	VMOVDQU   hd, (R10)(CX*8);  \
	VPAND     Y5, Y2, Y6;       \
	VPOR      Y6, Y13, Y13;     \
	TB_MAX;                     \
	VPACKSSWB Y2, Y2, Y6;       \
	VPAND     Y6, Y0, Y0;       \
	VPMOVMSKB Y0, R13;          \
	mov       R13, (BX)(CX*1);  \
	VPAND     Y6, Y5, Y5;       \
	VPMOVMSKB Y5, R13;          \
	mov       R13, (SI)(CX*1);  \
	HOLD_MIN(Y4);               \
	VPAND     Y2, Y4, Y4;       \
	VMOVDQU   hd, (R8)(CX*8)

// func narrowRunAVX2(st *narrowStep) bool
TEXT ·narrowRunAVX2(SB), NOSPLIT, $128-9
	MOVQ st+0(FP), AX

	VPBROADCASTQ narrowStep_eV(AX), Y9
	VPBROADCASTQ narrowStep_oeV(AX), Y10
	VPBROADCASTQ narrowStep_nmV(AX), Y11
	VPBROADCASTQ narrowStep_smV(AX), Y15
	VPBROADCASTQ narrowStep_gbV(AX), Y14
	VPCMPEQW     Y12, Y12, Y12 // running min of the H outputs, from 0x7fff
	VPSRLW       $1, Y12, Y12
	VPXOR        Y13, Y13, Y13 // OR of the raw diagonal sums
	MOVQ         $0, 112(SP)   // the span slots do not hold the whole window

diag:
	MOVQ    narrowStep_t(AX), CX
	CMPQ    CX, narrowStep_tEnd(AX)
	JGE     clean
	MOVQ    narrowStep_ring(AX), BX
	MOVQ    narrowStep_hCur(AX), R8
	LEAQ    (BX)(R8*8), R8            // hCur
	MOVQ    narrowStep_w(AX), R10
	MOVWQZX 8(R8), R9                 // top: lane narrowLane0
	MOVWQZX 6(R8)(R10*2), R11         // bottom: lane narrowLane0+w−1
	MOVQ    narrowStep_off(AX), SI
	MOVLQSX (SI)(CX*4), DX            // o = off[t]

	// chooseShift, branch-free: an edge outside the matrix counts as dead
	// (0), which orders like NegInf against live lanes.
	XORL    R13, R13
	MOVQ    R9, R12
	CMPQ    DX, narrowStep_m(AX)      // top row o ∈ [0, m]
	CMOVQHI R13, R12
	MOVQ    CX, R14
	SUBQ    DX, R14
	CMPQ    R14, narrowStep_n(AX)     // top column t−o ∈ [0, n]
	CMOVQHI R13, R12
	MOVQ    R11, R15
	LEAQ    -1(DX)(R10*1), R14        // bottom row o+w−1
	CMPQ    R14, narrowStep_m(AX)
	CMOVQHI R13, R15
	MOVQ    CX, DI
	SUBQ    R14, DI
	CMPQ    DI, narrowStep_n(AX)      // bottom column
	CMOVQHI R13, R15
	MOVQ    R10, DI                   // tie: down iff 2(o + w/2) − t < m − n
	SHRQ    $1, DI
	ADDQ    DX, DI
	SHLQ    $1, DI
	SUBQ    CX, DI
	MOVQ    narrowStep_m(AX), R14
	SUBQ    narrowStep_n(AX), R14
	XORL    BX, BX                    // d
	MOVL    $1, SI
	CMPQ    DI, R14
	CMOVQLT SI, BX
	CMPQ    R15, R12
	CMOVQHI SI, BX                    // bottom > top: down
	CMOVQCS R13, BX                   // top > bottom: right

	// Keep the window on the valid rows [loI, hiI] of anti-diagonal t+1.
	LEAQ    1(CX), R14
	SUBQ    narrowStep_n(AX), R14
	CMPQ    R14, R13
	CMOVQLT R13, R14                  // loI = max(t+1−n, 0)
	LEAQ    -1(DX)(R10*1), DI
	ADDQ    BX, DI
	CMPQ    DI, R14
	CMOVQLT SI, BX                    // o+d+w−1 < loI: down
	LEAQ    1(CX), R14
	MOVQ    narrowStep_m(AX), DI
	CMPQ    R14, DI
	CMOVQGT DI, R14                   // hiI = min(t+1, m)
	LEAQ    (DX)(BX*1), DI
	CMPQ    DI, R14
	CMOVQGT R13, BX                   // o+d > hiI: right

	MOVQ    narrowStep_edge(AX), SI
	TESTQ   BX, BX
	CMOVQNE R9, R11
	MOVQ    CX, R13
	ANDQ    $511, R13
	MOVL    R11, (SI)(R13*4)          // edge[t mod 512]: top when moving down, else bottom
	ADDQ    BX, DX                    // o = off[t] + d
	MOVQ    narrowStep_off(AX), SI
	MOVL    DX, 4(SI)(CX*4)           // off[t+1]
	MOVQ    BX, 64(SP)
	MOVQ    DX, 72(SP)

	// Interior: the window lies wholly in the matrix — pLo = 0, pHi = w−1,
	// w cells, no flank and no boundary cell — ⇔ max(1, t+1−n) ≤ o ≤
	// min(m, t) − w + 1. Its span and masks are the run's constants, kept
	// in the frame while one interior anti-diagonal follows another.
	LEAQ    1(CX), R12
	SUBQ    narrowStep_n(AX), R12
	MOVL    $1, R13
	CMPQ    R12, R13
	CMOVQLT R13, R12
	MOVQ    narrowStep_m(AX), R14
	CMPQ    CX, R14
	CMOVQLT CX, R14
	SUBQ    R10, R14
	INCQ    R14
	CMPQ    DX, R12
	JLT     edges
	CMPQ    DX, R14
	JGT     edges
	ADDQ    R10, narrowStep_cells(AX) // cells += w
	CMPQ    112(SP), $0
	JNE     streams
	MOVQ    $1, 112(SP)
	MOVL    $4, R13                   // lo
	LEAQ    3(R10), DI                // hi
	JMP     spans

edges:
	// The span [pLo, pHi] and the cells [cLo, cHi] of anti-diagonal t+1.
	MOVQ    $0, 112(SP)
	LEAQ    1(CX), R12
	SUBQ    narrowStep_n(AX), R12
	SUBQ    DX, R12
	XORL    R13, R13
	CMPQ    R12, R13
	CMOVQLT R13, R12                  // cLo = max(0, t+1−n−o)
	MOVL    $1, R13
	SUBQ    DX, R13
	CMPQ    R13, R12
	CMOVQLT R12, R13                  // pLo = max(cLo, 1−o)
	LEAQ    -1(R10), R14
	MOVQ    narrowStep_m(AX), DI
	SUBQ    DX, DI
	CMPQ    DI, R14
	CMOVQLT DI, R14                   // min(w−1, m−o)
	MOVQ    CX, DI
	SUBQ    DX, DI
	LEAQ    1(DI), R15
	CMPQ    R15, R14
	CMOVQGT R14, R15                  // cHi = min(w−1, m−o, t+1−o)
	CMPQ    DI, R14
	CMOVQGT R14, DI                   // pHi = min(w−1, m−o, t−o)
	SUBQ    R12, R15
	INCQ    R15
	JLE     lohi
	ADDQ    R15, narrowStep_cells(AX) // cells += cHi−cLo+1

lohi:
	ADDQ $4, R13 // lo = pLo + narrowLane0
	ADDQ $4, DI  // hi

spans:
	CMPQ R13, DI
	JGT  empty
	MOVQ R13, R11 // lo
	MOVQ DI, R12  // hi
	SHRQ $2, R13  // gLo
	SHRQ $2, DI   // gHi

	// b0, the odd word at or before gLo, begins the first iteration (a
	// word before gLo is all masked out), and gL the last: gL − b0 is
	// gHi − b0 rounded down to a multiple of four, and the last
	// iteration is a half when the span's word pairs are odd in number.
	// M0 and M1 are their lane keep-masks, each stored whole so its load
	// forwards from one store.
	LEAQ      -1(R13), R14
	ORQ       $1, R14      // b0
	MOVQ      DI, R15
	SUBQ      R14, R15
	MOVQ      R15, R8
	ANDQ      $2, R8
	MOVQ      R8, 120(SP)  // 0: the last iteration is a half
	ANDQ      $-4, R15
	MOVQ      R15, 80(SP)  // gL − b0
	MOVQ      R14, 88(SP)  // b0
	ADDQ      R14, R15     // gL
	LANEMASK(R14, 0)
	LANEMASK(R15, 32)
	VPAND     0(SP), Y0, Y0
	VPMOVMSKB Y0, R8
	NOTL      R8
	MOVQ      R8, 96(SP)   // 0: both masks keep every lane
	JMP       flanks

empty:
	MOVQ narrowStep_winEnd(AX), R13 // gLo = winEnd: every window word is a flank
	LEAQ -1(R13), DI

flanks:
	MOVQ narrowStep_ring(AX), BX
	MOVQ narrowStep_hNext(AX), R8
	LEAQ (BX)(R8*8), R8   // hNext
	MOVQ narrowStep_iNext(AX), R9
	LEAQ (BX)(R9*8), R9   // iNext
	MOVQ narrowStep_dNext(AX), R10
	LEAQ (BX)(R10*8), R10 // dNext
	// Zero window words [1, gLo) and (gHi, winEnd).
	XORL R11, R11
	MOVL $1, R12
	JMP  fl1

fl1loop:
	MOVQ R11, (R8)(R12*8)
	MOVQ R11, (R9)(R12*8)
	MOVQ R11, (R10)(R12*8)
	INCQ R12

fl1:
	CMPQ R12, R13
	JLT  fl1loop
	LEAQ 1(DI), R12
	JMP  fl2

fl2loop:
	MOVQ R11, (R8)(R12*8)
	MOVQ R11, (R9)(R12*8)
	MOVQ R11, (R10)(R12*8)
	INCQ R12

fl2:
	CMPQ R12, narrowStep_winEnd(AX)
	JLT  fl2loop
	CMPQ R13, narrowStep_winEnd(AX)
	JGE  boundary                   // empty span

streams:
	// Stream bases at the first iteration's first word b0.
	MOVQ  narrowStep_ring(AX), BX
	MOVQ  88(SP), DI
	SHLQ  $3, DI                    // 8·b0
	MOVQ  narrowStep_hNext(AX), R8
	LEAQ  (BX)(R8*8), R8
	ADDQ  DI, R8                    // hNext
	MOVQ  narrowStep_iNext(AX), R9
	LEAQ  (BX)(R9*8), R9
	ADDQ  DI, R9                    // iNext
	MOVQ  narrowStep_dNext(AX), R10
	LEAQ  (BX)(R10*8), R10
	ADDQ  DI, R10                   // dNext
	MOVQ  64(SP), CX                // d
	LEAQ  -2(DI)(CX*2), R15         // up neighbours: lane 4b0−1+d
	MOVQ  narrowStep_hCur(AX), R11
	LEAQ  (BX)(R11*8), R11
	ADDQ  R15, R11                  // hUp; hLt is hUp + 2
	MOVQ  narrowStep_iCur(AX), R12
	LEAQ  (BX)(R12*8), R12
	ADDQ  R15, R12                  // iUp
	MOVQ  narrowStep_dCur(AX), R14
	LEAQ  2(BX)(R14*8), R14
	ADDQ  R15, R14                  // dLt
	ADDQ  narrowStep_dPrev(AX), CX  // dd = d + dPrev
	MOVQ  narrowStep_hPrev(AX), DX
	LEAQ  (BX)(DX*8), DX
	LEAQ  -2(DX)(CX*2), DX
	ADDQ  DI, DX                    // hDg: lane 4b0−1+dd
	MOVQ  72(SP), CX                // o
	MOVQ  narrowStep_a(AX), SI
	ADDQ  DI, SI
	LEAQ  6(SI)(CX*2), SI           // a: base lane 4b0+o+3
	MOVQ  narrowStep_n(AX), BX
	SUBQ  narrowStep_t(AX), BX
	ADDQ  CX, BX
	MOVQ  narrowStep_b(AX), R15
	ADDQ  DI, R15
	LEAQ  6(R15)(BX*2), R15         // b: base lane 4b0+n−t+3+o
	MOVQ  SI, DI
	MOVQ  narrowStep_bt(AX), BX
	TESTQ BX, BX
	JNE   tb

	MOVQ 80(SP), CX
	CMPQ 120(SP), $0
	JEQ  half
	CMPQ 96(SP), $0
	JEQ  plain
	CELLS_MASKED(32, Y5, Y0, Y3) // the last iteration first
	JMP  first

half:
	CELLS_MASKED(32, X5, X0, X3)

first:
	TESTQ CX, CX
	JZ    kdone                  // one iteration
	XORL  CX, CX
	CELLS_MASKED(0, Y5, Y0, Y3)  // then the first
	JMP   middle

plain:
	CELLS_PLAIN                  // the last iteration first
	TESTQ CX, CX
	JZ    kdone
	XORL  CX, CX
	CELLS_PLAIN                  // then the first

middle:
	MOVQ 80(SP), CX
	SUBQ $4, CX
	JZ   kdone

loop:
	CELLS_PLAIN                  // then the rest, from the last down
	SUBQ $4, CX
	JNZ  loop
	JMP  kdone

tb:
	MOVQ  narrowStep_t(AX), SI
	INCQ  SI
	IMULQ narrowStep_rowBytes(AX), SI
	ADDQ  SI, BX
	ADDQ  88(SP), BX                   // extend plane of row t+1 at byte b0
	MOVQ  narrowStep_rowBytes(AX), SI
	SHRQ  $1, SI
	ADDQ  BX, SI                       // origin plane
	MOVQ  80(SP), CX
	CMPQ  120(SP), $0
	JEQ   tbhalf
	CMPQ  96(SP), $0
	JEQ   tbplain
	TB_MASKED(32, Y1, Y4, MOVL)        // the last iteration first
	JMP   tbfirst

tbhalf:
	TB_MASKED(32, X1, X4, MOVW)

tbfirst:
	TESTQ CX, CX
	JZ    kdone
	XORL  CX, CX
	TB_MASKED(0, Y1, Y4, MOVL)
	JMP   tbmiddle

tbplain:
	TB_PLAIN                           // the last iteration first
	TESTQ CX, CX
	JZ    kdone
	XORL  CX, CX
	TB_PLAIN

tbmiddle:
	MOVQ 80(SP), CX
	SUBQ $4, CX
	JZ   kdone

tbloop:
	TB_PLAIN
	SUBQ $4, CX
	JNZ  tbloop

kdone:
	// Sticky: bit 15 of a raw diagonal sum (a carry), or a minimum H
	// output below the guard floor — bit 15 of each lane of
	// (OR of sums) | (gb > min H), read by VPMOVMSKB off the odd bytes.
	VPCMPGTW  Y12, Y14, Y0
	VPOR      Y13, Y0, Y0
	VPMOVMSKB Y0, R11
	TESTL     $0xaaaaaaaa, R11
	JNE       sticky
	CMPQ      112(SP), $0
	JNE       rotate                   // interior: no boundary cell

boundary:
	// The matrix-boundary cells beside the span store
	// bnd − GapCost(t+1), which must lie in [1, narrowTop]: row 0
	// (o = 0, t+1 ≤ n) in lane narrowLane0 of H and D, from D; column 0
	// (q = t+1−o ∈ [0, w), t+1 ≤ m) in lane q+narrowLane0 of H and I,
	// from I.
	MOVQ  narrowStep_t(AX), CX
	MOVQ  72(SP), DX           // o
	LEAQ  1(CX), R13
	SUBQ  DX, R13              // q
	TESTQ DX, DX
	JEQ   bcells
	CMPQ  R13, narrowStep_w(AX)
	JCC   rotate               // neither: o > 0 and q ≥ w

bcells:
	LEAL    1(CX), R11
	IMULL   narrowStep_p+Params_GapExt(AX), R11
	ADDL    narrowStep_p+Params_GapOpen(AX), R11
	NEGL    R11
	MOVLQSX R11, R11
	ADDQ    narrowStep_bnd(AX), R11  // rel
	LEAQ    -1(R11), R12             // rel−1 < narrowTop unsigned ⇔ it fits
	MOVQ    narrowStep_ring(AX), BX
	MOVQ    narrowStep_bt(AX), SI
	TESTQ   SI, SI
	JEQ     brow
	LEAQ    1(CX), R14
	IMULQ   narrowStep_rowBytes(AX), R14
	ADDQ    R14, SI                  // traceback row t+1

brow:
	XORL  R15, R15
	TESTQ CX, CX
	SETNE R15B                  // min(t, 1): extend past the first row or column
	TESTQ DX, DX
	JNE   bcol
	LEAQ  1(CX), R14
	CMPQ  R14, narrowStep_n(AX)
	JGT   bcol
	CMPQ  R12, $0x7fff
	JCC   sticky
	MOVQ  narrowStep_hNext(AX), R14
	MOVW  R11, 8(BX)(R14*8)
	MOVQ  narrowStep_dNext(AX), R14
	MOVW  R11, 8(BX)(R14*8)
	TESTQ SI, SI
	JEQ   bcol
	// Lane narrowLane0 is bit 0 of the pair at word 1.
	MOVQ    narrowStep_rowBytes(AX), R14
	SHRQ    $1, R14             // the origin plane
	ANDB    $0xfe, 1(SI)        // no I-extend
	MOVBLZX 2(SI), DI
	ANDL    $0xfe, DI
	ORL     R15, DI
	MOVB    DI, 2(SI)           // D-extend past the first row
	ORB     $1, 1(SI)(R14*1)    // not from I
	ANDB    $0xfe, 2(SI)(R14*1) // from D

bcol:
	LEAQ    1(CX), R14
	CMPQ    R14, narrowStep_m(AX)
	JGT     rotate
	CMPQ    R13, narrowStep_w(AX)
	JCC     rotate
	CMPQ    R12, $0x7fff
	JCC     sticky
	MOVQ    narrowStep_hNext(AX), R14
	LEAQ    (BX)(R14*8), R14
	MOVW    R11, 8(R14)(R13*2)
	MOVQ    narrowStep_iNext(AX), R14
	LEAQ    (BX)(R14*8), R14
	MOVW    R11, 8(R14)(R13*2)
	TESTQ   SI, SI
	JEQ     rotate
	LEAQ    4(R13), CX          // the lane
	MOVQ    CX, R13
	SHRQ    $2, R13
	DECQ    R13
	ORQ     $1, R13             // the pair's first word b
	MOVQ    R13, DI
	SHLQ    $2, DI
	SUBQ    DI, CX              // the lane's bit in the pair's bytes
	MOVL    $1, DI
	SHLL    CX, DI
	SHLL    CX, R15
	MOVL    DI, R8
	NOTL    R8
	MOVBLZX (SI)(R13*1), R12
	ANDL    R8, R12
	ORL     R15, R12
	MOVB    R12, (SI)(R13*1)    // I-extend past the first column
	ANDB    R8, 1(SI)(R13*1)    // no D-extend
	MOVQ    narrowStep_rowBytes(AX), CX
	SHRQ    $1, CX
	ADDQ    CX, SI              // the origin plane
	ANDB    R8, (SI)(R13*1)     // from I
	ORB     DI, 1(SI)(R13*1)    // not from D

rotate:
	MOVQ narrowStep_hPrev(AX), R11
	MOVQ narrowStep_hCur(AX), R12
	MOVQ narrowStep_hNext(AX), R13
	MOVQ R12, narrowStep_hPrev(AX)
	MOVQ R13, narrowStep_hCur(AX)
	MOVQ R11, narrowStep_hNext(AX)
	MOVQ narrowStep_iCur(AX), R11
	MOVQ narrowStep_iNext(AX), R12
	MOVQ R12, narrowStep_iCur(AX)
	MOVQ R11, narrowStep_iNext(AX)
	MOVQ narrowStep_dCur(AX), R11
	MOVQ narrowStep_dNext(AX), R12
	MOVQ R12, narrowStep_dCur(AX)
	MOVQ R11, narrowStep_dNext(AX)
	MOVQ 64(SP), R11
	MOVQ R11, narrowStep_dPrev(AX) // dPrev = d
	INCQ narrowStep_t(AX)          // t++
	JMP  diag

sticky:
	VZEROUPPER
	MOVB $1, ret+8(FP)
	RET

clean:
	VZEROUPPER
	MOVB $0, ret+8(FP)
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() uint32
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET

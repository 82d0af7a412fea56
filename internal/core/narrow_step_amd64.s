// SSE2 window loop of the 16-bit narrow-lane adaptive-band engine.
// See banded_narrow.go for the value encoding and narrow_step.go for
// narrowRunGo, the portable window loop this must match state for state:
// the same shift decisions, offsets, abandoned edge lanes, cell counts,
// lane ring, traceback rows and sticky verdict.
//
// One call runs anti-diagonals t+1 … tEnd of one pair. Per anti-diagonal,
// in scalar registers: read the two edge lanes, run chooseShift with its
// two clamps branch-free, write off[t+1] and edge[t mod 512], count the cells,
// derive the span and its lane keep-masks, clear the dead flanks with
// whole-word stores; then the span, eight lanes (two words) per
// iteration; then the sticky test, the two matrix-boundary cells from
// GapCost(t+1) with their traceback bits, and the ring rotates. An
// interior anti-diagonal — the whole window inside the matrix — skips the
// span arithmetic, the flanks and the boundary cells: its span and masks
// are the run's constants, kept in the frame. The state lives in the
// narrowStep at AX, the constants and the sticky accumulators in X9–X15
// for the whole run.
//
// The span's cell update: PCMPEQW of the two one-base-per-lane streams,
// masked with Match−Mismatch, is the substitution word (the in-lane
// cmpb4), PSUBUSW the per-lane saturating-at-zero subtract, PMAXSW the
// lane max (sound because live lanes keep bit 15 clear), PADDW the
// substitution add. The gap-open candidates H − (GapOpen+GapExt) need no
// saturation: each meets PMAXSW against an extend candidate I ⊖ GapExt or
// D ⊖ GapExt that is never negative, so an open candidate that wraps below
// zero loses exactly where the saturated one would have tied at zero or
// lost, and PSUBW issues on more ports than PSUBUSW. The sticky flag
// accumulates cheaply: the raw diagonal sums are OR-ed into X13 (a bit-15
// carry) and the H outputs min-reduced into X12 (below the guard floor in
// X14), and both are tested once per anti-diagonal; the first that sets
// ends the call. On a sticky the in-flight lane values may diverge from
// the reference — the caller discards the pair — so no clamp
// reconstruction is done here.
//
// The first and last iterations of a span run under lane keep-masks (the
// frame's M0 and M1, 0xffff per kept lane) unless both keep every lane:
// their outputs and traceback bits are zeroed outside the masks and their
// sticky contributions dropped. An odd word count ends in a half
// iteration whose second mask word is zero. The last iteration runs
// first, so the bottom edge lane that steers the next anti-diagonal is
// ready early. CX is the one induction variable: it counts words up to
// zero, streams are addressed (base)(CX*8) and the traceback planes
// (base)(CX*1), every base pointing at the last iteration's first word;
// the left H stream is the up H stream two bytes on.
//
// A run never crosses a rebase, a multiple of 512 anti-diagonals
// (certBlock), so edge is indexed by t mod 512.
//
// narrowStep offsets: ring 0, a 24, b 48, off 72, edge 96, bt 120,
// rowBytes 144, words 152, winEnd 160, m 168, n 176, w 184, t 192,
// tEnd 200, hPrev 208, hCur 216, hNext 224, iCur 232, iNext 240,
// dCur 248, dNext 256, dPrev 264, cells 272, p.GapOpen 288, p.GapExt 292,
// bnd 296, eV 304, oeV 312, nmV 320, gbV 328, smV 336.
//
// Frame: 0 M0, 16 M1, 32 d, 40 the new offset o, 48 the words from the
// first iteration to the last, 56 the last iteration's first word gE,
// 64 whether M0 and M1 keep every lane, 72 the traceback-bit mask of a
// masked iteration, 80 whether the span slots hold the whole window.

#include "textflag.h"

// WORDMASK sets out to the lane keep-mask of span word g: keepLo (R11)
// at gLo (R13), keepHi (R12) at gHi (DI), both when they are one word,
// every lane between and none outside.
#define WORDMASK(g, out, tmp) \
	MOVQ    $-1, out;   \
	CMPQ    g, R13;     \
	CMOVQEQ R11, out;   \
	MOVQ    out, tmp;   \
	ANDQ    R12, tmp;   \
	CMPQ    g, DI;      \
	CMOVQEQ tmp, out;   \
	XORL    tmp, tmp;   \
	CMPQ    g, R13;     \
	CMOVQLT tmp, out;   \
	CMPQ    g, DI;      \
	CMOVQGT tmp, out

// One 8-lane step: X0 = I and X3 = D outputs, X5 the raw diagonal sum.
#define CELLS \
	MOVOU   (R12)(CX*8), X0;  \
	PSUBUSW X9, X0;           \
	MOVOU   (R11)(CX*8), X1;  \
	PSUBW   X10, X1;          \
	PMAXSW  X1, X0;           \
	MOVOU   (R14)(CX*8), X3;  \
	PSUBUSW X9, X3;           \
	MOVOU   2(R11)(CX*8), X4; \
	PSUBW   X10, X4;          \
	PMAXSW  X4, X3;           \
	MOVOU   (DI)(CX*8), X8;   \
	MOVOU   (R15)(CX*8), X6;  \
	PCMPEQW X6, X8;           \
	PAND    X15, X8;          \
	MOVOU   (DX)(CX*8), X5;   \
	PADDW   X8, X5

#define CELLS_PLAIN \
	CELLS;                  \
	POR     X5, X13;        \
	PSUBUSW X11, X5;        \
	PMAXSW  X0, X5;         \
	PMAXSW  X3, X5;         \
	PMINSW  X5, X12;        \
	MOVOU   X5, (R8)(CX*8); \
	MOVOU   X0, (R9)(CX*8); \
	MOVOU   X3, (R10)(CX*8)

// HOLD_MIN folds the H outputs in X5 into the running minimum under the
// mask in X2: masked-out lanes enter it as 0x7fff, kept ones as max(H, 0),
// which differs from H only on a lane whose sum carried, already sticky.
#define HOLD_MIN \
	PCMPEQW X7, X7; \
	PXOR    X2, X7; \
	PSRLW   $1, X7; \
	PMAXSW  X5, X7; \
	PMINSW  X7, X12

// Store X5, X0 and X3 to the H, I and D outputs, zeroed outside the mask in X2.
#define KEEP_STORE \
	PAND  X2, X5;           \
	MOVOU X5, (R8)(CX*8);   \
	PAND  X2, X0;           \
	MOVOU X0, (R9)(CX*8);   \
	PAND  X2, X3;           \
	MOVOU X3, (R10)(CX*8)

#define CELLS_MASKED(off) \
	CELLS;              \
	MOVOU   off(SP), X2; \
	MOVOA   X2, X6;     \
	PAND    X5, X6;     \
	POR     X6, X13;    \
	PSUBUSW X11, X5;    \
	PMAXSW  X0, X5;     \
	PMAXSW  X3, X5;     \
	HOLD_MIN;           \
	KEEP_STORE

// The traceback step. TB_IN computes iv (X1), dv (X4) and the raw
// diagonal sum (X5), and packs the two extend masks (−1 where the extend
// candidate equals the max: it wins or ties) into the bytes of X0, one
// per lane, so that PMOVMSKB yields the I-extend byte and the D-extend
// byte of the iteration's eight lanes — the layout of setBT's first
// plane.
#define TB_IN \
	MOVOU    (R12)(CX*8), X0;  \
	PSUBUSW  X9, X0;           \
	MOVOU    (R11)(CX*8), X1;  \
	PSUBW    X10, X1;          \
	PMAXSW   X0, X1;           \
	PCMPEQW  X1, X0;           \
	MOVOU    (R14)(CX*8), X3;  \
	PSUBUSW  X9, X3;           \
	MOVOU    2(R11)(CX*8), X4; \
	PSUBW    X10, X4;          \
	PMAXSW   X3, X4;           \
	PCMPEQW  X4, X3;           \
	PACKSSWB X3, X0;           \
	MOVOU    (DI)(CX*8), X8;   \
	MOVOU    (R15)(CX*8), X7;  \
	PCMPEQW  X7, X8;           \
	PAND     X15, X8;          \
	MOVOU    (DX)(CX*8), X5;   \
	PADDW    X8, X5

// TB_MAX, after I and D are stored: diag = sum ⊖ nm, then best =
// max(diag, iv, dv) in X4; X5 = −1 where diag = max(diag, iv) and X1 = −1
// where max(diag, iv) = best — the complements of the strict origin
// compares iv > diag and dv > max(diag, iv), so ties keep the earlier
// origin — packed into X5 like the extend masks: the second plane's not
// from I and not from D bytes.
#define TB_MAX \
	PSUBUSW  X11, X5;        \
	PMAXSW   X5, X1;         \
	PCMPEQW  X1, X5;         \
	PMAXSW   X1, X4;         \
	PCMPEQW  X4, X1;         \
	PACKSSWB X1, X5

#define TB_PLAIN \
	TB_IN;                    \
	POR      X5, X13;         \
	MOVOU    X1, (R9)(CX*8);  \
	MOVOU    X4, (R10)(CX*8); \
	TB_MAX;                   \
	PMINSW   X4, X12;         \
	MOVOU    X4, (R8)(CX*8);  \
	PMOVMSKB X0, R13;         \
	MOVW     R13, (BX)(CX*1); \
	PMOVMSKB X5, R13;         \
	MOVW     R13, (SI)(CX*1)

// The masked traceback step: the lane mask at off(SP), packed like the
// traceback bits into the 16-bit mask at 72(SP), masked-out sums cleared
// before the OR, and the outputs and bits zeroed outside the mask.
#define TB_MASKED(off) \
	MOVOU    off(SP), X2;     \
	PACKSSWB X2, X2;          \
	PMOVMSKB X2, R13;         \
	MOVW     R13, 72(SP);     \
	TB_IN;                    \
	MOVOU    off(SP), X2;     \
	PAND     X2, X1;          \
	MOVOU    X1, (R9)(CX*8);  \
	PAND     X2, X4;          \
	MOVOU    X4, (R10)(CX*8); \
	MOVOA    X2, X6;          \
	PAND     X5, X6;          \
	POR      X6, X13;         \
	TB_MAX;                   \
	PMOVMSKB X0, R13;         \
	ANDW     72(SP), R13;     \
	MOVW     R13, (BX)(CX*1); \
	PMOVMSKB X5, R13;         \
	ANDW     72(SP), R13;     \
	MOVW     R13, (SI)(CX*1); \
	MOVOA    X4, X5;          \
	HOLD_MIN;                 \
	PAND     X2, X5;          \
	MOVOU    X5, (R8)(CX*8)

// func narrowRunSSE(st *narrowStep) bool
TEXT ·narrowRunSSE(SB), NOSPLIT, $88-9
	MOVQ st+0(FP), AX

	MOVQ       304(AX), X9  // eV
	PUNPCKLQDQ X9, X9
	MOVQ       312(AX), X10 // oeV
	PUNPCKLQDQ X10, X10
	MOVQ       320(AX), X11 // nmV
	PUNPCKLQDQ X11, X11
	MOVQ       336(AX), X15 // smV
	PUNPCKLQDQ X15, X15
	MOVQ       328(AX), X14 // gbV
	PUNPCKLQDQ X14, X14
	PCMPEQW    X12, X12 // running min of the H outputs, from 0x7fff
	PSRLW      $1, X12
	PXOR       X13, X13 // OR of the raw diagonal sums
	MOVQ       $0, 80(SP) // the span slots do not hold the whole window

diag:
	MOVQ    192(AX), CX // t
	CMPQ    CX, 200(AX)
	JGE     clean
	MOVQ    0(AX), BX
	MOVQ    216(AX), R8
	LEAQ    (BX)(R8*8), R8       // hCur
	MOVQ    184(AX), R10         // w
	MOVWQZX 8(R8), R9            // top: lane narrowLane0
	MOVWQZX 6(R8)(R10*2), R11    // bottom: lane narrowLane0+w−1
	MOVQ    72(AX), SI
	MOVLQSX (SI)(CX*4), DX       // o = off[t]

	// chooseShift, branch-free: an edge outside the matrix counts as dead
	// (0), which orders like NegInf against live lanes.
	XORL    R13, R13
	MOVQ    R9, R12
	CMPQ    DX, 168(AX)          // top row o ∈ [0, m]
	CMOVQHI R13, R12
	MOVQ    CX, R14
	SUBQ    DX, R14
	CMPQ    R14, 176(AX)         // top column t−o ∈ [0, n]
	CMOVQHI R13, R12
	MOVQ    R11, R15
	LEAQ    -1(DX)(R10*1), R14   // bottom row o+w−1
	CMPQ    R14, 168(AX)
	CMOVQHI R13, R15
	MOVQ    CX, DI
	SUBQ    R14, DI
	CMPQ    DI, 176(AX)          // bottom column
	CMOVQHI R13, R15
	MOVQ    R10, DI              // tie: down iff 2(o + w/2) − t < m − n
	SHRQ    $1, DI
	ADDQ    DX, DI
	SHLQ    $1, DI
	SUBQ    CX, DI
	MOVQ    168(AX), R14
	SUBQ    176(AX), R14
	XORL    BX, BX               // d
	MOVL    $1, SI
	CMPQ    DI, R14
	CMOVQLT SI, BX
	CMPQ    R15, R12
	CMOVQHI SI, BX               // bottom > top: down
	CMOVQCS R13, BX              // top > bottom: right

	// Keep the window on the valid rows [loI, hiI] of anti-diagonal t+1.
	LEAQ    1(CX), R14
	SUBQ    176(AX), R14
	CMPQ    R14, R13
	CMOVQLT R13, R14             // loI = max(t+1−n, 0)
	LEAQ    -1(DX)(R10*1), DI
	ADDQ    BX, DI
	CMPQ    DI, R14
	CMOVQLT SI, BX               // o+d+w−1 < loI: down
	LEAQ    1(CX), R14
	MOVQ    168(AX), DI
	CMPQ    R14, DI
	CMOVQGT DI, R14              // hiI = min(t+1, m)
	LEAQ    (DX)(BX*1), DI
	CMPQ    DI, R14
	CMOVQGT R13, BX              // o+d > hiI: right

	MOVQ    96(AX), SI
	TESTQ   BX, BX
	CMOVQNE R9, R11
	MOVQ    CX, R13
	ANDQ    $511, R13
	MOVL    R11, (SI)(R13*4)     // edge[t mod 512]: top when moving down, else bottom
	ADDQ    BX, DX               // o = off[t] + d
	MOVQ    72(AX), SI
	MOVL    DX, 4(SI)(CX*4)      // off[t+1]
	MOVQ    BX, 32(SP)
	MOVQ    DX, 40(SP)

	// Interior: the window lies wholly in the matrix — pLo = 0, pHi = w−1,
	// w cells, no flank and no boundary cell — ⇔ max(1, t+1−n) ≤ o ≤
	// min(m, t) − w + 1. Its span and masks are the run's constants, kept
	// in the frame while one interior anti-diagonal follows another.
	LEAQ    1(CX), R12
	SUBQ    176(AX), R12
	MOVL    $1, R13
	CMPQ    R12, R13
	CMOVQLT R13, R12
	MOVQ    168(AX), R14
	CMPQ    CX, R14
	CMOVQLT CX, R14
	SUBQ    R10, R14
	INCQ    R14
	CMPQ    DX, R12
	JLT     edges
	CMPQ    DX, R14
	JGT     edges
	ADDQ    R10, 272(AX)         // cells += w
	CMPQ    80(SP), $0
	JNE     streams
	MOVQ    $1, 80(SP)
	MOVL    $4, R13              // lo
	LEAQ    3(R10), DI           // hi
	JMP     spans

edges:
	// The span [pLo, pHi] and the cells [cLo, cHi] of anti-diagonal t+1.
	MOVQ    $0, 80(SP)
	LEAQ    1(CX), R12
	SUBQ    176(AX), R12
	SUBQ    DX, R12
	XORL    R13, R13
	CMPQ    R12, R13
	CMOVQLT R13, R12             // cLo = max(0, t+1−n−o)
	MOVL    $1, R13
	SUBQ    DX, R13
	CMPQ    R13, R12
	CMOVQLT R12, R13             // pLo = max(cLo, 1−o)
	LEAQ    -1(R10), R14
	MOVQ    168(AX), DI
	SUBQ    DX, DI
	CMPQ    DI, R14
	CMOVQLT DI, R14              // min(w−1, m−o)
	MOVQ    CX, DI
	SUBQ    DX, DI
	LEAQ    1(DI), R15
	CMPQ    R15, R14
	CMOVQGT R14, R15             // cHi = min(w−1, m−o, t+1−o)
	CMPQ    DI, R14
	CMOVQGT R14, DI              // pHi = min(w−1, m−o, t−o)
	SUBQ    R12, R15
	INCQ    R15
	JLE     lohi
	ADDQ    R15, 272(AX)         // cells += cHi−cLo+1

lohi:
	ADDQ $4, R13                 // lo = pLo + narrowLane0
	ADDQ $4, DI                  // hi

spans:
	CMPQ R13, DI
	JGT  empty
	MOVQ R13, CX
	ANDQ $3, CX
	SHLQ $4, CX
	MOVQ $-1, R11
	SHLQ CX, R11                 // keepLo
	MOVQ DI, CX
	ANDQ $3, CX
	XORQ $3, CX
	SHLQ $4, CX
	MOVQ $-1, R12
	SHRQ CX, R12                 // keepHi
	SHRQ $2, R13                 // gLo
	SHRQ $2, DI                  // gHi

	// Iterations start at odd words, so a traceback row's bytes mean the
	// same whatever the span: b0, the odd word at or before gLo, begins
	// the first iteration (a word before gLo is all masked out), and gE
	// the last. M0 and M1 are their lane keep-masks, each stored whole so
	// its load forwards from one store.
	LEAQ -1(R13), R14
	ORQ  $1, R14                 // b0
	MOVQ DI, R15
	SUBQ R14, R15
	ANDQ $-2, R15
	MOVQ R15, 48(SP)             // gE − b0, the words from the first iteration to the last
	ADDQ R14, R15
	MOVQ R15, 56(SP)             // gE
	WORDMASK(R14, R8, R9)
	INCQ R14
	WORDMASK(R14, R10, R9)
	MOVQ       R8, X1
	MOVQ       R10, X3
	PUNPCKLQDQ X3, X1            // M0
	WORDMASK(R15, R8, R9)
	INCQ R15
	WORDMASK(R15, R10, R9)
	MOVQ       R8, X0
	MOVQ       R10, X3
	PUNPCKLQDQ X3, X0            // M1
	MOVOU      X1, 0(SP)
	MOVOU      X0, 16(SP)
	PAND       X1, X0
	PCMPEQB    X2, X2
	PCMPEQB    X2, X0
	PMOVMSKB   X0, R15
	MOVQ       R15, 64(SP)       // 0xffff: both masks keep every lane
	JMP        flanks

empty:
	MOVQ 160(AX), R13            // gLo = winEnd: every window word is a flank
	LEAQ -1(R13), DI

flanks:
	MOVQ 0(AX), BX
	MOVQ 224(AX), R8
	LEAQ (BX)(R8*8), R8          // hNext
	MOVQ 240(AX), R9
	LEAQ (BX)(R9*8), R9          // iNext
	MOVQ 256(AX), R10
	LEAQ (BX)(R10*8), R10        // dNext
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
	CMPQ R12, 160(AX)
	JLT  fl2loop
	CMPQ R13, 160(AX)
	JGE  boundary                // empty span

streams:
	// Stream bases at the last iteration's first word gE.
	MOVQ 0(AX), BX
	MOVQ 56(SP), DI
	SHLQ $3, DI                  // 8·gE
	MOVQ 224(AX), R8
	LEAQ (BX)(R8*8), R8
	ADDQ DI, R8                  // hNext
	MOVQ 240(AX), R9
	LEAQ (BX)(R9*8), R9
	ADDQ DI, R9                  // iNext
	MOVQ 256(AX), R10
	LEAQ (BX)(R10*8), R10
	ADDQ DI, R10                 // dNext
	MOVQ 32(SP), CX              // d
	LEAQ -2(DI)(CX*2), R15       // up neighbours: lane 4gE−1+d
	MOVQ 216(AX), R11
	LEAQ (BX)(R11*8), R11
	ADDQ R15, R11                // hUp; hLt is hUp + 2
	MOVQ 232(AX), R12
	LEAQ (BX)(R12*8), R12
	ADDQ R15, R12                // iUp
	MOVQ 248(AX), R14
	LEAQ 2(BX)(R14*8), R14
	ADDQ R15, R14                // dLt
	ADDQ 264(AX), CX             // dd = d + dPrev
	MOVQ 208(AX), DX
	LEAQ (BX)(DX*8), DX
	LEAQ -2(DX)(CX*2), DX
	ADDQ DI, DX                  // hDg: lane 4gE−1+dd
	MOVQ 40(SP), CX              // o
	MOVQ 24(AX), SI
	ADDQ DI, SI
	LEAQ 6(SI)(CX*2), SI         // a: base lane 4gE+o+3
	MOVQ 176(AX), BX
	SUBQ 192(AX), BX
	ADDQ CX, BX
	MOVQ 48(AX), R15
	ADDQ DI, R15
	LEAQ 6(R15)(BX*2), R15       // b: base lane 4gE+n−t+3+o
	MOVQ SI, DI
	MOVQ 120(AX), BX
	TESTQ BX, BX
	JNE  tb

	XORL CX, CX
	CMPQ 48(SP), $0
	JEQ  single
	CMPQ 64(SP), $0xffff
	JEQ  plain
	CELLS_MASKED(16)             // the last iteration first
	MOVQ 48(SP), CX
	NEGQ CX
	CELLS_MASKED(0)
	ADDQ $2, CX
	JZ   kdone
	JMP  loop

plain:
	CELLS_PLAIN                  // the last iteration first
	MOVQ 48(SP), CX
	NEGQ CX

loop:
	CELLS_PLAIN
	ADDQ $2, CX
	JNZ  loop
	JMP  kdone

single:
	CELLS_MASKED(0)
	JMP kdone

tb:
	MOVQ  192(AX), SI
	INCQ  SI
	IMULQ 144(AX), SI
	ADDQ  SI, BX
	ADDQ  56(SP), BX             // extend plane of row t+1 at word gE
	MOVQ  144(AX), SI
	SHRQ  $1, SI
	ADDQ  BX, SI                 // origin plane
	XORL  CX, CX
	CMPQ  48(SP), $0
	JEQ   tbsingle
	CMPQ  64(SP), $0xffff
	JEQ   tbplain
	TB_MASKED(16)
	MOVQ  48(SP), CX
	NEGQ  CX
	TB_MASKED(0)
	ADDQ  $2, CX
	JZ    kdone
	JMP   tbloop

tbplain:
	TB_PLAIN                     // the last iteration first
	MOVQ  48(SP), CX
	NEGQ  CX

tbloop:
	TB_PLAIN
	ADDQ $2, CX
	JNZ  tbloop
	JMP  kdone

tbsingle:
	TB_MASKED(0)

kdone:
	// Sticky: bit 15 of a raw diagonal sum (a carry), or a minimum H
	// output below the guard floor — bit 15 of each lane of
	// (OR of sums) | (gb > min H), read by PMOVMSKB off the odd bytes.
	MOVOA    X14, X0
	PCMPGTW  X12, X0
	POR      X13, X0
	PMOVMSKB X0, R11
	TESTL    $0xaaaa, R11
	JNE      sticky
	CMPQ       80(SP), $0
	JNE        rotate            // interior: no boundary cell

boundary:
	// The matrix-boundary cells beside the span store
	// bnd − GapCost(t+1), which must lie in [1, narrowTop]: row 0
	// (o = 0, t+1 ≤ n) in lane narrowLane0 of H and D, from D; column 0
	// (q = t+1−o ∈ [0, w), t+1 ≤ m) in lane q+narrowLane0 of H and I,
	// from I.
	MOVQ  192(AX), CX            // t
	MOVQ  40(SP), DX             // o
	LEAQ  1(CX), R13
	SUBQ  DX, R13                // q
	TESTQ DX, DX
	JEQ   bcells
	CMPQ  R13, 184(AX)
	JCC   rotate                 // neither: o > 0 and q ≥ w

bcells:
	LEAL    1(CX), R11
	IMULL   292(AX), R11
	ADDL    288(AX), R11
	NEGL    R11
	MOVLQSX R11, R11
	ADDQ    296(AX), R11         // rel
	LEAQ    -1(R11), R12         // rel−1 < narrowTop unsigned ⇔ it fits
	MOVQ    0(AX), BX
	MOVQ    120(AX), SI
	TESTQ   SI, SI
	JEQ     brow
	LEAQ    1(CX), R14
	IMULQ   144(AX), R14
	ADDQ    R14, SI              // traceback row t+1

brow:
	XORL  R15, R15
	TESTQ CX, CX
	SETNE R15B                   // min(t, 1): extend past the first row or column
	TESTQ DX, DX
	JNE   bcol
	LEAQ  1(CX), R14
	CMPQ  R14, 176(AX)
	JGT   bcol
	CMPQ  R12, $0x7fff
	JCC   sticky
	MOVQ  224(AX), R14
	MOVW  R11, 8(BX)(R14*8)
	MOVQ  256(AX), R14
	MOVW  R11, 8(BX)(R14*8)
	TESTQ SI, SI
	JEQ   bcol
	// Lane narrowLane0 is bit 0 of the pair at word 1.
	MOVQ    144(AX), R14
	SHRQ    $1, R14              // the origin plane
	ANDB    $0xfe, 1(SI)         // no I-extend
	MOVBLZX 2(SI), DI
	ANDL    $0xfe, DI
	ORL     R15, DI
	MOVB    DI, 2(SI)            // D-extend past the first row
	ORB     $1, 1(SI)(R14*1)     // not from I
	ANDB    $0xfe, 2(SI)(R14*1)  // from D

bcol:
	LEAQ  1(CX), R14
	CMPQ  R14, 168(AX)
	JGT   rotate
	CMPQ  R13, 184(AX)
	JCC   rotate
	CMPQ  R12, $0x7fff
	JCC   sticky
	MOVQ  224(AX), R14
	LEAQ  (BX)(R14*8), R14
	MOVW  R11, 8(R14)(R13*2)
	MOVQ  240(AX), R14
	LEAQ  (BX)(R14*8), R14
	MOVW  R11, 8(R14)(R13*2)
	TESTQ SI, SI
	JEQ   rotate
	LEAQ    4(R13), CX           // the lane
	MOVQ    CX, R13
	SHRQ    $2, R13
	DECQ    R13
	ORQ     $1, R13              // the pair's first word b
	MOVQ    R13, DI
	SHLQ    $2, DI
	SUBQ    DI, CX               // the lane's bit in the pair's bytes
	MOVL    $1, DI
	SHLL    CX, DI
	SHLL    CX, R15
	MOVL    DI, R8
	NOTL    R8
	MOVBLZX (SI)(R13*1), R12
	ANDL    R8, R12
	ORL     R15, R12
	MOVB    R12, (SI)(R13*1)     // I-extend past the first column
	ANDB    R8, 1(SI)(R13*1)     // no D-extend
	MOVQ    144(AX), CX
	SHRQ    $1, CX
	ADDQ    CX, SI               // the origin plane
	ANDB    R8, (SI)(R13*1)      // from I
	ORB     DI, 1(SI)(R13*1)     // not from D

rotate:
	MOVQ 208(AX), R11
	MOVQ 216(AX), R12
	MOVQ 224(AX), R13
	MOVQ R12, 208(AX)
	MOVQ R13, 216(AX)
	MOVQ R11, 224(AX)
	MOVQ 232(AX), R11
	MOVQ 240(AX), R12
	MOVQ R12, 232(AX)
	MOVQ R11, 240(AX)
	MOVQ 248(AX), R11
	MOVQ 256(AX), R12
	MOVQ R12, 248(AX)
	MOVQ R11, 256(AX)
	MOVQ 32(SP), R11
	MOVQ R11, 264(AX)            // dPrev = d
	INCQ 192(AX)                 // t++
	JMP  diag

sticky:
	MOVB $1, ret+8(FP)
	RET

clean:
	MOVB $0, ret+8(FP)
	RET

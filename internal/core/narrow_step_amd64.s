// SSE2 inner loop of the 16-bit narrow-lane adaptive-band engine.
// See banded_narrow.go for the value encoding and narrow_step.go for the
// portable SWAR reference this must match lane for lane: PCMPEQW of the
// two one-base-per-lane streams, masked with Match−Mismatch, is the
// substitution word (the in-lane cmpb4), PSUBUSW is the per-lane
// saturating-at-zero subtract, PMAXSW the lane max (sound because live
// lanes keep bit 15 clear), PADDW the substitution add whose bit-15 carry
// is trapped into the sticky accumulator, and a final PSUBUSW against the
// guard floor flags any below-guard H output. On a sticky the in-flight
// lane values may diverge from the reference — the caller discards the
// whole step — so no clamp reconstruction is done here.
//
// One call covers one anti-diagonal's span, eight lanes (two words) per
// iteration. The first and last iterations run under the lane keep-masks
// of the argument block (0xffff per kept lane): the outputs, the
// traceback bits and the sticky contributions of the lanes outside them
// are blended away with PAND/PANDN, so those lanes keep their memory bit
// for bit and raise nothing. An iteration whose mask keeps every lane
// runs in the plain loop. An odd word count ends in a half iteration: the
// mask of its second word is zero.
//
// CX is the one induction variable: it counts words up to zero, streams
// are addressed (base)(CX*8) and the traceback planes (base)(CX*1), and
// every base is advanced past the plain run on entry, so the plain loop
// costs one fused add-and-branch per iteration. The left H stream is the
// up H stream two bytes on.
//
// Argument block offsets (narrowArgs): ring 0, a 8, b 16, hNext 24,
// iNext 32, dNext 40, hUp 48, iUp 56, dLt 64, hDg 72, aLane 80, bLane 88,
// iters 96, first 104, last 120, bt 136, btOrg 144, eV 152, oeV 160,
// nmV 168, gbV 176, smV 184.

#include "textflag.h"

// Load the stream registers from the argument block at AX and set CX to
// minus the words of the plain run, every base advanced past it: the run
// is every iteration but a masked last one (Go folds a single iteration's
// masks into first).
#define STREAMS \
	MOVQ 0(AX), BX;      \
	MOVQ 24(AX), R8;     \
	ADDQ BX, R8;         \
	MOVQ 32(AX), R9;     \
	ADDQ BX, R9;         \
	MOVQ 40(AX), R10;    \
	ADDQ BX, R10;        \
	MOVQ 48(AX), R11;    \
	ADDQ BX, R11;        \
	MOVQ 56(AX), R12;    \
	ADDQ BX, R12;        \
	MOVQ 64(AX), R14;    \
	ADDQ BX, R14;        \
	MOVQ 72(AX), DX;     \
	ADDQ BX, DX;         \
	MOVQ 8(AX), DI;      \
	ADDQ 80(AX), DI;     \
	MOVQ 16(AX), R15;    \
	ADDQ 88(AX), R15;    \
	MOVQ 96(AX), CX;     \
	CMPQ 120(AX), $-1;   \
	JNE  3(PC);          \
	CMPQ 128(AX), $-1;   \
	JEQ  2(PC);          \
	DECQ CX;             \
	SHLQ $1, CX;         \
	LEAQ (R8)(CX*8), R8; \
	LEAQ (R9)(CX*8), R9; \
	LEAQ (R10)(CX*8), R10; \
	LEAQ (R11)(CX*8), R11; \
	LEAQ (R12)(CX*8), R12; \
	LEAQ (R14)(CX*8), R14; \
	LEAQ (DX)(CX*8), DX;   \
	LEAQ (DI)(CX*8), DI;   \
	LEAQ (R15)(CX*8), R15; \
	NEGQ CX

// Branch to label unless the keep-mask at off(AX) keeps every lane.
#define MASKED(off, label) \
	CMPQ off(AX), $-1;   \
	JNE  label;          \
	CMPQ off+8(AX), $-1; \
	JNE  label

// Store v to p, keeping the lanes outside the mask at off(AX).
#define KEEP(off, v, p) \
	MOVOU off(AX), X8;     \
	MOVOU (p)(CX*8), X6;   \
	PAND  X8, v;           \
	PANDN X6, X8;          \
	POR   X8, v;           \
	MOVOU v, (p)(CX*8)

// One 8-lane step of narrowStepSSE: X0 = I, X3 = D and X5 = H outputs,
// X6 = the sticky candidates (diagonal-add carry or below-guard H).
#define CELLS \
	MOVOU   (R12)(CX*8), X0;  \
	PSUBUSW X9, X0;           \
	MOVOU   (R11)(CX*8), X1;  \
	PSUBUSW X10, X1;          \
	PMAXSW  X1, X0;           \
	MOVOU   (R14)(CX*8), X3;  \
	PSUBUSW X9, X3;           \
	MOVOU   2(R11)(CX*8), X4; \
	PSUBUSW X10, X4;          \
	PMAXSW  X4, X3;           \
	MOVOU   (DI)(CX*8), X8;   \
	MOVOU   (R15)(CX*8), X6;  \
	PCMPEQW X6, X8;           \
	PAND    X15, X8;          \
	MOVOU   (DX)(CX*8), X5;   \
	PADDW   X8, X5;           \
	MOVOA   X5, X6;           \
	PAND    X13, X6;          \
	PSUBUSW X11, X5;          \
	PMAXSW  X0, X5;           \
	PMAXSW  X3, X5;           \
	MOVOA   X12, X7;          \
	PSUBUSW X5, X7;           \
	POR     X7, X6

#define CELLS_PLAIN \
	CELLS;                \
	POR   X6, X14;        \
	MOVOU X5, (R8)(CX*8); \
	MOVOU X0, (R9)(CX*8); \
	MOVOU X3, (R10)(CX*8)

#define CELLS_MASKED(off) \
	CELLS;             \
	MOVOU off(AX), X8; \
	PAND  X8, X6;      \
	POR   X6, X14;     \
	KEEP(off, X5, R8); \
	KEEP(off, X0, R9); \
	KEEP(off, X3, R10)

// func narrowStepSSE(a *narrowArgs) uint64
//
// iv = max(iUp ⊖ e, hUp ⊖ oe), dv = max(dLt ⊖ e, hLt ⊖ oe),
// sub = (a == b) & (Match − Mismatch), diag = (hDg + sub) ⊖ nm with the
// bit-15 carry sticky, best = max(diag, iv, dv) with a below-guard best
// sticky.
TEXT ·narrowStepSSE(SB), NOSPLIT, $0-16
	MOVQ a+0(FP), AX
	STREAMS

	MOVQ       152(AX), X9  // eV
	PUNPCKLQDQ X9, X9
	MOVQ       160(AX), X10 // oeV
	PUNPCKLQDQ X10, X10
	MOVQ       168(AX), X11 // nmV
	PUNPCKLQDQ X11, X11
	MOVQ       176(AX), X12 // gbV
	PUNPCKLQDQ X12, X12
	MOVQ       184(AX), X15 // smV
	PUNPCKLQDQ X15, X15
	MOVQ       $0x8000800080008000, BX // bit 15 of every lane
	MOVQ       BX, X13
	PUNPCKLQDQ X13, X13
	PXOR       X14, X14 // sticky accumulator

	MASKED(104, head)
	JMP loop

head:
	CELLS_MASKED(104)
	ADDQ $2, CX
	JZ   last

loop:
	CELLS_PLAIN
	ADDQ $2, CX
	JNZ  loop

last:
	MASKED(120, tail)
	JMP done

tail:
	CELLS_MASKED(120)

done:
	MOVQ  X14, BX
	PSRLO $8, X14
	MOVQ  X14, AX
	ORQ   BX, AX
	MOVQ  AX, ret+8(FP)
	RET

// The traceback step around its sticky, store and traceback-bit hooks.
// TB_IN computes iv (X0), dv (X3) and the raw diagonal sum (X5), and
// gathers the two extend masks (−1 where the extend candidate wins or
// ties) into the bytes of X2: PACKSSWB makes one byte per lane, PSHUFD
// orders them so PMOVMSKB yields one byte per word — I-extend of its four
// lanes in the low nibble, D-extend in the high one — the layout of
// setBT's first plane.
#define TB_IN \
	MOVOU    (R12)(CX*8), X0;  \
	PSUBUSW  X9, X0;           \
	MOVOU    (R11)(CX*8), X1;  \
	PSUBUSW  X10, X1;          \
	MOVOA    X0, X2;           \
	PMAXSW   X1, X0;           \
	PCMPEQW  X0, X2;           \
	MOVOU    (R14)(CX*8), X3;  \
	PSUBUSW  X9, X3;           \
	MOVOU    2(R11)(CX*8), X4; \
	PSUBUSW  X10, X4;          \
	MOVOA    X3, X6;           \
	PMAXSW   X4, X3;           \
	PCMPEQW  X3, X6;           \
	PACKSSWB X6, X2;           \
	PSHUFD   $0xd8, X2, X2;    \
	MOVOU    (DI)(CX*8), X8;   \
	MOVOU    (R15)(CX*8), X7;  \
	PCMPEQW  X7, X8;           \
	PAND     X15, X8;          \
	MOVOU    (DX)(CX*8), X5;   \
	PADDW    X8, X5

// TB_MAX: diag = sum ⊖ nm and best = max(diag, iv, dv) in X5; X1 = −1
// where iv > diag, X4 = −1 where dv > max(diag, iv) — strict, so ties
// keep the earlier origin — gathered into X1 like the extend masks: the
// second plane, from I in the low nibble, from D in the high one.
#define TB_MAX \
	PSUBUSW  X11, X5;        \
	MOVOA    X0, X1;         \
	PCMPGTW  X5, X1;         \
	PMAXSW   X0, X5;         \
	MOVOA    X3, X4;         \
	PCMPGTW  X5, X4;         \
	PMAXSW   X3, X5;         \
	PACKSSWB X4, X1;         \
	PSHUFD   $0xd8, X1, X1

#define TB_PLAIN \
	TB_IN;                  \
	POR      X5, X13;       \
	TB_MAX;                 \
	PMINSW   X5, X12;       \
	MOVOU    X5, (R8)(CX*8); \
	MOVOU    X0, (R9)(CX*8); \
	MOVOU    X3, (R10)(CX*8); \
	PMOVMSKB X2, R13;       \
	MOVW     R13, (BX)(CX*1); \
	PMOVMSKB X1, R13;       \
	MOVW     R13, (SI)(CX*1)

// Blend the traceback bits in R13 into the plane at p under the 16-bit
// mask at m-8(SP).
#define BTKEEP(p) \
	XORW (p)(CX*1), R13; \
	ANDW m-8(SP), R13;   \
	XORW R13, (p)(CX*1)

// The masked step: masked-out sums are cleared before the OR, masked-out
// H outputs enter the min as 0x7fff (kept ones as max(H, 0), which
// differs from H only on a lane whose sum carried, already sticky), and
// the traceback bits blend under the lane mask gathered like them.
#define TB_MASKED(off) \
	MOVOU    off(AX), X0;     \
	PACKSSWB X0, X0;          \
	PSHUFD   $0xd8, X0, X0;   \
	PMOVMSKB X0, R13;         \
	MOVW     R13, m-8(SP);    \
	TB_IN;                    \
	MOVOU    off(AX), X8;     \
	PAND     X5, X8;          \
	POR      X8, X13;         \
	TB_MAX;                   \
	MOVOU    off(AX), X6;     \
	PCMPEQW  X8, X8;          \
	PXOR     X8, X6;          \
	PSRLW    $1, X6;          \
	PMAXSW   X5, X6;          \
	PMINSW   X6, X12;         \
	KEEP(off, X5, R8);        \
	KEEP(off, X0, R9);        \
	KEEP(off, X3, R10);       \
	PMOVMSKB X2, R13;         \
	BTKEEP(BX);               \
	PMOVMSKB X1, R13;         \
	BTKEEP(SI)

// func narrowStepSSETB(a *narrowArgs) uint64
//
// The traceback twin: the recurrence of narrowStepSSE with the compare
// masks of its maxima kept as traceback bits, two bytes per word. The
// sticky verdict is the same as narrowStepSSE's but accumulated cheaper:
// the raw diagonal sums are OR-ed (bit 15 tested once at the end) and the
// H outputs are min-reduced against the guard floor.
TEXT ·narrowStepSSETB(SB), NOSPLIT, $8-16
	MOVQ a+0(FP), AX
	STREAMS

	MOVQ 136(AX), BX // traceback planes, advanced like the streams
	SUBQ CX, BX
	MOVQ 144(AX), SI
	SUBQ CX, SI

	MOVQ       152(AX), X9  // eV
	PUNPCKLQDQ X9, X9
	MOVQ       160(AX), X10 // oeV
	PUNPCKLQDQ X10, X10
	MOVQ       168(AX), X11 // nmV
	PUNPCKLQDQ X11, X11
	MOVQ       184(AX), X15 // smV
	PUNPCKLQDQ X15, X15

	PCMPEQW X12, X12 // running min of the H outputs, from 0x7fff
	PSRLW   $1, X12
	PXOR    X13, X13 // OR of the raw diagonal sums

	MASKED(104, tbhead)
	JMP tbloop

tbhead:
	TB_MASKED(104)
	ADDQ $2, CX
	JZ   tblast

tbloop:
	TB_PLAIN
	ADDQ $2, CX
	JNZ  tbloop

tblast:
	MASKED(120, tbtail)
	JMP tbdone

tbtail:
	TB_MASKED(120)

tbdone:
	// sticky = (OR of sums) & nH  |  gb ⊖ min(H outputs)
	MOVQ       $0x8000800080008000, BX
	MOVQ       BX, X0
	PUNPCKLQDQ X0, X0
	PAND       X0, X13
	MOVQ       176(AX), X1 // gbV
	PUNPCKLQDQ X1, X1
	PSUBUSW    X12, X1
	POR        X1, X13

	MOVQ  X13, BX
	PSRLO $8, X13
	MOVQ  X13, AX
	ORQ   BX, AX
	MOVQ  AX, ret+8(FP)
	RET

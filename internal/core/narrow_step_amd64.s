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
// Argument block offsets (narrowSSEArgs): hNext 0, iNext 8, dNext 16,
// hCur1 24, iCur1 32, hCur0 40, dCur0 48, hPrev1 56, a 64, b 72, pairs 80,
// dUp 88, dLt 96, dDg 104, dA 112, dB 120, eV 128, oeV 136, nmV 144,
// gbV 152, smV 160, hV 168, bt 176.

#include "textflag.h"

// func narrowStepSSE(a *narrowSSEArgs) uint64
TEXT ·narrowStepSSE(SB), NOSPLIT, $0-16
	MOVQ a+0(FP), AX

	MOVQ 0(AX), R8    // hNext
	MOVQ 8(AX), R9    // iNext
	MOVQ 16(AX), R10  // dNext
	MOVQ 24(AX), R11  // hCur1: up stream
	MOVQ 32(AX), R12  // iCur1: up stream
	MOVQ 40(AX), R13  // hCur0: left stream
	MOVQ 48(AX), R14  // dCur0: left stream
	MOVQ 56(AX), DX   // hPrev1: diagonal stream
	MOVQ 64(AX), DI   // a: base stream
	MOVQ 80(AX), SI   // pairs

	MOVQ 88(AX), BX   // dUp
	ADDQ BX, R11
	ADDQ BX, R12
	MOVQ 96(AX), BX   // dLt
	ADDQ BX, R13
	ADDQ BX, R14
	ADDQ 104(AX), DX  // dDg
	ADDQ 112(AX), DI  // dA

	MOVQ       128(AX), X9  // eV
	PUNPCKLQDQ X9, X9
	MOVQ       136(AX), X10 // oeV
	PUNPCKLQDQ X10, X10
	MOVQ       144(AX), X11 // nmV
	PUNPCKLQDQ X11, X11
	MOVQ       152(AX), X12 // gbV
	PUNPCKLQDQ X12, X12
	MOVQ       160(AX), X15 // smV
	PUNPCKLQDQ X15, X15
	MOVQ       168(AX), X13 // nH: bit 15 of every lane
	PUNPCKLQDQ X13, X13

	MOVQ 120(AX), BX  // dB
	MOVQ 72(AX), AX   // b: base stream (the argument block is done with)
	ADDQ BX, AX

	PXOR X14, X14 // sticky accumulator
	XORQ CX, CX   // byte index

loop:
	// iv = max(iUp ⊖ e, hUp ⊖ oe)
	MOVOU   (R12)(CX*1), X0
	PSUBUSW X9, X0
	MOVOU   (R11)(CX*1), X1
	PSUBUSW X10, X1
	PMAXSW  X1, X0

	// dv = max(dLt ⊖ e, hLt ⊖ oe)
	MOVOU   (R14)(CX*1), X3
	PSUBUSW X9, X3
	MOVOU   (R13)(CX*1), X4
	PSUBUSW X10, X4
	PMAXSW  X4, X3

	// sub = (a == b) & (Match − Mismatch)
	MOVOU   (DI)(CX*1), X8
	MOVOU   (AX)(CX*1), X6
	PCMPEQW X6, X8
	PAND    X15, X8

	// diag = (hDg + sub) ⊖ nm, bit-15 carry → sticky
	MOVOU   (DX)(CX*1), X5
	PADDW   X8, X5
	MOVOA   X5, X6
	PAND    X13, X6
	POR     X6, X14
	PSUBUSW X11, X5

	// best = max(diag, iv, dv); below-guard output → sticky
	PMAXSW  X0, X5
	PMAXSW  X3, X5
	MOVOA   X12, X7
	PSUBUSW X5, X7
	POR     X7, X14

	MOVOU X5, (R8)(CX*1)
	MOVOU X0, (R9)(CX*1)
	MOVOU X3, (R10)(CX*1)

	ADDQ $16, CX
	DECQ SI
	JNZ  loop

	MOVQ  X14, BX
	PSRLO $8, X14
	MOVQ  X14, AX
	ORQ   BX, AX
	MOVQ  AX, ret+8(FP)
	RET

// func narrowStepSSETB(a *narrowSSEArgs) uint64
//
// The traceback twin: the recurrence of narrowStepSSE with the compare
// masks of its maxima kept. Masks are 0/−1 per lane, so the nibble is
// assembled negated — −(4·iExt + 8·dExt) − origin, all adds and mins of
// masks, no constants — and one PMADDWD against (−1, −16) both restores
// the sign and folds each lane pair into its byte. The mismatch mask is
// the zero lanes of the substitution word (Match > Mismatch, so a match
// lane is never zero). The sticky verdict is the same as narrowStepSSE's
// but accumulated cheaper: the raw diagonal sums are OR-ed (bit 15 tested
// once at the end) and the H outputs are min-reduced against the guard
// floor.
TEXT ·narrowStepSSETB(SB), NOSPLIT, $0-16
	MOVQ a+0(FP), AX

	MOVQ 0(AX), R8    // hNext
	MOVQ 8(AX), R9    // iNext
	MOVQ 16(AX), R10  // dNext
	MOVQ 24(AX), R11  // hCur1: up stream
	MOVQ 32(AX), R12  // iCur1: up stream
	MOVQ 40(AX), R13  // hCur0: left stream
	MOVQ 48(AX), R14  // dCur0: left stream
	MOVQ 56(AX), DX   // hPrev1: diagonal stream
	MOVQ 64(AX), DI   // a: base stream
	MOVQ 80(AX), SI   // pairs

	MOVQ 88(AX), BX   // dUp
	ADDQ BX, R11
	ADDQ BX, R12
	MOVQ 96(AX), BX   // dLt
	ADDQ BX, R13
	ADDQ BX, R14
	ADDQ 104(AX), DX  // dDg
	ADDQ 112(AX), DI  // dA

	MOVQ       128(AX), X9  // eV
	PUNPCKLQDQ X9, X9
	MOVQ       136(AX), X10 // oeV
	PUNPCKLQDQ X10, X10
	MOVQ       144(AX), X11 // nmV
	PUNPCKLQDQ X11, X11
	MOVQ       160(AX), X15 // smV
	PUNPCKLQDQ X15, X15

	PCMPEQW X12, X12 // running min of the H outputs, from 0x7fff
	PSRLW   $1, X12
	PXOR    X13, X13 // OR of the raw diagonal sums

	MOVQ       $0xfff0fffffff0ffff, CX // PMADDWD weights: even lane −1, odd lane −16
	MOVQ       CX, X14
	PUNPCKLQDQ X14, X14

	MOVQ 176(AX), BX  // bt: four bytes per iteration
	MOVQ 120(AX), CX  // dB
	MOVQ 72(AX), AX   // b: base stream (reloaded after the loop)
	ADDQ CX, AX

	XORQ CX, CX // byte index

tbloop:
	// iv = max(iUp ⊖ e, hUp ⊖ oe); X2 = −1 where the extend candidate wins or ties
	MOVOU   (R12)(CX*1), X0
	PSUBUSW X9, X0
	MOVOU   (R11)(CX*1), X1
	PSUBUSW X10, X1
	MOVOA   X0, X2
	PMAXSW  X1, X0
	PCMPEQW X0, X2

	// dv = max(dLt ⊖ e, hLt ⊖ oe); X6 likewise
	MOVOU   (R14)(CX*1), X3
	PSUBUSW X9, X3
	MOVOU   (R13)(CX*1), X4
	PSUBUSW X10, X4
	MOVOA   X3, X6
	PMAXSW  X4, X3
	PCMPEQW X3, X6

	// X2 = −(4·iExt + 8·dExt)
	PADDW X6, X6
	PADDW X6, X2
	PSLLW $2, X2

	// sub = (a == b) & (Match − Mismatch); X7 = −1 on mismatch lanes
	// (−btDiagMismatch); diag = (hDg + sub) ⊖ nm
	MOVOU   (DI)(CX*1), X8
	MOVOU   (AX)(CX*1), X7
	PCMPEQW X7, X8
	PAND    X15, X8
	PXOR    X7, X7
	PCMPEQW X8, X7
	MOVOU   (DX)(CX*1), X5
	PADDW   X8, X5
	POR     X5, X13
	PSUBUSW X11, X5

	// best = max(diag, iv, dv); X1 = −1 where iv > diag, X4 = −1 where
	// dv > max(diag, iv): strict, so ties keep the earlier origin
	MOVOA   X0, X1
	PCMPGTW X5, X1
	PMAXSW  X0, X5
	MOVOA   X3, X4
	PCMPGTW X5, X4
	PMAXSW  X3, X5
	PMINSW  X5, X12

	MOVOU X5, (R8)(CX*1)
	MOVOU X0, (R9)(CX*1)
	MOVOU X3, (R10)(CX*1)

	// X7 = −origin: −2 from I, −3 from D, else the mismatch mask
	PADDW  X1, X1
	PMINSW X1, X7
	MOVOA  X4, X6
	PADDW  X4, X4
	PMINSW X4, X7
	PADDW  X6, X7
	PADDW  X7, X2

	// eight negated nibbles → four bytes
	PMADDWL  X14, X2
	PACKSSLW X2, X2
	PACKUSWB X2, X2
	MOVL     X2, (BX)

	ADDQ $4, BX
	ADDQ $16, CX
	DECQ SI
	JNZ  tbloop

	// sticky = (OR of sums) & nH  |  gb ⊖ min(H outputs)
	MOVQ       a+0(FP), AX
	MOVQ       168(AX), X0
	PUNPCKLQDQ X0, X0
	PAND       X0, X13
	MOVQ       152(AX), X1
	PUNPCKLQDQ X1, X1
	PSUBUSW    X12, X1
	POR        X1, X13

	MOVQ  X13, BX
	PSRLO $8, X13
	MOVQ  X13, AX
	ORQ   BX, AX
	MOVQ  AX, ret+8(FP)
	RET

#include "textflag.h"

// func addVec(dst, src *uint64, n int) int
TEXT ·addVec(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

blocks8:
	// Words AX..AX+7, all loaded before any is stored.
	LEAQ  8(AX), DX
	CMPQ  DX, CX
	JGT   blocks2
	MOVOU (SI)(AX*8), X0
	MOVOU 16(SI)(AX*8), X1
	MOVOU 32(SI)(AX*8), X2
	MOVOU 48(SI)(AX*8), X3
	MOVOU (DI)(AX*8), X4
	MOVOU 16(DI)(AX*8), X5
	MOVOU 32(DI)(AX*8), X6
	MOVOU 48(DI)(AX*8), X7
	PADDQ X4, X0
	PADDQ X5, X1
	PADDQ X6, X2
	PADDQ X7, X3
	MOVOU X0, (DI)(AX*8)
	MOVOU X1, 16(DI)(AX*8)
	MOVOU X2, 32(DI)(AX*8)
	MOVOU X3, 48(DI)(AX*8)
	MOVQ  DX, AX
	JMP   blocks8

blocks2:
	LEAQ  2(AX), DX
	CMPQ  DX, CX
	JGT   done
	MOVOU (SI)(AX*8), X0
	MOVOU (DI)(AX*8), X1
	PADDQ X1, X0
	MOVOU X0, (DI)(AX*8)
	MOVQ  DX, AX
	JMP   blocks2

done:
	MOVQ AX, ret+24(FP)
	RET

// func missRun(h *uint64, n int, t uint64) int
TEXT ·missRun(SB), NOSPLIT, $0-32
	MOVQ       h+0(FP), SI
	MOVQ       n+8(FP), CX
	MOVQ       t+16(FP), X9
	PUNPCKLQDQ X9, X9      // t, t
	MOVQ       $512, AX
	MOVQ       AX, X10
	PUNPCKLQDQ X10, X10    // 512, 512
	PCMPEQL    X8, X8
	PSRLQ      $1, X8      // mask63, mask63
	XORQ       AX, AX

block:
	// k = x & mask63 misses when neither k−t nor k+512 has its top bit
	// set: the sign bits of the OR of all eight words decide the block.
	LEAQ     8(AX), DX
	CMPQ     DX, CX
	JGT      done
	MOVOU    (SI)(AX*8), X0
	MOVOU    16(SI)(AX*8), X1
	MOVOU    32(SI)(AX*8), X2
	MOVOU    48(SI)(AX*8), X3
	PAND     X8, X0
	PAND     X8, X1
	PAND     X8, X2
	PAND     X8, X3
	MOVO     X0, X4
	MOVO     X1, X5
	MOVO     X2, X6
	MOVO     X3, X7
	PSUBQ    X9, X4
	PSUBQ    X9, X5
	PSUBQ    X9, X6
	PSUBQ    X9, X7
	PADDQ    X10, X0
	PADDQ    X10, X1
	PADDQ    X10, X2
	PADDQ    X10, X3
	POR      X4, X0
	POR      X5, X1
	POR      X6, X2
	POR      X7, X3
	POR      X1, X0
	POR      X3, X2
	POR      X2, X0
	MOVMSKPD X0, BX
	TESTL    BX, BX
	JNZ      done
	MOVQ     DX, AX
	JMP      block

done:
	MOVQ AX, ret+24(FP)
	RET

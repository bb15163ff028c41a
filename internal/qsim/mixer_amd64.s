#include "textflag.h"

// func mixedPairSSE2(amp []complex128, klo, khi, lm, hm, da, db int, ma, mb mixedMatrix)
//
// Registers in the loop: SI amp, R8 k, R9 khi, R10 lm, R14 hm&^lm,
// R11 ^hm, R12/R13 the flip masks da/db as byte offsets (×16). X8–X11 hold
// gate A as (m00, m00), (m11, m11), (−m01i, m01i), (−m10i, m10i); X12–X15
// hold gate B the same way. X0–X3 are the group's four amplitudes, X4–X7
// their swapped copies.
TEXT ·mixedPairSSE2(SB), NOSPLIT, $0-136
	MOVQ amp_base+0(FP), SI
	MOVQ klo+24(FP), R8
	MOVQ khi+32(FP), R9
	CMPQ R8, R9
	JGE  done
	MOVQ lm+40(FP), R10
	MOVQ hm+48(FP), R11
	MOVQ da+56(FP), R12
	MOVQ db+64(FP), R13
	SHLQ $4, R12
	SHLQ $4, R13
	MOVQ R10, R14
	NOTQ R14
	ANDQ R11, R14
	NOTQ R11

	// X7 = sign bits, for the exact negations below.
	PCMPEQL X7, X7
	PSLLQ   $63, X7

	MOVSD    ma_m00+72(FP), X8
	UNPCKLPD X8, X8
	MOVSD    ma_m11+96(FP), X9
	UNPCKLPD X9, X9
	MOVSD    ma_m01i+80(FP), X4
	MOVAPD   X4, X10
	XORPD    X7, X10
	UNPCKLPD X4, X10
	MOVSD    ma_m10i+88(FP), X4
	MOVAPD   X4, X11
	XORPD    X7, X11
	UNPCKLPD X4, X11

	MOVSD    mb_m00+104(FP), X12
	UNPCKLPD X12, X12
	MOVSD    mb_m11+128(FP), X13
	UNPCKLPD X13, X13
	MOVSD    mb_m01i+112(FP), X4
	MOVAPD   X4, X14
	XORPD    X7, X14
	UNPCKLPD X4, X14
	MOVSD    mb_m10i+120(FP), X4
	MOVAPD   X4, X15
	XORPD    X7, X15
	UNPCKLPD X4, X15

loop:
	// AX = base2(k, lm, hm) as a byte offset; BX, CX, DX = its da, db and
	// da^db partners.
	MOVQ R8, AX
	ANDQ R10, AX
	MOVQ R8, BX
	ANDQ R14, BX
	SHLQ $1, BX
	ORQ  BX, AX
	MOVQ R8, BX
	ANDQ R11, BX
	SHLQ $2, BX
	ORQ  BX, AX
	SHLQ $4, AX
	MOVQ AX, BX
	XORQ R12, BX
	MOVQ AX, CX
	XORQ R13, CX
	MOVQ BX, DX
	XORQ R13, DX

	MOVUPD (SI)(AX*1), X0
	MOVUPD (SI)(BX*1), X1
	MOVUPD (SI)(CX*1), X2
	MOVUPD (SI)(DX*1), X3

	// Gate A on the da-pairs (X0, X1) and (X2, X3).
	PSHUFD $0x4e, X1, X4
	PSHUFD $0x4e, X0, X5
	PSHUFD $0x4e, X3, X6
	PSHUFD $0x4e, X2, X7
	MULPD  X8, X0
	MULPD  X10, X4
	MULPD  X9, X1
	MULPD  X11, X5
	ADDPD  X4, X0
	ADDPD  X5, X1
	MULPD  X8, X2
	MULPD  X10, X6
	MULPD  X9, X3
	MULPD  X11, X7
	ADDPD  X6, X2
	ADDPD  X7, X3

	// Gate B on the db-pairs (X0, X2) and (X1, X3).
	PSHUFD $0x4e, X2, X4
	PSHUFD $0x4e, X0, X5
	PSHUFD $0x4e, X3, X6
	PSHUFD $0x4e, X1, X7
	MULPD  X12, X0
	MULPD  X14, X4
	MULPD  X13, X2
	MULPD  X15, X5
	ADDPD  X4, X0
	ADDPD  X5, X2
	MULPD  X12, X1
	MULPD  X14, X6
	MULPD  X13, X3
	MULPD  X15, X7
	ADDPD  X6, X1
	ADDPD  X7, X3

	MOVUPD X0, (SI)(AX*1)
	MOVUPD X1, (SI)(BX*1)
	MOVUPD X2, (SI)(CX*1)
	MOVUPD X3, (SI)(DX*1)

	INCQ R8
	CMPQ R8, R9
	JLT  loop

done:
	RET

#include "textflag.h"

// TERM4(xi, off, step) adds xi times the matrix pairs at byte offsets off,
// off+step, off+2·step and off+3·step of DI to the accumulators X8–X11, one
// MULPD and one ADDPD each, through the scratch registers X12–X15.
#define TERM4(xi, off, step) \
	MOVUPD (off)(DI), X12; MULPD xi, X12; ADDPD X12, X8; \
	MOVUPD (off+step)(DI), X13; MULPD xi, X13; ADDPD X13, X9; \
	MOVUPD (off+2*step)(DI), X14; MULPD xi, X14; ADDPD X14, X10; \
	MOVUPD (off+3*step)(DI), X15; MULPD xi, X15; ADDPD X15, X11

// SUM4(base, istep, ostep) sets X8–X11 to four outputs: each starts at +0
// and adds the terms of X0, X1, ..., X7 in that order, the pairs of term i
// of output k at base + i·istep + k·ostep.
#define SUM4(base, istep, ostep) \
	XORPD X8, X8; XORPD X9, X9; XORPD X10, X10; XORPD X11, X11; \
	TERM4(X0, base, ostep); \
	TERM4(X1, base+istep, ostep); \
	TERM4(X2, base+2*istep, ostep); \
	TERM4(X3, base+3*istep, ostep); \
	TERM4(X4, base+4*istep, ostep); \
	TERM4(X5, base+5*istep, ostep); \
	TERM4(X6, base+6*istep, ostep); \
	TERM4(X7, base+7*istep, ostep)

// JZERO(label) jumps to label if both lanes of X8 are zero once their sign
// bits are shifted out, i.e. if every float ORed into X8 is ±0. It leaves
// +0 in X9.
#define JZERO(label) \
	PSLLQ $1, X8; \
	PXOR X9, X9; \
	PCMPEQB X9, X8; \
	PMOVMSKB X8, AX; \
	CMPL AX, $0xffff; \
	JEQ label

// func cols8SSE2(x *float64, pairs *[128]float64, stride, w int)
//
// Registers: SI row 0 and R9 row 4 of the current column pair, DX the
// stride and R8 three strides in bytes, DI the (v, v) pairs of the matrix,
// (o, i) at byte (8o+i)·16, CX the pairs left. X0–X7 hold rows 0–7 of the
// column pair.
TEXT ·cols8SSE2(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ pairs+8(FP), DI
	MOVQ stride+16(FP), DX
	MOVQ w+24(FP), CX
	TESTQ CX, CX
	JLE  done
	SHLQ $3, DX
	LEAQ (DX)(DX*2), R8
	LEAQ (SI)(DX*4), R9

loop:
	MOVUPD (SI), X0
	MOVUPD (SI)(DX*1), X1
	MOVUPD (SI)(DX*2), X2
	MOVUPD (SI)(R8*1), X3
	MOVUPD (R9), X4
	MOVUPD (R9)(DX*1), X5
	MOVUPD (R9)(DX*2), X6
	MOVUPD (R9)(R8*1), X7

	MOVAPD X0, X8
	ORPD   X1, X8
	ORPD   X2, X8
	ORPD   X3, X8
	ORPD   X4, X8
	ORPD   X5, X8
	ORPD   X6, X8
	ORPD   X7, X8
	JZERO(zero)

	// Outputs 0–3, then 4–7: every input is already in X0–X7, so the
	// columns transform in place.
	SUM4(0, 16, 128)
	MOVUPD X8, (SI)
	MOVUPD X9, (SI)(DX*1)
	MOVUPD X10, (SI)(DX*2)
	MOVUPD X11, (SI)(R8*1)
	SUM4(512, 16, 128)
	MOVUPD X8, (R9)
	MOVUPD X9, (R9)(DX*1)
	MOVUPD X10, (R9)(DX*2)
	MOVUPD X11, (R9)(R8*1)
	JMP    next

zero:
	MOVUPD X9, (SI)
	MOVUPD X9, (SI)(DX*1)
	MOVUPD X9, (SI)(DX*2)
	MOVUPD X9, (SI)(R8*1)
	MOVUPD X9, (R9)
	MOVUPD X9, (R9)(DX*1)
	MOVUPD X9, (R9)(DX*2)
	MOVUPD X9, (R9)(R8*1)

next:
	ADDQ $16, SI
	ADDQ $16, R9
	DECQ CX
	JNZ  loop

done:
	RET

// func vec8SSE2(dst, x *float64, mT *[64]float64, lines int)
//
// Registers: SI the current input line and BX its output line, CX the lines
// left, DI mT, whose row i holds term i of every output, so the pair for
// outputs (2k, 2k+1) is at byte 64i + 16k. X0–X7 hold x_0..x_7 of the line,
// each in both lanes.
TEXT ·vec8SSE2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), BX
	MOVQ x+8(FP), SI
	MOVQ mT+16(FP), DI
	MOVQ lines+24(FP), CX
	TESTQ CX, CX
	JLE  done

loop:
	MOVUPD (SI), X0
	MOVUPD 16(SI), X2
	MOVUPD 32(SI), X4
	MOVUPD 48(SI), X6

	MOVAPD X0, X8
	ORPD   X2, X8
	ORPD   X4, X8
	ORPD   X6, X8
	JZERO(zero)

	PSHUFD $0xee, X6, X7
	PSHUFD $0x44, X6, X6
	PSHUFD $0xee, X4, X5
	PSHUFD $0x44, X4, X4
	PSHUFD $0xee, X2, X3
	PSHUFD $0x44, X2, X2
	PSHUFD $0xee, X0, X1
	PSHUFD $0x44, X0, X0
	SUM4(0, 64, 16)
	MOVUPD X8, (BX)
	MOVUPD X9, 16(BX)
	MOVUPD X10, 32(BX)
	MOVUPD X11, 48(BX)
	JMP    next

zero:
	MOVUPD X9, (BX)
	MOVUPD X9, 16(BX)
	MOVUPD X9, 32(BX)
	MOVUPD X9, 48(BX)

next:
	ADDQ $64, SI
	ADDQ $64, BX
	DECQ CX
	JNZ  loop

done:
	RET

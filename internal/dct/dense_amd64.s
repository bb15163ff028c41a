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

// The dense-axis kernels below vectorise matColsGo and matVecNZGo across
// outputs: each vector lane holds one output, starts at +0 and adds its
// terms one VMULPD and one VADDPD at a time, in ascending term order, with
// no FMA. Every output is computed whole by one lane, so a row block or a
// column vector that overlaps one already written recomputes the same
// outputs from the same inputs and stores the same bits.

// COLTERM512(a, p, acc) adds the input vector Z8 times the matrix entry at
// a to the accumulator acc through the product register p; COLTERM256 does
// the same with Y8.
#define COLTERM512(a, p, acc) \
	VMULPD.BCST a, Z8, p; \
	VADDPD      p, acc, acc

#define COLTERM256(a, p, acc) \
	VBROADCASTSD a, p; \
	VMULPD       Y8, p, p; \
	VADDPD       p, acc, acc

// LOWBITS(t) sets AX to a mask of the low min(CX, 64) bits, for CX >= 0.
// It clobbers t. An opmask loaded from AX with KMOVW then enables lanes
// 0..min(CX, 8)-1 of an 8-lane operation, which reads only its low 8 bits.
#define LOWBITS(t) \
	MOVQ    $1, AX; \
	SHLQ    CX, AX; \
	DECQ    AX; \
	MOVQ    $-1, t; \
	CMPQ    CX, $64; \
	CMOVQGE t, AX

// NEXTROWS moves AX to the next row block, o+8, or n-8 if fewer than 8 rows
// are left, and jumps to rows; past the last block it jumps to nextcol.
#define NEXTROWS \
	ADDQ $8, AX; \
	CMPQ AX, R12; \
	JGE  nextcol; \
	LEAQ -8(R12), CX; \
	CMPQ AX, CX; \
	JLE  rows; \
	MOVQ CX, AX; \
	JMP  rows

// func colsAVX512(x, m, tmp *float64, n, stride, w int)
//
// Sets rows 0..n-1 (stride floats apart) of the w columns starting at x to
// the n×n row-major matrix m applied to each column's input, which tmp
// holds as n rows of w floats. It runs 8 columns (one ZMM register, the last
// masked by K1) by 8 output rows at a time; the last row block is rows
// n-8..n-1, so it may overlap the block before it.
//
// Registers: R8 x, R10 m, R11 tmp, R12 n, R13 the stride and R15 w in
// bytes, DX one matrix row (8n bytes) and R9 three, BX the column vector's
// byte offset, AX the first row of the block, SI and DI matrix rows o and
// o+4 at term i, R14 the input vector of term i, CX the terms left.
//
// It does no bounds checks: the caller must guarantee n >= 8, w >= 1, n×n
// floats at m, n·w at tmp, and n rows of w columns at x.
TEXT ·colsAVX512(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), R8
	MOVQ m+8(FP), R10
	MOVQ tmp+16(FP), R11
	MOVQ n+24(FP), R12
	MOVQ stride+32(FP), R13
	MOVQ w+40(FP), R15
	SHLQ $3, R13
	SHLQ $3, R15
	MOVQ R12, DX
	SHLQ $3, DX
	LEAQ (DX)(DX*2), R9
	XORQ BX, BX

cols:
	// K1 enables the lanes of the columns left, up to 8.
	MOVQ  R15, CX
	SUBQ  BX, CX
	SHRQ  $3, CX
	LOWBITS(SI)
	KMOVW AX, K1
	XORQ  AX, AX

rows:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ   AX, SI
	IMULQ  DX, SI
	ADDQ   R10, SI
	LEAQ   (SI)(DX*4), DI
	LEAQ   (R11)(BX*1), R14
	MOVQ   R12, CX

terms:
	VMOVUPD.Z (R14), K1, Z8
	COLTERM512((SI), Z9, Z0)
	COLTERM512((SI)(DX*1), Z10, Z1)
	COLTERM512((SI)(DX*2), Z11, Z2)
	COLTERM512((SI)(R9*1), Z12, Z3)
	COLTERM512((DI), Z13, Z4)
	COLTERM512((DI)(DX*1), Z14, Z5)
	COLTERM512((DI)(DX*2), Z15, Z6)
	COLTERM512((DI)(R9*1), Z16, Z7)
	ADDQ      $8, SI
	ADDQ      $8, DI
	ADDQ      R15, R14
	DECQ      CX
	JNZ       terms

	// Store rows o..o+7 of the column vector.
	MOVQ    AX, CX
	IMULQ   R13, CX
	ADDQ    R8, CX
	ADDQ    BX, CX
	VMOVUPD Z0, K1, (CX)
	ADDQ    R13, CX
	VMOVUPD Z1, K1, (CX)
	ADDQ    R13, CX
	VMOVUPD Z2, K1, (CX)
	ADDQ    R13, CX
	VMOVUPD Z3, K1, (CX)
	ADDQ    R13, CX
	VMOVUPD Z4, K1, (CX)
	ADDQ    R13, CX
	VMOVUPD Z5, K1, (CX)
	ADDQ    R13, CX
	VMOVUPD Z6, K1, (CX)
	ADDQ    R13, CX
	VMOVUPD Z7, K1, (CX)

	NEXTROWS

nextcol:
	ADDQ $64, BX
	CMPQ BX, R15
	JLT  cols
	VZEROUPPER
	RET

// func colsAVX(x, m, tmp *float64, n, stride, w int)
//
// colsAVX512 in YMM registers: 4 columns by 8 output rows at a time, with no
// masks. The last column vector is columns w-4..w-1 and the last row block
// rows n-8..n-1, so either may overlap the one before it. Registers as in
// colsAVX512.
//
// It does no bounds checks: the caller must guarantee n >= 8, w >= 4, n×n
// floats at m, n·w at tmp, and n rows of w columns at x.
TEXT ·colsAVX(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), R8
	MOVQ m+8(FP), R10
	MOVQ tmp+16(FP), R11
	MOVQ n+24(FP), R12
	MOVQ stride+32(FP), R13
	MOVQ w+40(FP), R15
	SHLQ $3, R13
	SHLQ $3, R15
	MOVQ R12, DX
	SHLQ $3, DX
	LEAQ (DX)(DX*2), R9
	XORQ BX, BX

cols:
	XORQ AX, AX

rows:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   AX, SI
	IMULQ  DX, SI
	ADDQ   R10, SI
	LEAQ   (SI)(DX*4), DI
	LEAQ   (R11)(BX*1), R14
	MOVQ   R12, CX

terms:
	VMOVUPD (R14), Y8
	COLTERM256((SI), Y9, Y0)
	COLTERM256((SI)(DX*1), Y10, Y1)
	COLTERM256((SI)(DX*2), Y11, Y2)
	COLTERM256((SI)(R9*1), Y12, Y3)
	COLTERM256((DI), Y13, Y4)
	COLTERM256((DI)(DX*1), Y14, Y5)
	COLTERM256((DI)(DX*2), Y15, Y6)
	COLTERM256((DI)(R9*1), Y9, Y7)
	ADDQ    $8, SI
	ADDQ    $8, DI
	ADDQ    R15, R14
	DECQ    CX
	JNZ     terms

	MOVQ    AX, CX
	IMULQ   R13, CX
	ADDQ    R8, CX
	ADDQ    BX, CX
	VMOVUPD Y0, (CX)
	ADDQ    R13, CX
	VMOVUPD Y1, (CX)
	ADDQ    R13, CX
	VMOVUPD Y2, (CX)
	ADDQ    R13, CX
	VMOVUPD Y3, (CX)
	ADDQ    R13, CX
	VMOVUPD Y4, (CX)
	ADDQ    R13, CX
	VMOVUPD Y5, (CX)
	ADDQ    R13, CX
	VMOVUPD Y6, (CX)
	ADDQ    R13, CX
	VMOVUPD Y7, (CX)

	NEXTROWS

nextcol:
	// Next column vector: column+4, or w-4 if fewer than 4 are left.
	ADDQ $32, BX
	CMPQ BX, R15
	JGE  done
	LEAQ -32(R15), CX
	CMPQ BX, CX
	JLE  cols
	MOVQ CX, BX
	JMP  cols

done:
	VZEROUPPER
	RET

// NZTERM512(off, k, p, acc) adds the mT row segment at byte off of AX,
// masked by k, times the term value Z8 to acc through p.
#define NZTERM512(off, k, p, acc) \
	VMOVUPD.Z off(AX), k, p; \
	VMULPD    Z8, p, p; \
	VADDPD    p, acc, acc

#define NZTERM256(off, p, acc) \
	VMOVUPD off(AX), p; \
	VMULPD  Y8, p, p; \
	VADDPD  p, acc, acc

// func vecNZAVX512(dst, mT *float64, pos *int, val *float64, n, terms int)
//
// Sets dst[o], o < n, to the sum over t < terms, ascending from +0, of
// mT[pos[t]·n + o]·val[t]. It runs 56 outputs (seven ZMM registers, masked
// by K1–K7) per pass over the terms.
//
// Registers: R8 dst, R10 mT, R11 pos, R12 val, R13 n, R14 terms, DX one mT
// row (8n bytes), R15 the block's first output, SI and DI the term's
// position and value, CX the terms left, AX the term's row segment.
//
// It does no bounds checks: the caller must guarantee n floats at dst, n×n
// at mT, terms entries at pos and val, and every position below n.
TEXT ·vecNZAVX512(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), R8
	MOVQ mT+8(FP), R10
	MOVQ pos+16(FP), R11
	MOVQ val+24(FP), R12
	MOVQ n+32(FP), R13
	MOVQ terms+40(FP), R14
	MOVQ R13, DX
	SHLQ $3, DX
	XORQ R15, R15

block:
	// K1–K7 enable the lanes of the outputs left, 8 per register: Kk
	// takes bits 8(k-1) to 8k-1 of AX.
	MOVQ   R13, CX
	SUBQ   R15, CX
	LOWBITS(SI)
	KMOVW  AX, K1
	SHRQ   $8, AX
	KMOVW  AX, K2
	SHRQ   $8, AX
	KMOVW  AX, K3
	SHRQ   $8, AX
	KMOVW  AX, K4
	SHRQ   $8, AX
	KMOVW  AX, K5
	SHRQ   $8, AX
	KMOVW  AX, K6
	SHRQ   $8, AX
	KMOVW  AX, K7
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	MOVQ   R11, SI
	MOVQ   R12, DI
	MOVQ   R14, CX
	TESTQ  CX, CX
	JZ     store

terms:
	MOVQ         (SI), AX
	IMULQ        DX, AX
	ADDQ         R10, AX
	LEAQ         (AX)(R15*8), AX
	VBROADCASTSD (DI), Z8
	NZTERM512(0, K1, Z9, Z0)
	NZTERM512(64, K2, Z10, Z1)
	NZTERM512(128, K3, Z11, Z2)
	NZTERM512(192, K4, Z12, Z3)
	NZTERM512(256, K5, Z13, Z4)
	NZTERM512(320, K6, Z14, Z5)
	NZTERM512(384, K7, Z15, Z6)
	ADDQ         $8, SI
	ADDQ         $8, DI
	DECQ         CX
	JNZ          terms

store:
	LEAQ    (R8)(R15*8), AX
	VMOVUPD Z0, K1, (AX)
	VMOVUPD Z1, K2, 64(AX)
	VMOVUPD Z2, K3, 128(AX)
	VMOVUPD Z3, K4, 192(AX)
	VMOVUPD Z4, K5, 256(AX)
	VMOVUPD Z5, K6, 320(AX)
	VMOVUPD Z6, K7, 384(AX)
	ADDQ    $56, R15
	CMPQ    R15, R13
	JLT     block
	VZEROUPPER
	RET

// func vecNZAVX(dst, mT *float64, pos *int, val *float64, n, terms int)
//
// vecNZAVX512 in YMM registers: 16 outputs (four YMM registers) per pass
// over the terms, with no masks. The last block is outputs n-16..n-1, so it
// may overlap the block before it. Registers as in vecNZAVX512.
//
// It does no bounds checks: the caller must guarantee n >= 16, n floats at
// dst, n×n at mT, terms entries at pos and val, and every position below n.
TEXT ·vecNZAVX(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), R8
	MOVQ mT+8(FP), R10
	MOVQ pos+16(FP), R11
	MOVQ val+24(FP), R12
	MOVQ n+32(FP), R13
	MOVQ terms+40(FP), R14
	MOVQ R13, DX
	SHLQ $3, DX
	XORQ R15, R15

block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   R11, SI
	MOVQ   R12, DI
	MOVQ   R14, CX
	TESTQ  CX, CX
	JZ     store

terms:
	MOVQ         (SI), AX
	IMULQ        DX, AX
	ADDQ         R10, AX
	LEAQ         (AX)(R15*8), AX
	VBROADCASTSD (DI), Y8
	NZTERM256(0, Y9, Y0)
	NZTERM256(32, Y10, Y1)
	NZTERM256(64, Y11, Y2)
	NZTERM256(96, Y12, Y3)
	ADDQ         $8, SI
	ADDQ         $8, DI
	DECQ         CX
	JNZ          terms

store:
	LEAQ    (R8)(R15*8), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)

	// Next block: output+16, or n-16 if fewer than 16 are left.
	ADDQ $16, R15
	CMPQ R15, R13
	JGE  done
	LEAQ -16(R13), CX
	CMPQ R15, CX
	JLE  block
	MOVQ CX, R15
	JMP  block

done:
	VZEROUPPER
	RET

#include "textflag.h"

// BASE sets AX to base2(R8, lm, hm) as a byte offset.
#define BASE \
	MOVQ R8, AX; \
	ANDQ R10, AX; \
	MOVQ R8, BX; \
	ANDQ R14, BX; \
	SHLQ $1, BX; \
	ORQ  BX, AX; \
	MOVQ R8, BX; \
	ANDQ R11, BX; \
	SHLQ $2, BX; \
	ORQ  BX, AX; \
	SHLQ $4, AX

// PARTNERS sets BX, CX, DX to AX's partners across the flip masks R12, R13
// and R12^R13.
#define PARTNERS \
	MOVQ AX, BX; \
	XORQ R12, BX; \
	MOVQ AX, CX; \
	XORQ R13, CX; \
	MOVQ BX, DX; \
	XORQ R13, DX

// NEXT2 advances AX from base2(k) to base2(k+2), given the two pivot bits
// as byte offsets in R9: setting the pivots lets the carry of +2 run
// through them, and clearing them again leaves the next index with both
// pivots clear.
#define NEXT2 \
	ORQ  R9, AX; \
	ADDQ $32, AX; \
	ORQ  R9, AX; \
	XORQ R9, AX

// GATE applies the gate held as (m00, m00), (m11, m11), (−m01i, m01i),
// (−m10i, m10i) in D0, D1, O0, O1 to the pairs (P0, P1) and (Q0, Q1), lane
// by lane, with T0–T3 as scratch. VPERMILPD $5 swaps the real and
// imaginary parts in every 128-bit lane.
#define GATE(D0, D1, O0, O1, P0, P1, Q0, Q1, T0, T1, T2, T3) \
	VPERMILPD $5, P1, T0; \
	VPERMILPD $5, P0, T1; \
	VPERMILPD $5, Q1, T2; \
	VPERMILPD $5, Q0, T3; \
	VMULPD    D0, P0, P0; \
	VMULPD    O0, T0, T0; \
	VMULPD    D1, P1, P1; \
	VMULPD    O1, T1, T1; \
	VADDPD    T0, P0, P0; \
	VADDPD    T1, P1, P1; \
	VMULPD    D0, Q0, Q0; \
	VMULPD    O0, T2, T2; \
	VMULPD    D1, Q1, Q1; \
	VMULPD    O1, T3, T3; \
	VADDPD    T2, Q0, Q0; \
	VADDPD    T3, Q1, Q1

// GATES applies gate A (A0–A3) to the da-pairs (V0, V1), (V2, V3), then
// gate B (B0–B3) to the db-pairs (V0, V2), (V1, V3).
#define GATES(V0, V1, V2, V3, T0, T1, T2, T3, A0, A1, A2, A3, B0, B1, B2, B3) \
	GATE(A0, A1, A2, A3, V0, V1, V2, V3, T0, T1, T2, T3); \
	GATE(B0, B1, B2, B3, V0, V2, V1, V3, T0, T1, T2, T3)

// LOAD and STORE move the four members of one group (X) or two adjacent
// groups (Y) between the offsets AX–DX and registers 0–3.
#define LOAD(V0, V1, V2, V3) \
	VMOVUPD (SI)(AX*1), V0; \
	VMOVUPD (SI)(BX*1), V1; \
	VMOVUPD (SI)(CX*1), V2; \
	VMOVUPD (SI)(DX*1), V3

#define STORE(V0, V1, V2, V3) \
	VMOVUPD V0, (SI)(AX*1); \
	VMOVUPD V1, (SI)(BX*1); \
	VMOVUPD V2, (SI)(CX*1); \
	VMOVUPD V3, (SI)(DX*1)

// ONE runs the group at R8 in the low 128-bit lanes.
#define ONE \
	BASE; \
	PARTNERS; \
	LOAD(X0, X1, X2, X3); \
	GATES(X0, X1, X2, X3, X4, X5, X6, X7, X8, X9, X10, X11, X12, X13, X14, X15); \
	STORE(X0, X1, X2, X3)

// TWO runs the groups at R8 and R8+1 in the low and high lanes; SWAP1 and
// SWAP2 name the members whose 32 bytes hold the two groups the other way
// round (VPERM2F128 $1 swaps the lanes). Y0 never needs it.
#define TWO(SWAP1, SWAP2) \
	PARTNERS; \
	LOAD(Y0, Y1, Y2, Y3); \
	VPERM2F128 $1, SWAP1, SWAP1, SWAP1; \
	VPERM2F128 $1, SWAP2, SWAP2, SWAP2; \
	GATES(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15); \
	VPERM2F128 $1, SWAP1, SWAP1, SWAP1; \
	VPERM2F128 $1, SWAP2, SWAP2, SWAP2; \
	STORE(Y0, Y1, Y2, Y3)

// BROADCAST_PAIR sets full to (−v, v, −v, v) for the float64 v at src,
// where lo is full's low half; X7 must hold the sign bit in both lanes.
#define BROADCAST_PAIR(src, lo, full) \
	VMOVSD      src, X4; \
	VXORPD      X7, X4, X5; \
	VUNPCKLPD   X4, X5, lo; \
	VINSERTF128 $1, lo, full, full

// func mixedPairAVX(amp []complex128, klo, khi, lm, hm, da, db int, ma, mb mixedMatrix)
//
// Registers: SI amp, R8 k, R9 khi (the pivot bits in the pair loops),
// DI khi−1, R10 lm, R14 hm&^lm, R11 ^hm, R12/R13 the flip masks da/db as
// byte offsets (×16). Y8–Y11 hold gate A as (m00, m00), (m11, m11),
// (−m01i, m01i), (−m10i, m10i) in both lanes; Y12–Y15 hold gate B the same
// way.
//
// With lm >= 1 the pivots sit at bit 1 or higher, so for even k group k+1
// is group k with bit 0 set: every member of the pair (k, k+1) is 32
// contiguous bytes starting at the member's index with bit 0 cleared, and
// holds group k first unless the member's flip mask is odd (the half
// state's complement mask), which reverses the two. The loop runs pairs
// with the masks' bit 0 cleared, swapping the lanes of the reversed
// members; lm == 0, both masks odd, an odd head and an odd tail run one
// group at a time.
TEXT ·mixedPairAVX(SB), NOSPLIT, $0-136
	MOVQ amp_base+0(FP), SI
	MOVQ klo+24(FP), R8
	MOVQ khi+32(FP), R9
	CMPQ R8, R9
	JGE  exit
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
	LEAQ -1(R9), DI

	// X7 = sign bits, for the exact negations in BROADCAST_PAIR.
	VPCMPEQQ X7, X7, X7
	VPSLLQ   $63, X7, X7

	VBROADCASTSD ma_m00+72(FP), Y8
	VBROADCASTSD ma_m11+96(FP), Y9
	BROADCAST_PAIR(ma_m01i+80(FP), X10, Y10)
	BROADCAST_PAIR(ma_m10i+88(FP), X11, Y11)
	VBROADCASTSD mb_m00+104(FP), Y12
	VBROADCASTSD mb_m11+128(FP), Y13
	BROADCAST_PAIR(mb_m01i+112(FP), X14, Y14)
	BROADCAST_PAIR(mb_m10i+120(FP), X15, Y15)

	TESTQ $1, R10
	JZ    single
	MOVQ  R12, AX
	ANDQ  R13, AX
	TESTQ $16, AX
	JNZ   single
	TESTQ $1, R8
	JZ    pairs
	ONE
	INCQ  R8

pairs:
	CMPQ  R8, DI
	JGE   single

	// R9 = the pivot bits lm+1 and 2·(hm+1) as byte offsets; khi is DI+1.
	BASE
	MOVQ  hm+48(FP), R9
	INCQ  R9
	SHLQ  $1, R9
	LEAQ  1(R10), BX
	ORQ   BX, R9
	SHLQ  $4, R9
	TESTQ $16, R12
	JNZ   mirrorA
	TESTQ $16, R13
	JNZ   mirrorB

straight:
	PARTNERS
	LOAD(Y0, Y1, Y2, Y3)
	GATES(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, Y12, Y13, Y14, Y15)
	STORE(Y0, Y1, Y2, Y3)
	NEXT2
	ADDQ $2, R8
	CMPQ R8, DI
	JLT  straight
	JMP  restore

mirrorA:
	// da odd: members i0^da (Y1) and i0^da^db (Y3) are reversed.
	ANDQ $-17, R12

loopA:
	TWO(Y1, Y3)
	NEXT2
	ADDQ $2, R8
	CMPQ R8, DI
	JLT  loopA
	ORQ  $16, R12
	JMP  restore

mirrorB:
	// db odd: members i0^db (Y2) and i0^da^db (Y3) are reversed.
	ANDQ $-17, R13

loopB:
	TWO(Y2, Y3)
	NEXT2
	ADDQ $2, R8
	CMPQ R8, DI
	JLT  loopB
	ORQ  $16, R13

restore:
	LEAQ 1(DI), R9

single:
	CMPQ R8, R9
	JGE  done

loop1:
	ONE
	INCQ R8
	CMPQ R8, R9
	JLT  loop1

done:
	VZEROUPPER

exit:
	RET

// func hasAVX() bool
//
// CPUID leaf 1 must report AVX (ECX bit 28) and OSXSAVE (bit 27), and
// XCR0 must show the OS saves XMM and YMM state (bits 1 and 2).
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

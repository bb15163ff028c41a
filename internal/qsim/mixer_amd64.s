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

// PIVOTS sets R9 to the pivot bits lm+1 and 2·(hm+1) as byte offsets.
#define PIVOTS \
	MOVQ hm+48(FP), R9; \
	INCQ R9; \
	SHLQ $1, R9; \
	LEAQ 1(R10), BX; \
	ORQ  BX, R9; \
	SHLQ $4, R9

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
// by lane, with T0–T3 as scratch. VPERMILPD $0x55 swaps the real and
// imaginary parts in every 128-bit lane of an XMM, YMM or ZMM register.
#define GATE(D0, D1, O0, O1, P0, P1, Q0, Q1, T0, T1, T2, T3) \
	VPERMILPD $0x55, P1, T0; \
	VPERMILPD $0x55, P0, T1; \
	VPERMILPD $0x55, Q1, T2; \
	VPERMILPD $0x55, Q0, T3; \
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

// NEXT4 advances AX from base2(k) to base2(k+4) the way NEXT2 steps by 2;
// the pivots must sit at bit 2 or higher.
#define NEXT4 \
	ORQ  R9, AX; \
	ADDQ $64, AX; \
	ORQ  R9, AX; \
	XORQ R9, AX

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

// FOUR runs the groups R8 to R8+3 in the four 128-bit lanes of Z0–Z3;
// SWAP1 and SWAP2 name the members whose 64 bytes hold the four groups in
// reverse order (VSHUFF64X2 $0x1B reverses the lanes). Z0 never needs it.
#define FOUR(SWAP1, SWAP2) \
	PARTNERS; \
	LOAD(Z0, Z1, Z2, Z3); \
	VSHUFF64X2 $0x1B, SWAP1, SWAP1, SWAP1; \
	VSHUFF64X2 $0x1B, SWAP2, SWAP2, SWAP2; \
	GATES(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15); \
	VSHUFF64X2 $0x1B, SWAP1, SWAP1, SWAP1; \
	VSHUFF64X2 $0x1B, SWAP2, SWAP2, SWAP2; \
	STORE(Z0, Z1, Z2, Z3)

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

	// R9 = the pivot bits; khi is DI+1.
	BASE
	PIVOTS
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

// BROADCAST_PAIR512 sets full to (−v, v) in all four 128-bit lanes for the
// float64 v at src; X7 must hold the sign bit in both lanes.
#define BROADCAST_PAIR512(src, full) \
	VMOVSD     src, X4; \
	VXORPD     X7, X4, X5; \
	VUNPCKLPD  X4, X5, X6; \
	VSHUFF64X2 $0, Z6, Z6, full

// pairPerm holds VPERMPD indices over one group in a ZMM register: each
// member's partner across flip mask 1 with its real and imaginary parts
// swapped (qword q takes q^3), then the same across flip mask 2 (q^5).
DATA pairPerm<>+0x00(SB)/8, $3
DATA pairPerm<>+0x08(SB)/8, $2
DATA pairPerm<>+0x10(SB)/8, $1
DATA pairPerm<>+0x18(SB)/8, $0
DATA pairPerm<>+0x20(SB)/8, $7
DATA pairPerm<>+0x28(SB)/8, $6
DATA pairPerm<>+0x30(SB)/8, $5
DATA pairPerm<>+0x38(SB)/8, $4
DATA pairPerm<>+0x40(SB)/8, $5
DATA pairPerm<>+0x48(SB)/8, $4
DATA pairPerm<>+0x50(SB)/8, $7
DATA pairPerm<>+0x58(SB)/8, $6
DATA pairPerm<>+0x60(SB)/8, $1
DATA pairPerm<>+0x68(SB)/8, $0
DATA pairPerm<>+0x70(SB)/8, $3
DATA pairPerm<>+0x78(SB)/8, $2
GLOBL pairPerm<>(SB), RODATA|NOPTR, $128

// func mixedPairAVX512(amp []complex128, klo, khi, lm, hm, da, db int, ma, mb mixedMatrix)
//
// Flip masks {1, 2} (the (q0, q1) pass, lm == hm == 0) put group k in the
// 64 bytes at 4k, one member per 128-bit lane: the pass loads each group
// into one ZMM register and gets every member's partner across a mask from
// one VPERMPD over the group (pairPerm). Per-lane diagonals and
// off-diagonals, blended from the two halves of each gate under the
// opmask of the lanes whose index has the mask bit set, make each gate one
// VMULPD on the diagonal, one on the off-diagonal and one VADDPD.
//
// With lm & 3 == 3 both pivots sit at bit 2 or higher, so for k a multiple
// of 4 the groups k to k+3 lie in each member's 64 bytes starting at its
// index with bits 0 and 1 cleared: in order when the member's flip mask
// has both bits clear, reversed when it has both set (the half state's
// complement mask). Masks with low bits 0 or 3, not both 3, run four
// groups per ZMM register with mixedPairAVX's registers and arithmetic
// (Z8–Z15 hold the gates in every lane); heads and tails up to the next
// multiple of 4 run one group at a time. Every other pass tail-calls
// mixedPairAVX, which reads the same untouched frame.
TEXT ·mixedPairAVX512(SB), NOSPLIT, $0-136
	MOVQ amp_base+0(FP), SI
	MOVQ klo+24(FP), R8
	MOVQ khi+32(FP), R9
	CMPQ R8, R9
	JGE  exit
	MOVQ da+56(FP), R12
	MOVQ db+64(FP), R13
	VPCMPEQQ X7, X7, X7
	VPSLLQ   $63, X7, X7
	LEAQ (R12)(R13*1), AX
	CMPQ AX, $3
	JEQ  group
	MOVQ lm+40(FP), R10
	MOVQ R10, AX
	ANDQ $3, AX
	CMPQ AX, $3
	JNE  avx

	// Bit 4·(da&3) + db&3 of 0x1009 is set for the low bits (0, 0),
	// (0, 3) and (3, 0).
	MOVQ  R12, CX
	ANDQ  $3, CX
	SHLQ  $2, CX
	MOVQ  R13, AX
	ANDQ  $3, AX
	ORQ   AX, CX
	MOVL  $0x1009, AX
	SHRL  CX, AX
	TESTL $1, AX
	JZ    avx

	MOVQ hm+48(FP), R11
	SHLQ $4, R12
	SHLQ $4, R13
	MOVQ R10, R14
	NOTQ R14
	ANDQ R11, R14
	NOTQ R11

	VBROADCASTSD ma_m00+72(FP), Z8
	VBROADCASTSD ma_m11+96(FP), Z9
	BROADCAST_PAIR512(ma_m01i+80(FP), Z10)
	BROADCAST_PAIR512(ma_m10i+88(FP), Z11)
	VBROADCASTSD mb_m00+104(FP), Z12
	VBROADCASTSD mb_m11+128(FP), Z13
	BROADCAST_PAIR512(mb_m01i+112(FP), Z14)
	BROADCAST_PAIR512(mb_m10i+120(FP), Z15)

head:
	TESTQ $3, R8
	JZ    quads
	ONE
	INCQ  R8
	CMPQ  R8, R9
	JLT   head
	JMP   done

quads:
	// DI = khi−3, R9 = the pivot bits; khi is DI+3.
	LEAQ  -3(R9), DI
	CMPQ  R8, DI
	JGE   tail
	BASE
	PIVOTS
	TESTQ $16, R12
	JNZ   quadA
	TESTQ $16, R13
	JNZ   quadB

quadStraight:
	PARTNERS
	LOAD(Z0, Z1, Z2, Z3)
	GATES(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	STORE(Z0, Z1, Z2, Z3)
	NEXT4
	ADDQ $4, R8
	CMPQ R8, DI
	JLT  quadStraight
	JMP  quadDone

quadA:
	// da's low bits set: members i0^da (Z1) and i0^da^db (Z3) are reversed.
	ANDQ $-49, R12

loopQA:
	FOUR(Z1, Z3)
	NEXT4
	ADDQ $4, R8
	CMPQ R8, DI
	JLT  loopQA
	ORQ  $48, R12
	JMP  quadDone

quadB:
	// db's low bits set: members i0^db (Z2) and i0^da^db (Z3) are reversed.
	ANDQ $-49, R13

loopQB:
	FOUR(Z2, Z3)
	NEXT4
	ADDQ $4, R8
	CMPQ R8, DI
	JLT  loopQB
	ORQ  $48, R13

quadDone:
	LEAQ 3(DI), R9

tail:
	CMPQ R8, R9
	JGE  done
	ONE
	INCQ R8
	JMP  tail

group:
	SHLQ $6, R8
	SHLQ $6, R9

	// K1 and K2 select the qwords of the lanes with da's and db's bit set.
	MOVL    $0xCC, AX
	MOVL    $0xF0, BX
	CMPQ    R12, $1
	CMOVQNE BX, AX
	KMOVW   AX, K1
	XORL    $0x3C, AX
	KMOVW   AX, K2

	// Z16–Z19: gate A as the per-lane diagonal, off-diagonal and partner
	// indices; Z20–Z23 gate B the same way.
	VBROADCASTSD ma_m00+72(FP), Z16
	VBROADCASTSD ma_m11+96(FP), Z17
	VBLENDMPD    Z17, Z16, K1, Z16
	BROADCAST_PAIR512(ma_m01i+80(FP), Z17)
	BROADCAST_PAIR512(ma_m10i+88(FP), Z18)
	VBLENDMPD    Z18, Z17, K1, Z17
	VBROADCASTSD mb_m00+104(FP), Z20
	VBROADCASTSD mb_m11+128(FP), Z21
	VBLENDMPD    Z21, Z20, K2, Z20
	BROADCAST_PAIR512(mb_m01i+112(FP), Z21)
	BROADCAST_PAIR512(mb_m10i+120(FP), Z22)
	VBLENDMPD    Z22, Z21, K2, Z21
	LEAQ         pairPerm<>(SB), CX
	DECQ         R12
	SHLQ         $6, R12
	VMOVUPD      (CX)(R12*1), Z19
	XORQ         $64, R12
	VMOVUPD      (CX)(R12*1), Z23

loopG:
	VMOVUPD (SI)(R8*1), Z0
	VPERMPD Z0, Z19, Z1
	VMULPD  Z16, Z0, Z0
	VMULPD  Z17, Z1, Z1
	VADDPD  Z1, Z0, Z0
	VPERMPD Z0, Z23, Z1
	VMULPD  Z20, Z0, Z0
	VMULPD  Z21, Z1, Z1
	VADDPD  Z1, Z0, Z0
	VMOVUPD Z0, (SI)(R8*1)
	ADDQ    $64, R8
	CMPQ    R8, R9
	JLT     loopG

done:
	VZEROUPPER

exit:
	RET

avx:
	JMP ·mixedPairAVX(SB)

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

// func hasAVX512() bool
//
// CPUID leaf 1 must report AVX and OSXSAVE, leaf 7 AVX512F (EBX bit 16),
// and XCR0 must show the OS saves XMM, YMM, opmask and both halves of ZMM
// state (bits 1, 2, 5, 6 and 7).
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no512
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $0x10000, BX
	JZ   no512
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no512
	MOVB $1, ret+0(FP)
	RET

no512:
	MOVB $0, ret+0(FP)
	RET

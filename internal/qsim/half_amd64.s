#include "textflag.h"

// IDX4 loads idx[0..3] at SI as byte offsets into the LUT (×16) in AX, BX,
// R8 and R9.
#define IDX4 \
	MOVL 0(SI), AX; \
	MOVL 4(SI), BX; \
	MOVL 8(SI), R8; \
	MOVL 12(SI), R9; \
	SHLQ $4, AX; \
	SHLQ $4, BX; \
	SHLQ $4, R8; \
	SHLQ $4, R9

// func gatherAVX(dst []complex128, idx []uint32, in []complex128)
//
// Registers: DI dst, SI idx, DX in, CX the groups of four left. Each pair
// of LUT entries is joined in one YMM register and stored 32 bytes at a
// time.
TEXT ·gatherAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ idx_base+24(FP), SI
	MOVQ in_base+48(FP), DX
	SHRQ $2, CX
	JZ   done

loop:
	IDX4
	VMOVUPD     (DX)(AX*1), X0
	VINSERTF128 $1, (DX)(BX*1), Y0, Y0
	VMOVUPD     (DX)(R8*1), X1
	VINSERTF128 $1, (DX)(R9*1), Y1, Y1
	VMOVUPD     Y0, 0(DI)
	VMOVUPD     Y1, 32(DI)
	ADDQ        $16, SI
	ADDQ        $64, DI
	DECQ        CX
	JNZ         loop
	VZEROUPPER

done:
	RET

// SQUARES sets V to (|a|², |a|²) in every 128-bit lane, from the complex128
// amplitudes a it holds: VMULPD squares both parts, VPERMILPD $0x55 swaps
// them within each lane, and VADDPD adds the swapped copy, so each lane
// pair holds re·re + im·im (in both orders; IEEE addition commutes). T is
// scratch.
#define SQUARES(V, T) \
	VMULPD    V, V, V; \
	VPERMILPD $0x55, V, T; \
	VADDPD    T, V, V

// TERMS adds x + x, x = V·E lane by lane, to the accumulator A.
#define TERMS(V, E, A) \
	VMULPD E, V, V; \
	VADDPD V, V, V; \
	VADDPD V, A, A

// func mirroredSumsAVX(amp []complex128, table []float64) (a0, a1, a2, a3 float64)
//
// Registers: SI amp, DX table, CX the groups of four left. Each group runs
// amplitudes k, k+1 in Y0 and k+2, k+3 in Y1, against (t[k], t[k], t[k+1],
// t[k+1]) in Y2 and (t[k+2], t[k+2], t[k+3], t[k+3]) in Y3, each blended
// from two VBROADCASTSD loads (loads and a blend, which keeps the shuffle
// port for the swaps). Y4 accumulates (a0, a0, a1, a1) and Y5 (a2, a2, a3,
// a3), from +0.
TEXT ·mirroredSumsAVX(SB), NOSPLIT, $0-80
	MOVQ   amp_base+0(FP), SI
	MOVQ   amp_len+8(FP), CX
	MOVQ   table_base+24(FP), DX
	SHRQ   $2, CX
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5

loop:
	VMOVUPD      0(SI), Y0
	VMOVUPD      32(SI), Y1
	VBROADCASTSD 0(DX), Y2
	VBROADCASTSD 8(DX), Y8
	VBROADCASTSD 16(DX), Y3
	VBROADCASTSD 24(DX), Y9
	VBLENDPD     $0xC, Y8, Y2, Y2
	VBLENDPD     $0xC, Y9, Y3, Y3
	SQUARES(Y0, Y6)
	SQUARES(Y1, Y7)
	TERMS(Y0, Y2, Y4)
	TERMS(Y1, Y3, Y5)
	ADDQ         $64, SI
	ADDQ         $32, DX
	DECQ         CX
	JNZ          loop

	VMOVSD       X4, a0+48(FP)
	VEXTRACTF128 $1, Y4, X4
	VMOVSD       X4, a1+56(FP)
	VMOVSD       X5, a2+64(FP)
	VEXTRACTF128 $1, Y5, X5
	VMOVSD       X5, a3+72(FP)
	VZEROUPPER
	RET

// func mirroredSumsAVX512(amp []complex128, table []float64) (a0, a1, a2, a3 float64)
//
// mirroredSumsAVX with one group of four amplitudes per ZMM register: Z0
// holds amplitudes k..k+3 and Z1 (t[k], t[k], ..., t[k+3], t[k+3]), the
// four table entries spread by VPERMPD through the index vector dupPerm in
// Z7. Z4 accumulates (a0, a0, a1, a1, a2, a2, a3, a3), from +0.
TEXT ·mirroredSumsAVX512(SB), NOSPLIT, $0-80
	MOVQ    amp_base+0(FP), SI
	MOVQ    amp_len+8(FP), CX
	MOVQ    table_base+24(FP), DX
	SHRQ    $2, CX
	VMOVUPD dupPerm<>(SB), Z7
	VPXORQ  Z4, Z4, Z4

loop:
	VMOVUPD 0(SI), Z0
	VMOVUPD 0(DX), Y1
	VPERMPD Z1, Z7, Z1
	SQUARES(Z0, Z6)
	TERMS(Z0, Z1, Z4)
	ADDQ    $64, SI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     loop

	VEXTRACTF64X4 $1, Z4, Y5
	VMOVSD        X4, a0+48(FP)
	VEXTRACTF128  $1, Y4, X4
	VMOVSD        X4, a1+56(FP)
	VMOVSD        X5, a2+64(FP)
	VEXTRACTF128  $1, Y5, X5
	VMOVSD        X5, a3+72(FP)
	VZEROUPPER
	RET

// dupPerm is the VPERMPD index vector (0, 0, 1, 1, 2, 2, 3, 3): each of
// four float64s into two adjacent lanes.
DATA dupPerm<>+0x00(SB)/8, $0
DATA dupPerm<>+0x08(SB)/8, $0
DATA dupPerm<>+0x10(SB)/8, $1
DATA dupPerm<>+0x18(SB)/8, $1
DATA dupPerm<>+0x20(SB)/8, $2
DATA dupPerm<>+0x28(SB)/8, $2
DATA dupPerm<>+0x30(SB)/8, $3
DATA dupPerm<>+0x38(SB)/8, $3
GLOBL dupPerm<>(SB), RODATA|NOPTR, $64

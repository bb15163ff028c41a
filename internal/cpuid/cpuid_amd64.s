#include "textflag.h"

// func AVX() bool
//
// CPUID leaf 1 must report AVX (ECX bit 28) and OSXSAVE (bit 27), and
// XCR0 must show the OS saves XMM and YMM state (bits 1 and 2).
TEXT ·AVX(SB), NOSPLIT, $0-1
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

// func AVX512() bool
//
// CPUID leaf 1 must report AVX and OSXSAVE, leaf 7 AVX512F (EBX bit 16),
// and XCR0 must show the OS saves XMM, YMM, opmask and both halves of ZMM
// state (bits 1, 2, 5, 6 and 7).
TEXT ·AVX512(SB), NOSPLIT, $0-1
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

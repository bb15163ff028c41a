package qsim

import (
	"fmt"

	"repro/internal/cpuid"
)

// mixedPairAVX is mixedPairRangeGo in AVX assembly (mixer_amd64.s). It
// enumerates the same groups with the same base2 index math and runs two
// adjacent groups per YMM register where the masks allow, one complex128
// per 128-bit lane. Gate m on a pair (a0, a1) is
//
//	out0 = (m00, m00)·a0 + swap(a1)·(−m01i, m01i)
//	out1 = (m11, m11)·a1 + swap(a0)·(−m10i, m10i)
//
// in VMULPD, VADDPD and a VPERMILPD half swap, with no FMA. Two IEEE
// identities make each component bit-identical to mixedMatrix.apply:
// x − y ≡ x + (−y), and (−m)·a ≡ −(m·a). The one sum apply writes the
// other way round, m10i·a0r + m11·a1i, is commutative; only two NaN
// operands with different payloads could tell the orders apart, and the Go
// compiler is free to swap that sum's operands too.
//
// It does no bounds checks: the caller must guarantee 0 <= klo,
// 4·khi <= len(amp), a power-of-two len(amp), da, db in [1, len(amp)), and
// (lm, hm) from pairMasks.
//
//go:noescape
func mixedPairAVX(amp []complex128, klo, khi, lm, hm, da, db int, ma, mb mixedMatrix)

// mixedPairAVX512 is mixedPairAVX with ZMM registers where the masks allow
// (mixer_amd64.s), with the same per-component arithmetic and the same
// preconditions. The (q0, q1) pass, flip masks {1, 2} in either order,
// holds one whole group per register; a pass whose pivots both sit at bit
// 2 or higher holds one member of four adjacent groups per register. Every
// other pass runs mixedPairAVX.
//
//go:noescape
func mixedPairAVX512(amp []complex128, klo, khi, lm, hm, da, db int, ma, mb mixedMatrix)

// cpuKernel picks the widest kernels the CPU runs.
func cpuKernel() simKernel {
	switch {
	case cpuid.AVX512():
		return kernelAVX512
	case cpuid.AVX():
		return kernelAVX
	}
	return kernelGo
}

// kernel selects the kernels mixedPairRange, gatherLUT and mirroredSums
// run. It is set once, from the CPU; tests set it to run the other kernels
// through the public paths.
var kernel = cpuKernel()

// mixedPairRange runs the paired mixer pass over compressed indices
// [klo, khi) with the kernel that kernel selects. It checks once per call
// what the portable loop's indexing checks per amplitude: base2 never maps
// k above 4k, so every index it forms is below len(amp) when
// 4·khi <= len(amp), and XOR with a mask below a power-of-two length stays
// below it.
func (s *State) mixedPairRange(klo, khi, lm, hm, da, db int, ma, mb mixedMatrix) {
	if klo >= khi {
		return
	}
	n := len(s.amp)
	if klo < 0 || khi > n>>2 || n&(n-1) != 0 || da < 1 || da >= n || db < 1 || db >= n {
		panic(fmt.Sprintf("qsim: mixer pass over groups [%d, %d) with flip masks %#x, %#x out of range for %d amplitudes",
			klo, khi, da, db, n))
	}
	switch kernel {
	case kernelAVX512:
		mixedPairAVX512(s.amp, klo, khi, lm, hm, da, db, ma, mb)
	case kernelAVX:
		mixedPairAVX(s.amp, klo, khi, lm, hm, da, db, ma, mb)
	default:
		s.mixedPairRangeGo(klo, khi, lm, hm, da, db, ma, mb)
	}
}

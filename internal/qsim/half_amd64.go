package qsim

// gatherAVX runs gatherGo on the first len(dst)&^3 entries of dst in AVX
// assembly (half_amd64.s): per four amplitudes, two pairs of 16-byte LUT
// loads, each pair joined with VINSERTF128, and two 32-byte stores. It
// moves bits and computes nothing. AVX-512 CPUs run it too: ZMM bodies
// that joined the four entries (VINSERTF32X4, or VINSERTF128 pairs and
// VINSERTF64X4) for one 64-byte store measured no faster on the n=16 half
// state, so the pass is not bound by its register width.
//
// It does no bounds checks: the caller must guarantee len(idx) >= len(dst)
// and idx[i] < len(in) for every i below len(dst).
//
//go:noescape
func gatherAVX(dst []complex128, idx []uint32, in []complex128)

// mirroredSumsAVX runs mirroredSumsGo in AVX assembly (half_amd64.s), two
// amplitudes per YMM register: x = (re·re + im·im)·t as VMULPD, a VPERMILPD
// swap, VADDPD and VMULPD, then x + x added into the lane that holds
// accumulator k mod 4, with no FMA: the IEEE operations mirroredSumsGo
// performs, in the same order per accumulator (up to the operand order of
// re·re + im·im, which IEEE addition makes moot but for NaN payloads).
//
// It does no bounds checks: the caller must guarantee a nonzero multiple of
// 4 for len(amp) and len(table) >= len(amp).
//
//go:noescape
func mirroredSumsAVX(amp []complex128, table []float64) (a0, a1, a2, a3 float64)

// mirroredSumsAVX512 is mirroredSumsAVX with four amplitudes per ZMM
// register, with the same preconditions.
//
//go:noescape
func mirroredSumsAVX512(amp []complex128, table []float64) (a0, a1, a2, a3 float64)

// gatherLUT sets dst[i] = in[idx[i]] for every i below len(dst), with
// gatherAVX on the groups of four when kernel selects an assembly kernel
// and gatherGo on the up to three entries left, so any [lo, hi) cut of a
// pass is covered. The caller must guarantee idx[i] < len(in); prepare's
// tables hold one entry per value of the compression idx indexes.
func gatherLUT(dst []complex128, idx []uint32, in []complex128) {
	idx = idx[:len(dst)]
	n := 0
	if kernel != kernelGo {
		n = len(dst) &^ 3
		gatherAVX(dst, idx, in)
	}
	gatherGo(dst[n:], idx[n:], in)
}

// mirroredSums returns mirroredSumsGo's accumulators, with the kernel that
// kernel selects.
func mirroredSums(amp []complex128, table []float64) (a0, a1, a2, a3 float64) {
	table = table[:len(amp)]
	if len(amp) < 4 || len(amp)%4 != 0 {
		return mirroredSumsGo(amp, table)
	}
	switch kernel {
	case kernelAVX512:
		return mirroredSumsAVX512(amp, table)
	case kernelAVX:
		return mirroredSumsAVX(amp, table)
	}
	return mirroredSumsGo(amp, table)
}

package dct

import (
	"fmt"

	"repro/internal/cpuid"
)

// The 8-point kernels in SSE2 assembly (dense_amd64.s): MULPD and ADDPD on
// two float64 lanes, with no FMA, so the GOAMD64=v1 baseline runs them. Each
// lane starts one output at +0 and adds m[o*8+i]·x_i for i = 0..7 in
// ascending order, the IEEE operations acc8 performs, so every output is bit
// for bit matCols8's or matVec8's. (Multiplication and addition are
// commutative; only two NaN operands with different payloads could tell the
// operand orders apart, and the Go compiler is free to swap them too.)

// cols8SSE2 runs matCols8 on w column pairs: the 8 rows, stride floats
// apart, of the 2w columns starting at x. pairs is the matrix as (v, v)
// pairs (Plan.matPairs). A pair whose 16 inputs are all ±0 is written as +0
// without a multiply; a pair with one all-zero column is computed in full,
// and that column still comes out +0 (see the header of dense.go).
//
// It does no bounds checks: the caller must guarantee the 8 rows of all 2w
// columns lie inside x's slice.
//
//go:noescape
func cols8SSE2(x *float64, pairs *[128]float64, stride, w int)

// vec8SSE2 runs matVec8 on lines consecutive 8-float lines from x into
// dst, with the outputs taken two at a time: lane k of a register holds
// output o+k, and term i multiplies (mT[i*8+o], mT[i*8+o+1]) =
// (m[o*8+i], m[(o+1)*8+i]) by x_i in both lanes. An all-zero line is written
// as +0. Each line is read whole before its output is written, so dst and x
// may be the same lines.
//
// It does no bounds checks: the caller must guarantee 8·lines floats at
// both dst and x.
//
//go:noescape
func vec8SSE2(dst, x *float64, mT *[64]float64, lines int)

// cols8 runs matCols8 on columns [c0, c1) of the block x, with cols8SSE2 on
// the column pairs and the Go loop on an odd last column. One check per call
// covers every element the kernel touches.
func cols8(x, m, pairs []float64, stride, c0, c1 int) {
	if c0 < 0 || c0 > c1 || c1 > stride || len(x) < 7*stride+c1 || len(pairs) != 128 {
		panic(fmt.Sprintf("dct: 8-point columns [%d, %d) of stride %d out of range for %d floats", c0, c1, stride, len(x)))
	}
	if w := (c1 - c0) / 2; w > 0 {
		cols8SSE2(&x[c0], (*[128]float64)(pairs), stride, w)
	}
	if (c1-c0)%2 == 1 {
		matCols8(x, m, stride, c1-1, c1)
	}
}

// vec8 runs matVec8 on each 8-float line of x into the same line of dst,
// with vec8SSE2. It needs mT, the transpose of m, and not m.
func vec8(dst, _, mT, x []float64) {
	if len(dst) != len(x) || len(x)%8 != 0 || len(mT) != 64 {
		panic(fmt.Sprintf("dct: 8-point lines of %d floats into %d", len(x), len(dst)))
	}
	if len(x) > 0 {
		vec8SSE2(&dst[0], &x[0], (*[64]float64)(mT), len(x)/8)
	}
}

// colsAVX512 runs matColsGo's sums on the w columns starting at x, from
// their copy tmp (n rows of w floats), in AVX-512 assembly
// (dense_amd64.s): 8 columns by 8 output rows at a time, the last columns
// masked. Each lane starts one output at +0 and adds m[o*n+i]·x_i for
// i = 0..n-1 in ascending order with VMULPD and VADDPD, no FMA: the IEEE
// operations matColsGo performs, so every output is bit for bit its (up to
// the operand order of the products, as for the 8-point kernels above).
//
// It does no bounds checks: the caller must guarantee n >= 8, w >= 1, n×n
// floats at m, n·w at tmp, and n rows, stride floats apart, of w columns
// at x.
//
//go:noescape
func colsAVX512(x, m, tmp *float64, n, stride, w int)

// colsAVX is colsAVX512 in AVX (YMM) assembly: 4 columns by 8 output rows
// at a time, with the same preconditions and w >= 4. It has no masks: its
// last column vector overlaps the one before it, and recomputes those
// columns to the same bits.
//
//go:noescape
func colsAVX(x, m, tmp *float64, n, stride, w int)

// vecNZAVX512 runs matVecNZGo's sums in AVX-512 assembly: 56 outputs (seven
// ZMM registers) per pass over the terms, the last ones masked, each summed from +0 in
// ascending term order with VMULPD and VADDPD, no FMA.
//
// It does no bounds checks: the caller must guarantee n floats at dst, n×n
// at mT, terms entries at pos and val, and every position below n.
//
//go:noescape
func vecNZAVX512(dst, mT *float64, pos *int, val *float64, n, terms int)

// vecNZAVX is vecNZAVX512 in AVX (YMM) assembly: 16 outputs per pass, with
// the same preconditions and n >= 16. Its last block overlaps the one
// before it.
//
//go:noescape
func vecNZAVX(dst, mT *float64, pos *int, val *float64, n, terms int)

// denseKernel names an implementation of the dense-axis kernels matCols and
// matVecNZ.
type denseKernel uint8

const (
	denseGo     denseKernel = iota // matColsGo, matVecNZGo
	denseAVX                       // colsAVX, vecNZAVX
	denseAVX512                    // colsAVX512, vecNZAVX512
)

func (k denseKernel) String() string {
	return [...]string{"portable Go loop", "AVX", "AVX-512"}[k]
}

// cpuDense picks the widest dense kernel the CPU runs.
func cpuDense() denseKernel {
	switch {
	case cpuid.AVX512():
		return denseAVX512
	case cpuid.AVX():
		return denseAVX
	}
	return denseGo
}

// kernel selects the dense kernels matCols and matVecNZ run. It is set
// once, from the CPU; tests set it to run the other kernels.
var kernel = cpuDense()

// KernelName names the kernels the dense axes of 8 or more points (matCols
// and matVecNZ) run on this CPU: "AVX-512", "AVX" or "portable Go loop".
// The choice is made once, at start-up; the 8-point kernels are SSE2 on
// every amd64 CPU.
func KernelName() string { return kernel.String() }

// matCols runs matColsGo with the kernel that kernel selects. The assembly
// needs 8 rows (and colsAVX 4 columns); smaller blocks run the Go loop. One
// check per call covers every element the assembly touches.
func matCols(x, m, tmp []float64, n, stride, c0, c1 int) {
	w := c1 - c0
	if kernel == denseGo || n < 8 || w < 1 || kernel == denseAVX && w < 4 {
		matColsGo(x, m, tmp, n, stride, c0, c1)
		return
	}
	if c0 < 0 || c1 > stride || len(m) < n*n || len(tmp) < n*w || len(x) < (n-1)*stride+c1 {
		panic(fmt.Sprintf("dct: %d-point columns [%d, %d) of stride %d out of range for %d floats", n, c0, c1, stride, len(x)))
	}
	for i := 0; i < n; i++ {
		copy(tmp[i*w:(i+1)*w], x[i*stride+c0:i*stride+c1])
	}
	if kernel == denseAVX512 {
		colsAVX512(&x[c0], &m[0], &tmp[0], n, stride, w)
	} else {
		colsAVX(&x[c0], &m[0], &tmp[0], n, stride, w)
	}
}

// matVecNZ runs matVecNZGo with the kernel that kernel selects. Lines
// shorter than 16 points, the 8-point axes among them, run the Go loop. An
// input with no terms transforms to +0.
func matVecNZ(dst, mT []float64, pos []int, val []float64) {
	n := len(dst)
	if kernel == denseGo || n < 16 {
		matVecNZGo(dst, mT, pos, val)
		return
	}
	if len(mT) < n*n || len(val) < len(pos) {
		panic(fmt.Sprintf("dct: %d terms of a %d-point line out of range", len(pos), n))
	}
	if len(pos) == 0 {
		clear(dst)
		return
	}
	for _, p := range pos {
		if uint(p) >= uint(n) {
			panic(fmt.Sprintf("dct: term at %d of a %d-point line", p, n))
		}
	}
	if kernel == denseAVX512 {
		vecNZAVX512(&dst[0], &mT[0], &pos[0], &val[0], n, len(pos))
	} else {
		vecNZAVX(&dst[0], &mT[0], &pos[0], &val[0], n, len(pos))
	}
}

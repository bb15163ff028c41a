package dct

import "fmt"

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

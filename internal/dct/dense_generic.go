//go:build !amd64

package dct

// cols8 is matCols8; pairs, used by the amd64 kernel only, is ignored.
func cols8(x, m, _ []float64, stride, c0, c1 int) { matCols8(x, m, stride, c0, c1) }

// vec8 runs matVec8 on each 8-float line of x into the same line of dst;
// mT, used by the amd64 kernel only, is ignored.
func vec8(dst, m, _, x []float64) {
	for l := 0; l+8 <= len(x); l += 8 {
		matVec8(dst[l:l+8], m, x[l:l+8])
	}
}

// matCols is matColsGo.
func matCols(x, m, tmp []float64, n, stride, c0, c1 int) { matColsGo(x, m, tmp, n, stride, c0, c1) }

// matVecNZ is matVecNZGo.
func matVecNZ(dst, mT []float64, pos []int, val []float64) { matVecNZGo(dst, mT, pos, val) }

// KernelName names the kernels the dense axes run: the Go loops.
func KernelName() string { return "portable Go loop" }

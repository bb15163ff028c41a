package dct

import "testing"

// ForEachDenseKernel runs f with each dense kernel the CPU has selected in
// turn, the portable Go loop first, and then restores the CPU's pick. It
// lets the external tests run other packages' solves on every kernel.
func ForEachDenseKernel(tb testing.TB, f func(name string)) {
	defer func(k denseKernel) { kernel = k }(kernel)
	for _, k := range denseKernels(tb) {
		kernel = k
		f(k.String())
	}
}

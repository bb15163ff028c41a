//go:build !amd64

package qsim

// gatherLUT is gatherGo.
func gatherLUT(dst []complex128, idx []uint32, in []complex128) { gatherGo(dst, idx, in) }

// mirroredSums is mirroredSumsGo.
func mirroredSums(amp []complex128, table []float64) (a0, a1, a2, a3 float64) {
	return mirroredSumsGo(amp, table)
}

//go:build !amd64

package qsim

// kernel names the kernels mixedPairRange, gatherLUT and mirroredSums run:
// the portable loops.
const kernel = kernelGo

// mixedPairRange runs the paired mixer pass over compressed indices
// [klo, khi) with the portable kernel.
func (s *State) mixedPairRange(klo, khi, lm, hm, da, db int, ma, mb mixedMatrix) {
	s.mixedPairRangeGo(klo, khi, lm, hm, da, db, ma, mb)
}

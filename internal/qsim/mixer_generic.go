//go:build !amd64

package qsim

// mixedPairRange runs the paired mixer pass over compressed indices
// [klo, khi) with the portable kernel.
func (s *State) mixedPairRange(klo, khi, lm, hm, da, db int, ma, mb mixedMatrix) {
	s.mixedPairRangeGo(klo, khi, lm, hm, da, db, ma, mb)
}

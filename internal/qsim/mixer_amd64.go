package qsim

import "fmt"

// mixedPairSSE2 is mixedPairRangeGo in SSE2 assembly (mixer_amd64.s). It
// enumerates the same groups with the same base2 index math and keeps one
// complex128 per XMM register. Gate m on a pair (a0, a1) is
//
//	out0 = (m00, m00)·a0 + swap(a1)·(−m01i, m01i)
//	out1 = (m11, m11)·a1 + swap(a0)·(−m10i, m10i)
//
// in MULPD, ADDPD and a PSHUFD half swap, with no FMA and no SSE3, so the
// GOAMD64=v1 baseline runs it. Two IEEE identities make each component
// bit-identical to mixedMatrix.apply: x − y ≡ x + (−y), and
// (−m)·a ≡ −(m·a). The one sum apply writes the other way round,
// m10i·a0r + m11·a1i, is commutative; only two NaN operands with different
// payloads could tell the orders apart, and the Go compiler is free to
// swap that sum's operands too.
//
// It does no bounds checks: the caller must guarantee 0 <= klo,
// 4·khi <= len(amp), a power-of-two len(amp), and da, db in [1, len(amp)).
//
//go:noescape
func mixedPairSSE2(amp []complex128, klo, khi, lm, hm, da, db int, ma, mb mixedMatrix)

// mixedPairRange runs the paired mixer pass over compressed indices
// [klo, khi) with the SSE2 kernel. It checks once per call what the
// portable loop's indexing checks per amplitude: base2 never maps k above
// 4k, so every index it forms is below len(amp) when 4·khi <= len(amp),
// and XOR with a mask below a power-of-two length stays below it.
func (s *State) mixedPairRange(klo, khi, lm, hm, da, db int, ma, mb mixedMatrix) {
	if klo >= khi {
		return
	}
	n := len(s.amp)
	if klo < 0 || khi > n>>2 || n&(n-1) != 0 || da < 1 || da >= n || db < 1 || db >= n {
		panic(fmt.Sprintf("qsim: mixer pass over groups [%d, %d) with flip masks %#x, %#x out of range for %d amplitudes",
			klo, khi, da, db, n))
	}
	mixedPairSSE2(s.amp, klo, khi, lm, hm, da, db, ma, mb)
}

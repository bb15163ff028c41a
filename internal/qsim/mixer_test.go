package qsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// mixer_test.go holds the paired mixer pass's portable checks and its
// benchmark; mixer_amd64_test.go pins the AVX and AVX-512 kernels to the
// portable loop mixedPairRangeGo bit for bit.

// mixerPairs returns the flip-mask pairs an n-qubit mixer layer issues on
// s: RX on qubits 0..n-1 in ascending order pairs (q, q+1) for even q, and
// in descending order (q+1, q). On a half state s has n-1 qubits, and the
// top qubit's mask is the complement mask. Two non-adjacent pairs stand
// for runGates' other mixed-class pairs; the second needs 12 stored qubits.
func mixerPairs(s *State, n int) [][2]int {
	var pairs [][2]int
	for q := 0; q+1 < n; q += 2 {
		a, b := s.flipMask(q), s.flipMask(q+1)
		pairs = append(pairs, [2]int{a, b}, [2]int{b, a})
	}
	pairs = append(pairs, [2]int{s.flipMask(n - 1), 1})
	if 1<<11 < len(s.amp) {
		pairs = append(pairs, [2]int{1 << 3, 1 << 11})
	}
	return pairs
}

// specialAmplitudes fills a state with random amplitudes, a quarter of
// whose components are replaced by ±0, subnormals, ±MaxFloat64 or ±Inf.
func specialAmplitudes(s *State, rng *rand.Rand) {
	specials := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 3e-310, -2.5e-308,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
	}
	component := func() float64 {
		if rng.Intn(4) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	for i := range s.amp {
		s.amp[i] = complex(component(), component())
	}
}

// requireSameBits fails unless got and want hold identical float64 bits.
func requireSameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(real(g)) != math.Float64bits(real(w)) ||
			math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
			t.Fatalf("%s: amp[%d] = %v, portable %v", what, i, g, w)
		}
	}
}

// TestMixedPairRangePanicsOutOfRange checks that a pass reaching past the
// state panics, as the portable loop's indexing does, instead of touching
// memory beyond it.
func TestMixedPairRangePanicsOutOfRange(t *testing.T) {
	m := mixedOf(gateMatrix(GateRX, 0.3))
	for _, c := range []struct{ klo, khi, da, db int }{
		{0, 5, 1, 2},  // 4·khi > 16
		{0, 4, 16, 2}, // da = len(amp)
		{0, 4, 1, 32}, // db > len(amp)
	} {
		s := NewState(4)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mixedPairRange(%d, %d, masks %#x, %#x) on 16 amplitudes did not panic", c.klo, c.khi, c.da, c.db)
				}
			}()
			s.mixedPairRange(c.klo, c.khi, 0, 0, c.da, c.db, m, m)
		}()
	}
}

// BenchmarkMixerPair times each of the 8 paired passes of a p=1 mixer on
// the 15-qubit half state of an n=16 circuit, serially, and reports
// ns/group (one group is four amplitudes). The first pass logs the kernel.
func BenchmarkMixerPair(b *testing.B) {
	const n = 16
	rng := rand.New(rand.NewSource(1))
	s := NewState(n - 1)
	for i := range s.amp {
		s.amp[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	m := mixedOf(gateMatrix(GateRX, 2*0.37))
	groups := len(s.amp) >> 2
	for q := 0; q < n; q += 2 {
		da, db := s.flipMask(q), s.flipMask(q+1)
		b.Run(fmt.Sprintf("q%d-q%d", q, q+1), func(b *testing.B) {
			if q == 0 {
				logKernel(b)
			}
			for i := 0; i < b.N; i++ {
				s.applyMixedPairMasks(da, db, m, m)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*groups), "ns/group")
		})
	}
}

// logKernel logs the kernel the vector passes run, once per sub-benchmark
// run: testing prints the log of a sub-benchmark but not that of a parent
// that only runs sub-benchmarks, and a sub-benchmark runs with b.N == 1
// first.
func logKernel(b *testing.B) {
	if b.N == 1 {
		b.Logf("simulator kernel: %v", kernel)
	}
}

package qsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// mixer_test.go pins mixedPairRange, which runs the SSE2 kernel on amd64,
// to the portable loop mixedPairRangeGo bit for bit. Off amd64 the two are
// the same loop and the test checks nothing new.

// mixerPairs returns the flip-mask pairs an n-qubit mixer layer issues on
// s: RX on qubits 0..n-1 in ascending order pairs (q, q+1) for even q, and
// in descending order (q+1, q). On a half state s has n-1 qubits, and the
// top qubit's mask is the complement mask. Two non-adjacent pairs stand
// for runGates' other mixed-class pairs.
func mixerPairs(s *State, n int) [][2]int {
	var pairs [][2]int
	for q := 0; q+1 < n; q += 2 {
		a, b := s.flipMask(q), s.flipMask(q+1)
		pairs = append(pairs, [2]int{a, b}, [2]int{b, a})
	}
	return append(pairs, [2]int{s.flipMask(n - 1), 1}, [2]int{1 << 3, 1 << 11})
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

// TestMixedPairKernelMatchesPortable runs every paired mask a 16-qubit
// mixer issues, on the full state and on the 15-qubit half state, with RX
// matrices for β in {0, π/2, random} (each as gate A and as gate B) and
// amplitudes holding ±0, subnormals and ±Inf. Each pass runs once through applyMixedPairMasks at 1, 2 and 4
// workers, and once split at w random, mostly odd, group boundaries, so
// that shard ranges start and end mid-run.
func TestMixedPairKernelMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	betas := []float64{0, math.Pi / 2, rng.Float64() * math.Pi}
	var mats []mixedMatrix
	for _, b := range betas {
		mats = append(mats, mixedOf(gateMatrix(GateRX, 2*b)))
	}
	for _, n := range []int{16, 15} {
		circuitQubits := 16 // a 15-qubit state is the half of n = 16
		src := NewState(n)
		specialAmplitudes(src, rng)
		want, got := NewState(n), NewState(n)
		quarter := len(src.amp) >> 2
		for _, p := range mixerPairs(src, circuitQubits) {
			da, db := p[0], p[1]
			lm, hm := pairMasks(da, db)
			for ia, ma := range mats {
				ib := (ia + 1) % len(mats)
				mb := mats[ib]
				name := fmt.Sprintf("n=%d masks=(%#x,%#x) betas=(%d,%d)", n, da, db, ia, ib)
				copy(want.amp, src.amp)
				want.mixedPairRangeGo(0, quarter, lm, hm, da, db, ma, mb)
				for _, w := range []int{1, 2, 4} {
					copy(got.amp, src.amp)
					got.SetWorkers(w).applyMixedPairMasks(da, db, ma, mb)
					requireSameBits(t, fmt.Sprintf("%s workers=%d", name, w), got.amp, want.amp)

					copy(got.amp, src.amp)
					cuts := []int{0}
					for i := 1; i < w; i++ {
						cuts = append(cuts, i*quarter/w+rng.Intn(64)|1)
					}
					cuts = append(cuts, quarter)
					for i := 0; i+1 < len(cuts); i++ {
						got.mixedPairRange(cuts[i], cuts[i+1], lm, hm, da, db, ma, mb)
					}
					requireSameBits(t, fmt.Sprintf("%s cuts=%v", name, cuts), got.amp, want.amp)
				}
			}
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
// ns/group (one group is four amplitudes).
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
			for i := 0; i < b.N; i++ {
				s.applyMixedPairMasks(da, db, m, m)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*groups), "ns/group")
		})
	}
}

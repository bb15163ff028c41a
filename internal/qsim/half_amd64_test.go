package qsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// halfPassInputs returns amplitudes and a table of len entries for the
// expectation sum. With specials false the values are finite: normals,
// ±0 and subnormals, and table entries of both signs, so every
// accumulator ends up a distinct finite sum; with specials true one entry
// in eight is ±0, a subnormal, a huge value or ±Inf.
func halfPassInputs(rng *rand.Rand, n int, specials bool) ([]complex128, []float64) {
	odd := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -3e-310}
	if specials {
		odd = append(odd, 1e200, -1e200, math.MaxFloat64, math.Inf(1), math.Inf(-1))
	}
	value := func() float64 {
		if rng.Intn(8) == 0 {
			return odd[rng.Intn(len(odd))]
		}
		return rng.NormFloat64()
	}
	amp, table := make([]complex128, n), make([]float64, n)
	for i := range amp {
		amp[i] = complex(value(), value())
		table[i] = value()
	}
	return amp, table
}

// TestHalfPassKernelsMatchGo runs the preparation gather and the mirrored
// expectation sum through each kernel the CPU has and checks them against
// the Go loops bit for bit, on half states of 2 to 16 qubits:
//   - gatherLUT over ranges whose starts and ends take every residue mod 4
//     (lone entries, heads and tails of every length) and over random shard
//     cuts of the whole state, through a 25-entry LUT, with guard entries
//     past each range that must stay put;
//   - mirroredSums, each of its four accumulators, on finite inputs and on
//     inputs with huge values and ±Inf.
//
// Then it runs whole HalfEnergy energies with each kernel at 1, 2 and 4
// workers and checks energies and amplitudes against the Go kernel's and
// the full-state path.
func TestHalfPassKernelsMatchGo(t *testing.T) {
	requireAVX(t)
	defer func(k simKernel) { kernel = k }(kernel)
	rng := rand.New(rand.NewSource(32))
	const lutLen, pad = 25, 8
	guard := complex(math.NaN(), -1)
	lut := make([]complex128, lutLen)
	for i := range lut {
		lut[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for _, k := range simKernels(t)[1:] {
		for q := 2; q <= 16; q++ {
			size := 1 << uint(q)
			idx := make([]uint32, size)
			for i := range idx {
				idx[i] = uint32(rng.Intn(lutLen))
			}
			want := make([]complex128, size)
			gatherGo(want, idx, lut)
			backing := make([]complex128, size+pad)
			// gather runs gatherLUT on [lo, hi) of a state of guards and
			// checks the range against want and the guards past it.
			gather := func(lo, hi int) {
				t.Helper()
				for i := range backing {
					backing[i] = guard
				}
				kernel = k
				gatherLUT(backing[lo:hi], idx[lo:hi], lut)
				kernel = kernelGo
				what := fmt.Sprintf("%v gather, %d qubits, [%d, %d)", k, q, lo, hi)
				requireSameBits(t, what, backing[lo:hi], want[lo:hi])
				for i := hi; i < len(backing); i++ {
					if v := backing[i]; !math.IsNaN(real(v)) || imag(v) != -1 {
						t.Fatalf("%s: wrote %v past the range, at %d", what, v, i)
					}
				}
			}
			for _, lo := range []int{0, 1, 2, 3, 5, size/2 - 1, size - 7} {
				if lo < 0 || lo >= size {
					continue
				}
				for hi := lo; hi <= lo+9 && hi <= size; hi++ {
					gather(lo, hi)
				}
				gather(lo, size-1)
				gather(lo, size)
			}
			got := make([]complex128, size)
			for _, w := range []int{2, 3, 4} {
				cuts := []int{0, size}
				for i := 1; i < w; i++ {
					cuts = append(cuts, rng.Intn(size+1))
				}
				sort.Ints(cuts)
				kernel = k
				for i := 0; i+1 < len(cuts); i++ {
					gatherLUT(got[cuts[i]:cuts[i+1]], idx[cuts[i]:cuts[i+1]], lut)
				}
				kernel = kernelGo
				requireSameBits(t, fmt.Sprintf("%v gather, %d qubits, cuts %v", k, q, cuts), got, want)
			}

			for _, specials := range []bool{false, true} {
				amp, table := halfPassInputs(rng, size, specials)
				w0, w1, w2, w3 := mirroredSumsGo(amp, table)
				kernel = k
				g0, g1, g2, g3 := mirroredSums(amp, table)
				kernel = kernelGo
				for j, pair := range [][2]float64{{g0, w0}, {g1, w1}, {g2, w2}, {g3, w3}} {
					if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
						t.Fatalf("%v sum, %d qubits, specials %v: a%d = %v (%#x), Go loop %v (%#x)",
							k, q, specials, j, pair[0], math.Float64bits(pair[0]), pair[1], math.Float64bits(pair[1]))
					}
				}
			}
		}
	}

	for _, n := range []int{3, 4, 5, 8, 13, 17} {
		edges, weights := randomEdges(n, rng)
		table := cutTable(n, edges, weights)
		c := qaoaLikeCircuit(n, 2, edges, weights).FuseDiagonals()
		h, ok := NewHalfEnergy(c, table)
		if !ok {
			t.Fatal("flip-symmetric circuit refused")
		}
		params := []float64{0.3, -0.7, 0.9, 0.2}
		kernel = kernelGo
		ref := NewState(h.N())
		want, err := h.Energy(ref, params)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range simKernels(t)[1:] {
			kernel = k
			for _, w := range []int{1, 2, 4} {
				s := NewState(h.N()).SetWorkers(w)
				got, err := h.Energy(s, params)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d %v at %d workers: energy %v, Go kernel %v", n, k, w, got, want)
				}
				requireSameBits(t, fmt.Sprintf("n=%d %v at %d workers", n, k, w), s.amp, ref.amp)
				checkHalfMatchesFull(t, c, table, params, w, true)
			}
		}
	}
}

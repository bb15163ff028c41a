package dct_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cs"
	"repro/internal/dct"
)

// TestGolden2DSolveDenseKernels runs internal/cs's frozen 50x100 golden solve
// (TestReconstruct2DGolden: 8 low-frequency modes, 1000 samples, seed 17)
// with each dense kernel the CPU has, the portable Go loop first, at 1 and 2
// workers, and checks that every run reproduces the Go loop's serial solve
// bit for bit: iterations, residual, X and Coeffs. internal/cs pins the
// CPU's own kernel to the golden hashes, so with this test the Go loop, and
// every other kernel, reproduces them too.
func TestGolden2DSolveDenseKernels(t *testing.T) {
	const rows, cols = 50, 100
	rng := rand.New(rand.NewSource(17))
	coeffs := make([]float64, rows*cols)
	for i := 0; i < 8; i++ {
		r, c := rng.Intn(rows/3+1), rng.Intn(cols/3+1)
		coeffs[r*cols+c] = 2*rng.Float64() + 1
	}
	x := make([]float64, rows*cols)
	dct.NewPlanND([]int{rows, cols}).Inverse(x, coeffs)
	idx, err := cs.SampleIndices(rng, rows*cols, 1000)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	var want *cs.Result
	dct.ForEachDenseKernel(t, func(kernel string) {
		for _, workers := range []int{1, 2} {
			opt := cs.DefaultOptions()
			opt.Workers = workers
			got, err := cs.ReconstructND([]int{rows, cols}, idx, y, opt)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			if got.Iterations != want.Iterations || math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
				t.Fatalf("%s, %d workers: %d iterations, residual %v; Go loop %d, %v",
					kernel, workers, got.Iterations, got.Residual, want.Iterations, want.Residual)
			}
			for i := range want.X {
				if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) || math.Float64bits(got.Coeffs[i]) != math.Float64bits(want.Coeffs[i]) {
					t.Fatalf("%s, %d workers: X, Coeffs[%d] = %v, %v; Go loop %v, %v",
						kernel, workers, i, got.X[i], got.Coeffs[i], want.X[i], want.Coeffs[i])
				}
			}
		}
	})
}

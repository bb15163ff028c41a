package cs

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dct"
)

// sparseScene builds a rows×cols landscape that is exactly sparse in the DCT
// domain, plus a sampled measurement set.
func sparseScene(t *testing.T, rows, cols, m int, seed int64) (x []float64, idx []int, y []float64) {
	t.Helper()
	n := rows * cols
	rng := rand.New(rand.NewSource(seed))
	coeffs := make([]float64, n)
	for k := 0; k < 6; k++ {
		coeffs[rng.Intn(n/8)] = rng.NormFloat64() * 3
	}
	x = make([]float64, n)
	dct.NewPlanND([]int{rows, cols}).Inverse(x, coeffs)
	idx, err := SampleIndices(rng, n, m)
	if err != nil {
		t.Fatal(err)
	}
	y = make([]float64, len(idx))
	for j, gi := range idx {
		y[j] = x[gi]
	}
	return x, idx, y
}

// TestWarmStartConverges checks a warm-started solve recovers the same
// landscape as a cold solve on the same data, in no more iterations.
func TestWarmStartConverges(t *testing.T) {
	rows, cols := 24, 32
	x, idx, y := sparseScene(t, rows, cols, 200, 31)

	cold, err := ReconstructND([]int{rows, cols}, idx, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Warm-start from the cold solution itself: the solver should accept
	// it nearly unchanged.
	opt := Options{Warm: cold.Coeffs}
	warm, err := ReconstructND([]int{rows, cols}, idx, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations > cold.Iterations {
		t.Errorf("warm solve took %d iterations, cold %d", warm.Iterations, cold.Iterations)
	}
	var maxDiff, maxErr float64
	for i := range x {
		maxDiff = math.Max(maxDiff, math.Abs(warm.X[i]-cold.X[i]))
		maxErr = math.Max(maxErr, math.Abs(warm.X[i]-x[i]))
	}
	if maxDiff > 1e-6 {
		t.Errorf("warm and cold reconstructions differ by %g", maxDiff)
	}
	if maxErr > 1e-4 {
		t.Errorf("warm reconstruction off the truth by %g", maxErr)
	}
}

// TestWarmStartGrowingSamples is the streaming regime: solve on a prefix of
// the samples, then warm-start the full-set solve from it. The warm solve
// must match the truth and converge faster than the cold full-set solve.
func TestWarmStartGrowingSamples(t *testing.T) {
	rows, cols := 24, 32
	x, idx, y := sparseScene(t, rows, cols, 260, 57)

	half := len(idx) / 2
	first, err := ReconstructND([]int{rows, cols}, idx[:half], y[:half], Options{})
	if err != nil {
		t.Fatal(err)
	}
	coldFull, err := ReconstructND([]int{rows, cols}, idx, y, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warmFull, err := ReconstructND([]int{rows, cols}, idx, y, Options{Warm: first.Coeffs})
	if err != nil {
		t.Fatal(err)
	}
	if warmFull.Iterations >= coldFull.Iterations {
		t.Errorf("warm full solve took %d iterations, cold full %d — no head start",
			warmFull.Iterations, coldFull.Iterations)
	}
	var maxErr float64
	for i := range x {
		maxErr = math.Max(maxErr, math.Abs(warmFull.X[i]-x[i]))
	}
	if maxErr > 1e-4 {
		t.Errorf("warm full reconstruction off the truth by %g", maxErr)
	}
	// Determinism: repeating the same warm solve reproduces it bit for bit.
	again, err := ReconstructND([]int{rows, cols}, idx, y, Options{Warm: first.Coeffs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range warmFull.X {
		if warmFull.X[i] != again.X[i] {
			t.Fatalf("warm solve not deterministic at %d", i)
		}
	}
}

// TestWarmStartValidation rejects warm starts of the wrong shape, and the
// promotion rule carries Warm through to the default configuration.
func TestWarmStartValidation(t *testing.T) {
	_, idx, y := sparseScene(t, 8, 8, 20, 3)
	if _, err := ReconstructND([]int{8, 8}, idx, y, Options{Warm: make([]float64, 7)}); err == nil {
		t.Error("want error for wrong warm-start length")
	}
	warm := make([]float64, 64)
	opt := Options{Warm: warm, Workers: 1}.WithDefaults()
	if !opt.Debias || !opt.Continuation || opt.MaxIter != 500 {
		t.Errorf("Warm-only options not promoted to defaults: %+v", opt)
	}
	if opt.Workers != 1 || len(opt.Warm) != 64 {
		t.Error("promotion dropped the carry-through fields")
	}
	// Any other set field disables the promotion, as before.
	if opt := (Options{Warm: warm, Tol: 1e-3}).WithDefaults(); opt.Debias {
		t.Error("promotion fired despite an explicitly-set field")
	}
}

// golden8p4 pins fleet-p2's warm-started 8^4 solve chain (BenchmarkSolve's
// warm-chain-8^4: a real n=10 p=2 QAOA landscape, solved on 50, 75 and 100%
// of 819 shuffled samples, each solve warm-started from the one before) bit
// for bit, one entry per solve. The samples' own hash is pinned too, so a
// simulator change that moves them reads as such and not as a solver change.
const golden8p4YHash = 0xbdad2400cfb4997a

var golden8p4 = []struct {
	xHash, coeffHash            uint64
	iters, transforms, restarts int
}{
	{0x74e192737e78693a, 0x681dda13e6d7be08, 184, 471, 3},
	{0xc85ecba3d8fa417b, 0x2643d789c5aae499, 45, 167, 2},
	{0x8c397cdd8b291685, 0xd7162074fc254143, 43, 143, 2},
}

// TestWarmChain8p4Golden runs the chain at one worker and at the -cpu worker
// count: the worker split decides which columns each DCT unit covers, and
// must not move a bit.
func TestWarmChain8p4Golden(t *testing.T) {
	dims, idx, y := qaoaP2Samples(t)
	if h := hashFloats(y); h != golden8p4YHash {
		t.Fatalf("samples hash %#016x, want %#016x", h, uint64(golden8p4YHash))
	}
	for _, workers := range []int{1, 0} {
		var warm []float64
		for i, frac := range []float64{0.5, 0.75, 1} {
			m := int(frac * float64(len(idx)))
			res, err := ReconstructND(dims, idx[:m], y[:m], Options{Workers: workers, Warm: warm})
			if err != nil {
				t.Fatal(err)
			}
			warm = res.Coeffs
			g := golden8p4[i]
			if h := hashFloats(res.X); h != g.xHash {
				t.Errorf("workers %d, solve %d: X hash %#016x, want %#016x", workers, i, h, g.xHash)
			}
			if h := hashFloats(res.Coeffs); h != g.coeffHash {
				t.Errorf("workers %d, solve %d: coeff hash %#016x, want %#016x", workers, i, h, g.coeffHash)
			}
			if res.Iterations != g.iters || res.Transforms != g.transforms || res.Restarts != g.restarts {
				t.Errorf("workers %d, solve %d: %d iterations, %d transforms, %d restarts; want %d, %d, %d",
					workers, i, res.Iterations, res.Transforms, res.Restarts, g.iters, g.transforms, g.restarts)
			}
		}
	}
}

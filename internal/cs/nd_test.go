package cs

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dct"
)

// hashFloats is an FNV-1a hash over the exact bit patterns of a float
// slice — one changed bit anywhere changes the hash.
func hashFloats(xs []float64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, x := range xs {
		b := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			h ^= (b >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return h
}

// Golden outputs of the seed (pre-ND) 2-D solver, captured before the
// refactor routed Reconstruct2D/Reconstruct1D through ReconstructND. These
// pin the acceptance criterion that the existing entry points stay
// bit-identical across the redesign.
//
// 2-D fixture: the Table-1 50x100 grid, 8 modes, seed 17, 20% sampling.
// 1-D fixture: a 5000-point line cut, 6 modes, seed 19, 10% sampling.
const (
	golden2DIters     = 76
	golden2DSparsity  = 8
	golden2DResidBits = 0x3e72c9b49ee3ba0f
	golden2DXHash     = 0x61c34d81172abe1b
	golden2DCoeffHash = 0xf52f66aacf3dad2a

	golden1DIters     = 173
	golden1DSparsity  = 6
	golden1DResidBits = 0x3eece8e226c7fc60
	golden1DXHash     = 0xadaae335c99a0555
	golden1DCoeffHash = 0x663e12865ce86d95
)

func TestReconstruct2DGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	rows, cols := 50, 100
	x, _ := sparseLandscape(rng, rows, cols, 8)
	idx, err := SampleIndices(rng, rows*cols, 1000)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	res, err := Reconstruct2D(rows, cols, idx, y, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != golden2DIters || res.Sparsity != golden2DSparsity {
		t.Errorf("iters=%d sparsity=%d, want %d/%d", res.Iterations, res.Sparsity, golden2DIters, golden2DSparsity)
	}
	if bits := math.Float64bits(res.Residual); bits != golden2DResidBits {
		t.Errorf("residual bits %#016x, want %#016x", bits, uint64(golden2DResidBits))
	}
	if h := hashFloats(res.X); h != golden2DXHash {
		t.Errorf("X hash %#016x, want %#016x", h, uint64(golden2DXHash))
	}
	if h := hashFloats(res.Coeffs); h != golden2DCoeffHash {
		t.Errorf("coeff hash %#016x, want %#016x", h, uint64(golden2DCoeffHash))
	}
}

// TestReconstruct1DGolden pins Reconstruct1D — which historically routed
// through Reconstruct2D(1, n, ...) and now routes through ReconstructND — to
// the seed solver's exact output.
func TestReconstruct1DGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 5000
	x, _ := sparseLandscape(rng, 1, n, 6)
	idx, err := SampleIndices(rng, n, 500)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	res, err := Reconstruct1D(n, idx, y, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != golden1DIters || res.Sparsity != golden1DSparsity {
		t.Errorf("iters=%d sparsity=%d, want %d/%d", res.Iterations, res.Sparsity, golden1DIters, golden1DSparsity)
	}
	if bits := math.Float64bits(res.Residual); bits != golden1DResidBits {
		t.Errorf("residual bits %#016x, want %#016x", bits, uint64(golden1DResidBits))
	}
	if h := hashFloats(res.X); h != golden1DXHash {
		t.Errorf("X hash %#016x, want %#016x", h, uint64(golden1DXHash))
	}
	if h := hashFloats(res.Coeffs); h != golden1DCoeffHash {
		t.Errorf("coeff hash %#016x, want %#016x", h, uint64(golden1DCoeffHash))
	}
}

// sparseND builds an ND signal with k active low-frequency DCT modes.
func sparseND(rng *rand.Rand, dims []int, k int) []float64 {
	size := 1
	for _, d := range dims {
		size *= d
	}
	strides := make([]int, len(dims))
	s := 1
	for a := len(dims) - 1; a >= 0; a-- {
		strides[a] = s
		s *= dims[a]
	}
	coeffs := make([]float64, size)
	for i := 0; i < k; i++ {
		idx := 0
		for a, d := range dims {
			idx += rng.Intn(d/3+1) * strides[a]
		}
		coeffs[idx] = 2*rng.Float64() + 1
	}
	x := make([]float64, size)
	dct.NewPlanND(dims).Inverse(x, coeffs)
	return x
}

// TestReconstructNDExactSparse: a sparse 4-D signal (the p=2 QAOA shape)
// recovers almost exactly from 20% sampling.
func TestReconstructNDExactSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	dims := []int{10, 10, 12, 12}
	x := sparseND(rng, dims, 6)
	n := len(x)
	idx, err := SampleIndices(rng, n, n/5)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	res, err := ReconstructND(dims, idx, y, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(res.X, x); e > 0.02 {
		t.Fatalf("relative error %g too high for 20%% sampling of 6-sparse 4-D signal", e)
	}
}

// TestReconstructNDWorkersBitIdentical: the sharded ND solver matches the
// serial one bit for bit at every worker count.
func TestReconstructNDWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dims := []int{9, 11, 8, 10} // 7920 points, above the serial floor
	x := sparseND(rng, dims, 5)
	idx, err := SampleIndices(rng, len(x), len(x)/4)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	opt := DefaultOptions()
	opt.MaxIter = 60
	opt.Workers = 1
	ref, err := ReconstructND(dims, idx, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	refX, refC := hashFloats(ref.X), hashFloats(ref.Coeffs)
	for _, workers := range []int{2, 3, 7, 0} {
		opt.Workers = workers
		res, err := ReconstructND(dims, idx, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != ref.Iterations {
			t.Fatalf("workers %d: %d iterations, serial did %d", workers, res.Iterations, ref.Iterations)
		}
		if hashFloats(res.X) != refX || hashFloats(res.Coeffs) != refC {
			t.Fatalf("workers %d: output differs from serial solve", workers)
		}
		if math.Float64bits(res.Residual) != math.Float64bits(ref.Residual) {
			t.Fatalf("workers %d: residual differs", workers)
		}
	}
}

// TestReconstruct2DEqualsND: the 2-D wrapper and a direct ND call on the
// same shape are the same solve.
func TestReconstruct2DEqualsND(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	rows, cols := 20, 30
	x, _ := sparseLandscape(rng, rows, cols, 4)
	idx, _ := SampleIndices(rng, rows*cols, 150)
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	a, err := Reconstruct2D(rows, cols, idx, y, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReconstructND([]int{rows, cols}, idx, y, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if hashFloats(a.X) != hashFloats(b.X) || hashFloats(a.Coeffs) != hashFloats(b.Coeffs) {
		t.Fatal("Reconstruct2D and ReconstructND disagree on the same shape")
	}
}

func TestReconstructNDValidation(t *testing.T) {
	y := []float64{1}
	cases := []struct {
		name string
		dims []int
		idx  []int
		y    []float64
	}{
		{"empty shape", nil, []int{0}, y},
		{"bad dim", []int{4, 0}, []int{0}, y},
		{"negative dim", []int{-2}, []int{0}, y},
		{"size overflows int", []int{3, 6148914691236517206}, []int{0}, y},
		{"len mismatch", []int{8}, []int{0, 1}, y},
		{"no samples", []int{8}, nil, nil},
		{"out of range", []int{8}, []int{8}, y},
		{"negative index", []int{8}, []int{-1}, y},
		{"duplicate", []int{8}, []int{2, 2}, []float64{1, 1}},
	}
	for _, c := range cases {
		if _, err := ReconstructND(c.dims, c.idx, c.y, DefaultOptions()); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestStratifiedIndicesND(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	dims := []int{6, 7, 8}
	n := 6 * 7 * 8
	for _, m := range []int{1, 5, 37, 100, n} {
		idx, err := StratifiedIndicesND(rng, dims, m)
		if err != nil {
			t.Fatal(err)
		}
		if len(idx) != m {
			t.Fatalf("m=%d: got %d indices", m, len(idx))
		}
		if !sort.IntsAreSorted(idx) {
			t.Fatalf("m=%d: indices not sorted", m)
		}
		seen := make(map[int]struct{}, len(idx))
		for _, i := range idx {
			if i < 0 || i >= n {
				t.Fatalf("m=%d: index %d out of range", m, i)
			}
			if _, dup := seen[i]; dup {
				t.Fatalf("m=%d: duplicate index %d", m, i)
			}
			seen[i] = struct{}{}
		}
	}
	// Coverage: with one point per octant-sized box, every half of every
	// axis must receive samples.
	idx, err := StratifiedIndicesND(rand.New(rand.NewSource(36)), []int{8, 8, 8}, 64)
	if err != nil {
		t.Fatal(err)
	}
	var counts [3][2]int
	for _, i := range idx {
		mi := [3]int{i / 64, (i / 8) % 8, i % 8}
		for a := 0; a < 3; a++ {
			counts[a][mi[a]/4]++
		}
	}
	for a := 0; a < 3; a++ {
		for h := 0; h < 2; h++ {
			if got := counts[a][h]; got < 24 || got > 40 {
				t.Errorf("axis %d half %d: %d of 64 samples (want near 32)", a, h, got)
			}
		}
	}
	// Determinism: same seed, same samples.
	a, _ := StratifiedIndicesND(rand.New(rand.NewSource(37)), dims, 50)
	b, _ := StratifiedIndicesND(rand.New(rand.NewSource(37)), dims, 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different samples")
		}
	}
	// Validation.
	for _, c := range []struct {
		dims []int
		m    int
	}{{nil, 1}, {[]int{0}, 1}, {[]int{4}, 0}, {[]int{4}, 5}} {
		if _, err := StratifiedIndicesND(rng, c.dims, c.m); err == nil {
			t.Errorf("dims %v m %d: no error", c.dims, c.m)
		}
	}
}

package cs

import (
	"compress/gzip"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"os"
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

// Golden outputs of the 2-D and 1-D solvers. ReconstructND on [rows, cols]
// and [n] must reproduce them bit for bit.
//
// 2-D fixture: the Table-1 50x100 grid, 8 modes, seed 17, 20% sampling.
// 1-D fixture: a 5000-point line cut, 6 modes, seed 19, 10% sampling; its
// axis is on the FFT path.
//
// Both were re-captured when FISTA gained adaptive restart and the polish
// became CGLS. The *UnitPolishFile fixtures hold X followed by Coeffs of the
// solves before that change (no restart, unit-step gradient polish capped at
// 50 steps, which both goldens hit); the new solves must stay within
// golden*UnitPolishBound of them and no farther from the true landscape.
// The bounds sit just above the measured max differences (2-D 8.7e-8, 1-D
// 2.9e-5, both in Coeffs), which are what the capped unit-step polish left
// of the least-squares fit: its residuals were 7.0e-8 and 1.4e-5, against
// 3.7e-13 and 5.3e-16 now. golden2DFFTFile holds the 2-D X and Coeffs solved
// with both axes forced onto the mirrored-FFT DCT; the dense-path solve must
// stay within 1e-9 of it.
const (
	golden2DIters     = 36
	golden2DSparsity  = 8
	golden2DResidBits = 0x3d5a23e7eaa6ddd4
	golden2DXHash     = 0x5aaadc630f3c1115
	golden2DCoeffHash = 0xbb129a54298eebc0
	golden2DFFTFile   = "testdata/golden2d_fft.f64.gz"

	golden2DUnitPolishFile  = "testdata/golden2d_unitpolish.f64.gz"
	golden2DUnitPolishBound = 1e-7

	golden1DIters     = 58
	golden1DSparsity  = 6
	golden1DResidBits = 0x3cc32fa5a6c738d5
	golden1DXHash     = 0x70134c3e86a23e71
	golden1DCoeffHash = 0xf517a23f847b3b9e

	golden1DUnitPolishFile  = "testdata/golden1d_unitpolish.f64.gz"
	golden1DUnitPolishBound = 5e-5
)

// checkUnitPolish asserts that res is within bound of the unit-polish
// fixture at path (X then Coeffs) and no farther than it from the truth x.
func checkUnitPolish(t *testing.T, res *Result, x []float64, path string, bound float64) {
	t.Helper()
	n := len(res.X)
	want := readFloats(t, path, 2*n)
	for i, v := range append(append([]float64(nil), res.X...), res.Coeffs...) {
		if math.Abs(v-want[i]) > bound {
			t.Fatalf("X|Coeffs[%d] = %g, unit-polish solve %g: beyond %g", i, v, want[i], bound)
		}
	}
	if got, old := relErr(res.X, x), relErr(want[:n], x); got > old {
		t.Errorf("relative error to the truth %g, unit-polish solve %g", got, old)
	}
}

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
	res, err := ReconstructND([]int{rows, cols}, idx, y, DefaultOptions())
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
	// The fixture is X followed by Coeffs.
	want := readFloats(t, golden2DFFTFile, 2*rows*cols)
	for i, v := range append(append([]float64(nil), res.X...), res.Coeffs...) {
		if math.Abs(v-want[i]) > 1e-9 {
			t.Fatalf("X|Coeffs[%d] = %g, FFT-path solve %g", i, v, want[i])
		}
	}
	checkUnitPolish(t, res, x, golden2DUnitPolishFile, golden2DUnitPolishBound)
}

// readFloats reads n little-endian float64s from a gzipped fixture.
func readFloats(t *testing.T, path string, n int) []float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 8*n {
		t.Fatalf("%s: %d bytes, want %d", path, len(raw), 8*n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

// TestReconstruct1DGolden pins a one-axis ReconstructND (historically the
// 1xn 2-D problem) bit for bit.
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
	res, err := ReconstructND([]int{n}, idx, y, DefaultOptions())
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
	checkUnitPolish(t, res, x, golden1DUnitPolishFile, golden1DUnitPolishBound)
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
	dims := []int{9, 11, 8, 13} // 10296 points, above the serial floor
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

// TestReconstruct2DEqualsND: a 2-D solve and the same solve with a leading
// length-1 axis are bit-identical — the degenerate axis's DCT pass is the
// exact identity and is skipped.
func TestReconstruct2DEqualsND(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	rows, cols := 20, 30
	x, _ := sparseLandscape(rng, rows, cols, 4)
	idx, _ := SampleIndices(rng, rows*cols, 150)
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	a, err := ReconstructND([]int{rows, cols}, idx, y, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ReconstructND([]int{1, rows, cols}, idx, y, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if hashFloats(a.X) != hashFloats(b.X) || hashFloats(a.Coeffs) != hashFloats(b.Coeffs) {
		t.Fatal("2-D and 1x2-D solves disagree on the same data")
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

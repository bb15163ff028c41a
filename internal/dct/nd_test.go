package dct

import (
	"math"
	"math/rand"
	"testing"
)

// directDCT is the O(n^2) orthonormal DCT-II (forward) or DCT-III (inverse)
// of in by direct summation, like ForwardDirect/InverseDirect but reading
// every cosine from a 4n-entry table: cos(pi*(2i+1)k/(2n)) is
// cos(pi*m/(2n)) for the exact integer m = (2i+1)k mod 4n, which keeps the
// reference fast enough for 8192-point lines.
func directDCT(out, in []float64, forward bool) {
	n := len(in)
	table := make([]float64, 4*n)
	for m := range table {
		table[m] = math.Cos(math.Pi * float64(m) / float64(2*n))
	}
	c := make([]float64, n)
	for k := range c {
		c[k] = math.Sqrt(2 / float64(n))
	}
	c[0] = math.Sqrt(1 / float64(n))
	for o := range out {
		// Forward sums samples i for coefficient k=o: m = (2i+1)o steps by
		// 2o. Inverse sums coefficients k for sample i=o: m = (2o+1)k steps
		// by 2o+1.
		m, step := o, 2*o
		if !forward {
			m, step = 0, 2*o+1
		}
		var s float64
		for j, v := range in {
			if forward {
				s += v * table[m]
			} else {
				s += c[j] * v * table[m]
			}
			if m += step; m >= 4*n {
				m -= 4 * n
			}
		}
		if forward {
			s *= c[o]
		}
		out[o] = s
	}
}

// applyAxisDirect transforms every line of x along axis k of dims with the
// direct reference transform, using the same strided line enumeration PlanND
// documents.
func applyAxisDirect(x []float64, dims []int, k int, forward bool) {
	n := dims[k]
	stride := 1
	for i := k + 1; i < len(dims); i++ {
		stride *= dims[i]
	}
	size := len(x)
	lines := size / n
	buf := make([]float64, n)
	out := make([]float64, n)
	for l := 0; l < lines; l++ {
		base := (l/stride)*stride*n + l%stride
		for i := 0; i < n; i++ {
			buf[i] = x[base+i*stride]
		}
		directDCT(out, buf, forward)
		for i := 0; i < n; i++ {
			x[base+i*stride] = out[i]
		}
	}
}

// ndDirect is the separable ND reference: one direct pass per axis, last to
// first, matching PlanND's documented pass order.
func ndDirect(src []float64, dims []int, forward bool) []float64 {
	out := append([]float64(nil), src...)
	for k := len(dims) - 1; k >= 0; k-- {
		applyAxisDirect(out, dims, k, forward)
	}
	return out
}

// ndShapes enumerates 1- to 4-axis shapes over the radix-2 axis lengths
// {1, 8, 64}, trimmed to keep the direct reference fast.
func ndShapes() [][]int {
	return [][]int{
		{1}, {8}, {64},
		{1, 8}, {8, 8}, {64, 8}, {8, 64}, {1, 64},
		{1, 8, 8}, {8, 1, 8}, {8, 8, 1}, {8, 8, 8}, {64, 8, 8},
		{1, 8, 8, 8}, {8, 1, 8, 1}, {8, 8, 8, 8},
	}
}

// shapes2D are the 2-axis landscape grids: Table 1's 50x100 and the other
// non-power-of-two shapes whose axis passes take the dense path (several
// column blocks per strided pass), plus degenerate single-line grids above
// the serial floor on the radix-2 FFT path.
func shapes2D() [][]int {
	return [][]int{{50, 100}, {70, 90}, {144, 225}, {1, 16384}, {16384, 1}}
}

func randND(rng *rand.Rand, dims []int) []float64 {
	size := 1
	for _, d := range dims {
		size *= d
	}
	return randVec(rng, size)
}

// checkSeparableDirect pins PlanND to the axis-by-axis direct reference,
// forward and inverse.
func checkSeparableDirect(t *testing.T, rng *rand.Rand, shapes [][]int) {
	t.Helper()
	for _, dims := range shapes {
		p := NewPlanND(dims)
		src := randND(rng, dims)
		for _, forward := range []bool{true, false} {
			got := make([]float64, len(src))
			want := ndDirect(src, dims, forward)
			if forward {
				p.Forward(got, src)
			} else {
				p.Inverse(got, src)
			}
			for i := range got {
				if !approxEq(got[i], want[i], 1e-9) {
					t.Fatalf("dims %v forward=%v: [%d] = %g, want %g", dims, forward, i, got[i], want[i])
				}
			}
		}
	}
}

// checkRoundTrip: Inverse(Forward(x)) == x.
func checkRoundTrip(t *testing.T, rng *rand.Rand, shapes [][]int) {
	t.Helper()
	for _, dims := range shapes {
		p := NewPlanND(dims)
		x := randND(rng, dims)
		fwd := make([]float64, len(x))
		p.Forward(fwd, x)
		back := make([]float64, len(x))
		p.Inverse(back, fwd)
		for i := range x {
			if !approxEq(back[i], x[i], 1e-8) {
				t.Fatalf("dims %v: round trip [%d] = %g, want %g", dims, i, back[i], x[i])
			}
		}
	}
}

// checkIsometry: the orthonormal ND DCT preserves the l2 norm, which the CS
// solver relies on for its unit step size.
func checkIsometry(t *testing.T, rng *rand.Rand, shapes [][]int) {
	t.Helper()
	for _, dims := range shapes {
		p := NewPlanND(dims)
		x := randND(rng, dims)
		y := make([]float64, len(x))
		p.Forward(y, x)
		var nx, ny float64
		for i := range x {
			nx += x[i] * x[i]
			ny += y[i] * y[i]
		}
		if math.Abs(nx-ny) > 1e-8*nx {
			t.Fatalf("dims %v: norm changed: %g -> %g", dims, nx, ny)
		}
	}
}

// checkParallelBitIdentical is the sharded-solver contract: a parallel plan
// produces bit-for-bit the serial plan's output for every worker count, both
// directions, on grids above and below the serial fallback.
func checkParallelBitIdentical(t *testing.T, rng *rand.Rand, shapes [][]int) {
	t.Helper()
	for _, dims := range shapes {
		x := randND(rng, dims)
		serial := NewPlanND(dims)
		wantF := make([]float64, len(x))
		serial.Forward(wantF, x)
		wantI := make([]float64, len(x))
		serial.Inverse(wantI, x)
		for _, workers := range []int{0, 2, 3, 4, 5, 8} {
			par := NewPlanNDWorkers(dims, workers)
			gotF := make([]float64, len(x))
			par.Forward(gotF, x)
			gotI := make([]float64, len(x))
			par.Inverse(gotI, x)
			for i := range wantF {
				if gotF[i] != wantF[i] {
					t.Fatalf("dims %v workers=%d: Forward[%d] %x, serial %x", dims, workers, i,
						math.Float64bits(gotF[i]), math.Float64bits(wantF[i]))
				}
				if gotI[i] != wantI[i] {
					t.Fatalf("dims %v workers=%d: Inverse[%d] %x, serial %x", dims, workers, i,
						math.Float64bits(gotI[i]), math.Float64bits(wantI[i]))
				}
			}
		}
	}
}

// denseStraddle are shapes whose axes straddle the dense-path cutoffs.
func denseStraddle() [][]int { return [][]int{{17, 16}, {257, 3}, {385, 3}, {12, 12, 12, 12}} }

func TestPlanNDMatchesSeparableDirect(t *testing.T) {
	checkSeparableDirect(t, rand.New(rand.NewSource(41)), append(ndShapes(), denseStraddle()...))
}

func TestPlan2DMatchesSeparableDirect(t *testing.T) {
	checkSeparableDirect(t, rand.New(rand.NewSource(8)), append([][]int{{6, 9}}, shapes2D()...))
}

func TestPlanNDRoundTrip(t *testing.T) {
	checkRoundTrip(t, rand.New(rand.NewSource(42)), ndShapes())
}

func TestPlan2DRoundTrip(t *testing.T) {
	checkRoundTrip(t, rand.New(rand.NewSource(7)), append([][]int{{1, 1}, {3, 5}, {12, 15}}, shapes2D()...))
}

func TestPlanNDIsometry(t *testing.T) {
	checkIsometry(t, rand.New(rand.NewSource(45)), append(append([][]int{{6, 10, 7}}, ndShapes()...), denseStraddle()...))
}

func TestPlan2DIsometry(t *testing.T) {
	checkIsometry(t, rand.New(rand.NewSource(9)), append([][]int{{17, 23}}, shapes2D()...))
}

func TestPlanNDParallelBitIdentical(t *testing.T) {
	checkParallelBitIdentical(t, rand.New(rand.NewSource(44)), append([][]int{{24, 16, 30}, {64, 8, 8, 3}, {8, 8, 8, 8, 3}}, denseStraddle()...))
}

func TestPlan2DParallelBitIdentical(t *testing.T) {
	checkParallelBitIdentical(t, rand.New(rand.NewSource(21)), append([][]int{{100, 120}, {3, 5}}, shapes2D()...))
}

// TestPlan2DDegenerateAxisMatches1D: a 1xN (or Nx1) plan must equal the 1-D
// plan bitwise — the length-1 pass on the degenerate axis is the exact
// identity and is skipped, and both plans choose the axis's path by the same
// length rule. The lengths straddle both dense-path cutoffs.
func TestPlan2DDegenerateAxisMatches1D(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 7, 16, 17, 32, 100, 256, 257, 384, 385, 1024, 5000} {
		x := randVec(rng, n)
		want := make([]float64, n)
		NewPlan(n).Forward(want, x)
		for _, dims := range [][]int{{1, n}, {n, 1}} {
			p := NewPlanND(dims)
			got := make([]float64, n)
			p.Forward(got, x)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("dims %v: Forward[%d]=%v, 1-D plan %v", dims, i, got[i], want[i])
				}
			}
			back := make([]float64, n)
			p.Inverse(back, got)
			for i := range back {
				if !approxEq(back[i], x[i], 1e-9) {
					t.Fatalf("dims %v: roundtrip[%d]=%g want %g", dims, i, back[i], x[i])
				}
			}
		}
	}
}

// TestPlan2DSerialFallback pins the small-grid rule: under serialMinSize
// (10000) points, sv-cold's 50x100 grid and fleet-p2's 8^4 among them, a
// parallel plan degrades to one worker.
func TestPlan2DSerialFallback(t *testing.T) {
	cases := []struct {
		dims    []int
		workers int
		want    int
	}{
		{[]int{10, 10}, 8, 1},
		{[]int{50, 100}, 8, 1},
		{[]int{8, 8, 8, 8}, 8, 1},
		{[]int{99, 101}, 8, 1}, // 9999 points
		{[]int{100, 100}, 8, 8},
		{[]int{10, 10, 12, 12}, 8, 8},
	}
	for _, c := range cases {
		if w := NewPlanNDWorkers(c.dims, c.workers).Workers(); w != c.want {
			t.Errorf("dims %v plan reports %d workers, want %d", c.dims, w, c.want)
		}
	}
	// Worker count never exceeds the busiest pass's line count.
	if w := NewPlanNDWorkers([]int{2, 8192}, 32768).Workers(); w > 8192 {
		t.Errorf("2x8192 plan reports %d workers, want <= 8192", w)
	}
	if NewPlanNDWorkers([]int{100, 100}, 0).Workers() < 1 {
		t.Error("workers=0 must resolve to at least one worker")
	}
}

// TestPlan2DParallelReuse exercises a parallel plan repeatedly (the FISTA
// loop's access pattern) to shake out scratch-buffer sharing bugs under the
// race detector.
func TestPlan2DParallelReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	p := NewPlanNDWorkers([]int{100, 120}, 4)
	x := randVec(rng, 12000)
	first := make([]float64, 12000)
	p.Forward(first, x)
	for trial := 0; trial < 10; trial++ {
		got := make([]float64, 12000)
		p.Forward(got, x)
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("trial %d: Forward[%d] drifted: %v vs %v", trial, i, got[i], first[i])
			}
		}
	}
}

func TestPlan2DPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape 0x5")
		}
	}()
	NewPlanND([]int{0, 5})
}

// TestPlanNDValidation: bad shapes panic, mismatched lengths panic.
func TestPlanNDValidation(t *testing.T) {
	for _, dims := range [][]int{nil, {}, {0}, {4, -1}, {4, 0, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("dims %v: no panic", dims)
				}
			}()
			NewPlanND(dims)
		}()
	}
	p := NewPlanND([]int{4, 4})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("length mismatch: no panic")
			}
		}()
		p.Forward(make([]float64, 15), make([]float64, 16))
	}()
}

// TestPlanNDAllDegenerate: an all-ones shape is the identity transform.
func TestPlanNDAllDegenerate(t *testing.T) {
	p := NewPlanND([]int{1, 1, 1})
	src := []float64{3.25}
	dst := make([]float64, 1)
	p.Forward(dst, src)
	if dst[0] != 3.25 {
		t.Fatalf("degenerate forward = %g", dst[0])
	}
	p.Inverse(dst, dst)
	if dst[0] != 3.25 {
		t.Fatalf("degenerate inverse = %g", dst[0])
	}
}

// TestDensePathMatchesReference pins the dense cosine-matrix path for every
// length it could take (and beyond the cutoff): against the direct
// reference, against the FFT path of the same length, and round trip.
func TestDensePathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for n := 1; n <= denseMaxLen+16; n++ {
		dense, fft := newPlan(n, true), newPlan(n, false)
		x := randVec(rng, n)
		for _, forward := range []bool{true, false} {
			want := make([]float64, n)
			directDCT(want, x, forward)
			got, viaFFT := make([]float64, n), make([]float64, n)
			if forward {
				dense.Forward(got, x)
				fft.Forward(viaFFT, x)
			} else {
				dense.Inverse(got, x)
				fft.Inverse(viaFFT, x)
			}
			for i := range got {
				if !approxEq(got[i], want[i], 1e-12) {
					t.Fatalf("n=%d forward=%v: dense[%d] = %g, direct %g", n, forward, i, got[i], want[i])
				}
				if !approxEq(got[i], viaFFT[i], 1e-13) {
					t.Fatalf("n=%d forward=%v: dense[%d] = %g, FFT path %g", n, forward, i, got[i], viaFFT[i])
				}
			}
		}
		back := append([]float64(nil), x...)
		dense.Forward(back, back)
		dense.Inverse(back, back)
		for i := range back {
			if !approxEq(back[i], x[i], 1e-12) {
				t.Fatalf("n=%d: dense round trip [%d] = %g, want %g", n, i, back[i], x[i])
			}
		}
	}
}

// TestPlanNDDenseScratchBounded: a dense strided axis's per-worker scratch is
// capped at n×denseCols floats, however long the axis's stride.
func TestPlanNDDenseScratchBounded(t *testing.T) {
	p := NewPlanNDWorkers([]int{20, 3, 4096}, 2)
	for k, a := range p.axes[:2] {
		if a.plans[0].mat == nil {
			t.Fatalf("axis %d (n=%d) not on the dense path", k, a.n)
		}
		for slot, s := range a.scratch {
			if len(s) > a.n*denseCols {
				t.Errorf("axis %d slot %d: %d scratch floats, cap %d", k, slot, len(s), a.n*denseCols)
			}
		}
	}
}

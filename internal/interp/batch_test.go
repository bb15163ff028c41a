package interp

import (
	"math"
	"math/rand"
	"testing"
)

// randomPoints draws n points of the given arity, roughly half inside the
// per-axis ranges and the rest beyond the hull on both sides, so batch tests
// exercise the clamp path too.
func randomPoints(rng *rand.Rand, n, arity int, lo, hi []float64) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, arity)
		for k := 0; k < arity; k++ {
			span := hi[k] - lo[k]
			p[k] = lo[k] - 0.5*span + 2*span*rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// TestClampToHull: queries beyond an axis range return exactly the value at
// the nearest hull point — no extrapolation — for Spline, Bicubic, and
// NDSpline.
func TestClampToHull(t *testing.T) {
	xs := knots(0, 2, 9)
	ys := make([]float64, len(xs))
	rng := rand.New(rand.NewSource(11))
	for i := range ys {
		ys[i] = rng.NormFloat64()
	}
	sp, err := NewSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sp.At(-5), sp.At(0); got != want {
		t.Fatalf("At(-5)=%g, want hull value %g", got, want)
	}
	if got, want := sp.At(99), sp.At(2); got != want {
		t.Fatalf("At(99)=%g, want hull value %g", got, want)
	}
	if got, want := sp.At(-5), ys[0]; got != want {
		t.Fatalf("At(-5)=%g, want first knot value %g", got, want)
	}
	if got, want := sp.At(99), ys[len(ys)-1]; got != want {
		t.Fatalf("At(99)=%g, want last knot value %g", got, want)
	}

	gx, gy := knots(0, 1, 7), knots(-1, 1, 8)
	data := make([]float64, len(gx)*len(gy))
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	bi, err := NewBicubic(gx, gy, data)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := NewNDSpline([][]float64{gx, gy}, data)
	if err != nil {
		t.Fatal(err)
	}
	cases := [][2][]float64{
		{{-3, 0.5}, {0, 0.5}},      // below the x hull
		{{2, 0.5}, {1, 0.5}},       // above the x hull
		{{0.5, -9}, {0.5, -1}},     // below the y hull
		{{0.5, 9}, {0.5, 1}},       // above the y hull
		{{-3, 42}, {0, 1}},         // both out, opposite corners
		{{1e300, -1e300}, {1, -1}}, // extreme magnitudes clamp too
	}
	for _, c := range cases {
		out, hull := c[0], c[1]
		if got, want := bi.At(out[0], out[1]), bi.At(hull[0], hull[1]); got != want {
			t.Fatalf("bicubic At(%v)=%g, want hull value %g", out, got, want)
		}
		if got, want := nd.At(out), nd.At(hull); got != want {
			t.Fatalf("ndspline At(%v)=%g, want hull value %g", out, got, want)
		}
	}
}

// TestBicubicAtPointsMatchesAt: the batch path is bit-identical to pointwise
// At for every worker count, including out-of-hull points.
func TestBicubicAtPointsMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	xs, ys := knots(0, 3, 13), knots(-2, 2, 17)
	data := make([]float64, len(xs)*len(ys))
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	bi, err := NewBicubic(xs, ys, data)
	if err != nil {
		t.Fatal(err)
	}
	pts := randomPoints(rng, 257, 2, []float64{0, -2}, []float64{3, 2})
	want := make([]float64, len(pts))
	for i, p := range pts {
		want[i] = bi.At(p[0], p[1])
	}
	wantG := make([][]float64, len(pts))
	for i, p := range pts {
		dx, dy := bi.Gradient(p[0], p[1])
		wantG[i] = []float64{dx, dy}
	}
	for _, workers := range []int{1, 2, 3, 7, 64} {
		bi.SetWorkers(workers)
		got := make([]float64, len(pts))
		if err := bi.AtPoints(got, pts); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: point %d: batch %g != pointwise %g", workers, i, got[i], want[i])
			}
		}
		gotG := make([][]float64, len(pts))
		for i := range gotG {
			gotG[i] = make([]float64, 2)
		}
		if err := bi.GradientAtPoints(gotG, pts); err != nil {
			t.Fatal(err)
		}
		for i := range gotG {
			for k := 0; k < 2; k++ {
				if math.Float64bits(gotG[i][k]) != math.Float64bits(wantG[i][k]) {
					t.Fatalf("workers=%d: gradient %d[%d]: batch %g != pointwise %g",
						workers, i, k, gotG[i][k], wantG[i][k])
				}
			}
		}
	}
}

// TestNDSplineAtPointsMatchesAt: same contract on a 3-axis grid.
func TestNDSplineAtPointsMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	axes := [][]float64{knots(0, 1, 6), knots(0, 2, 7), knots(-1, 1, 8)}
	data := make([]float64, 6*7*8)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	nd, err := NewNDSpline(axes, data)
	if err != nil {
		t.Fatal(err)
	}
	pts := randomPoints(rng, 129, 3, []float64{0, 0, -1}, []float64{1, 2, 1})
	want := make([]float64, len(pts))
	wantG := make([][]float64, len(pts))
	for i, p := range pts {
		want[i] = nd.At(p)
		wantG[i] = nd.Gradient(p)
	}
	for _, workers := range []int{1, 2, 5, 32} {
		nd.SetWorkers(workers)
		got := make([]float64, len(pts))
		if err := nd.AtPoints(got, pts); err != nil {
			t.Fatal(err)
		}
		gotG := make([][]float64, len(pts))
		for i := range gotG {
			gotG[i] = make([]float64, 3)
		}
		if err := nd.GradientAtPoints(gotG, pts); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: point %d: batch %g != pointwise %g", workers, i, got[i], want[i])
			}
			for k := 0; k < 3; k++ {
				if math.Float64bits(gotG[i][k]) != math.Float64bits(wantG[i][k]) {
					t.Fatalf("workers=%d: gradient %d[%d] mismatch", workers, i, k)
				}
			}
		}
	}
}

// TestBatchValidation: misaligned dst, wrong-arity points, and short
// gradient vectors are rejected before any evaluation.
func TestBatchValidation(t *testing.T) {
	xs := knots(0, 1, 4)
	data := make([]float64, 16)
	bi, err := NewBicubic(xs, xs, data)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := NewNDSpline([][]float64{xs, xs}, data)
	if err != nil {
		t.Fatal(err)
	}
	good := [][]float64{{0.5, 0.5}}
	if err := bi.AtPoints(make([]float64, 2), good); err == nil {
		t.Error("bicubic: want error for dst/pts length mismatch")
	}
	if err := nd.AtPoints(make([]float64, 2), good); err == nil {
		t.Error("ndspline: want error for dst/pts length mismatch")
	}
	bad := [][]float64{{0.5, 0.5, 0.5}}
	if err := bi.AtPoints(make([]float64, 1), bad); err == nil {
		t.Error("bicubic: want error for 3-coordinate point")
	}
	if err := nd.AtPoints(make([]float64, 1), bad); err == nil {
		t.Error("ndspline: want error for 3-coordinate point")
	}
	if err := bi.GradientAtPoints([][]float64{{0}}, good); err == nil {
		t.Error("bicubic: want error for short gradient vector")
	}
	if err := nd.GradientAtPoints([][]float64{{0}}, good); err == nil {
		t.Error("ndspline: want error for short gradient vector")
	}
}

// TestFitChoosesByArity: Fit returns an NDSpline of the axis count's arity,
// 2 axes included.
func TestFitChoosesByArity(t *testing.T) {
	xs := knots(0, 1, 4)
	ip2, err := Fit([][]float64{xs, xs}, make([]float64, 16))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ip2.(*NDSpline); !ok {
		t.Fatalf("2-axis fit is %T, want *NDSpline", ip2)
	}
	ip3, err := Fit([][]float64{xs, xs, xs}, make([]float64, 64))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ip3.(*NDSpline); !ok {
		t.Fatalf("3-axis fit is %T, want *NDSpline", ip3)
	}
	if ip2.Arity() != 2 || ip3.Arity() != 3 {
		t.Fatalf("arity %d/%d, want 2/3", ip2.Arity(), ip3.Arity())
	}
}

// BenchmarkAtPoints measures one 512-point surrogate query at 1 worker on
// the query-lru grid (32x64), the paper's Table 1 grid (50x100) and a p=2
// grid (8^4): batch evaluation, batch gradients, and the fit itself.
func BenchmarkAtPoints(b *testing.B) {
	for _, c := range []struct {
		name string
		dims []int
	}{
		{"32x64", []int{32, 64}},
		{"50x100", []int{50, 100}},
		{"8^4", []int{8, 8, 8, 8}},
	} {
		rng := rand.New(rand.NewSource(31))
		axes := make([][]float64, len(c.dims))
		lo := make([]float64, len(c.dims))
		hi := make([]float64, len(c.dims))
		size := 1
		for k, n := range c.dims {
			lo[k], hi[k] = 0, 1
			axes[k] = knots(0, 1, n)
			size *= n
		}
		data := make([]float64, size)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		pts := make([][]float64, 512)
		for i := range pts {
			pts[i] = make([]float64, len(c.dims))
			for k := range pts[i] {
				pts[i][k] = rng.Float64()
			}
		}
		nd, err := NewNDSpline(axes, data)
		if err != nil {
			b.Fatal(err)
		}
		nd.SetWorkers(1)
		b.Run(c.name+"/eval", func(b *testing.B) {
			dst := make([]float64, len(pts))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := nd.AtPoints(dst, pts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/grad", func(b *testing.B) {
			dst := make([][]float64, len(pts))
			for i := range dst {
				dst[i] = make([]float64, len(c.dims))
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := nd.GradientAtPoints(dst, pts); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/fit", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewNDSpline(axes, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

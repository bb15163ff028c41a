package interp

import (
	"math"
	"math/rand"
	"testing"
)

func knots(lo, hi float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return xs
}

// TestNDSplineMatchesSpline1D: a 1-axis NDSpline is exactly the 1-D Spline.
func TestNDSplineMatchesSpline1D(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	xs := knots(-1, 2, 17)
	ys := make([]float64, len(xs))
	for i := range ys {
		ys[i] = rng.NormFloat64()
	}
	sp, err := NewSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	nd, err := NewNDSpline([][]float64{xs}, ys)
	if err != nil {
		t.Fatal(err)
	}
	for q := -1.3; q <= 2.3; q += 0.037 {
		a, b := sp.At(q), nd.At([]float64{q})
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("at %g: spline %g != ndspline %g", q, a, b)
		}
	}
}

// TestNDSplineReproducesKnots3D: the interpolant passes through every knot
// of a 3-axis grid and recovers a smooth separable function between knots.
func TestNDSplineReproducesKnots3D(t *testing.T) {
	axes := [][]float64{knots(0, 1, 8), knots(0, 2, 9), knots(-1, 1, 10)}
	fn := func(x, y, z float64) float64 {
		return math.Sin(2*x) + math.Cos(y)*z
	}
	data := make([]float64, 8*9*10)
	i := 0
	for _, x := range axes[0] {
		for _, y := range axes[1] {
			for _, z := range axes[2] {
				data[i] = fn(x, y, z)
				i++
			}
		}
	}
	nd, err := NewNDSpline(axes, data)
	if err != nil {
		t.Fatal(err)
	}
	if nd.Arity() != 3 {
		t.Fatalf("arity %d", nd.Arity())
	}
	i = 0
	for _, x := range axes[0] {
		for _, y := range axes[1] {
			for _, z := range axes[2] {
				if got := nd.At([]float64{x, y, z}); math.Abs(got-data[i]) > 1e-10 {
					t.Fatalf("knot (%g,%g,%g): %g, want %g", x, y, z, got, data[i])
				}
				i++
			}
		}
	}
	// Off-knot queries track the smooth function closely.
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 100; trial++ {
		x, y, z := rng.Float64(), 2*rng.Float64(), -1+2*rng.Float64()
		got := nd.At([]float64{x, y, z})
		want := fn(x, y, z)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("(%g,%g,%g): %g vs %g", x, y, z, got, want)
		}
	}
	// Gradient roughly matches the analytic partials mid-grid.
	p := []float64{0.5, 1.0, 0.25}
	g := nd.Gradient(p)
	want := []float64{2 * math.Cos(2*p[0]), -math.Sin(p[1]) * p[2], math.Cos(p[1])}
	for k := range g {
		if math.Abs(g[k]-want[k]) > 0.05 {
			t.Fatalf("gradient[%d] = %g, want ~%g", k, g[k], want[k])
		}
	}
}

func TestNDSplineValidation(t *testing.T) {
	good := knots(0, 1, 4)
	cases := []struct {
		name string
		axes [][]float64
		n    int
	}{
		{"no axes", nil, 0},
		{"size mismatch", [][]float64{good}, 5},
		{"one knot", [][]float64{{0}}, 1},
		{"non-increasing", [][]float64{{0, 1, 1, 2}}, 4},
		{"bad inner axis", [][]float64{{0, 0}, good}, 8},
		{"empty last axis", [][]float64{good, {}}, 0},
	}
	for _, c := range cases {
		if _, err := NewNDSpline(c.axes, make([]float64, c.n)); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

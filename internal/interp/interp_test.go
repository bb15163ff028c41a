package interp

import (
	"math"
	"math/rand"
	"testing"
)

func TestSplineInterpolatesKnots(t *testing.T) {
	xs := []float64{0, 1, 2.5, 4, 5}
	ys := []float64{1, -2, 0.5, 3, 2}
	s, err := NewSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if got := s.At(xs[i]); math.Abs(got-ys[i]) > 1e-10 {
			t.Fatalf("At(%g)=%g want %g", xs[i], got, ys[i])
		}
	}
}

func TestSplineReproducesLinearFunction(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, 5)
	for i, x := range xs {
		ys[i] = 2*x - 1
	}
	s, err := NewSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.0; x <= 4; x += 0.13 {
		if got := s.At(x); math.Abs(got-(2*x-1)) > 1e-9 {
			t.Fatalf("At(%g)=%g want %g", x, got, 2*x-1)
		}
	}
}

func TestSplineApproximatesSmoothFunction(t *testing.T) {
	n := 30
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) / float64(n-1) * 2 * math.Pi
		ys[i] = math.Sin(xs[i])
	}
	s, err := NewSpline(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.1; x < 2*math.Pi; x += 0.037 {
		if got := s.At(x); math.Abs(got-math.Sin(x)) > 1e-3 {
			t.Fatalf("At(%g)=%g want %g", x, got, math.Sin(x))
		}
	}
}

func TestSplineTwoKnotsIsLinear(t *testing.T) {
	s, err := NewSpline([]float64{0, 2}, []float64{1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.At(1); math.Abs(got-3) > 1e-12 {
		t.Fatalf("At(1)=%g want 3", got)
	}
}

func TestSplineValidation(t *testing.T) {
	if _, err := NewSpline([]float64{0, 1}, []float64{1}); err == nil {
		t.Error("want error for length mismatch")
	}
	if _, err := NewSpline([]float64{0}, []float64{1}); err == nil {
		t.Error("want error for single knot")
	}
	if _, err := NewSpline([]float64{0, 0, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("want error for non-increasing xs")
	}
}

func TestBicubicInterpolatesGrid(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0, 0.5, 1, 1.5, 2}
	data := make([]float64, len(xs)*len(ys))
	f := func(x, y float64) float64 { return x*x - 2*y + x*y }
	for i, x := range xs {
		for j, y := range ys {
			data[i*len(ys)+j] = f(x, y)
		}
	}
	b, err := NewBicubic(xs, ys, data)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		for j, y := range ys {
			if got := b.At(x, y); math.Abs(got-data[i*len(ys)+j]) > 1e-9 {
				t.Fatalf("At(%g,%g)=%g want %g", x, y, got, data[i*len(ys)+j])
			}
		}
	}
}

func TestBicubicApproximatesSmoothSurface(t *testing.T) {
	n, m := 25, 30
	xs := make([]float64, n)
	ys := make([]float64, m)
	for i := range xs {
		xs[i] = float64(i) / float64(n-1) * math.Pi
	}
	for j := range ys {
		ys[j] = float64(j) / float64(m-1) * math.Pi
	}
	f := func(x, y float64) float64 { return math.Sin(x) * math.Cos(y) }
	data := make([]float64, n*m)
	for i := range xs {
		for j := range ys {
			data[i*m+j] = f(xs[i], ys[j])
		}
	}
	b, err := NewBicubic(xs, ys, data)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 200; trial++ {
		x := rng.Float64() * math.Pi
		y := rng.Float64() * math.Pi
		if got := b.At(x, y); math.Abs(got-f(x, y)) > 2e-3 {
			t.Fatalf("At(%g,%g)=%g want %g", x, y, got, f(x, y))
		}
	}
}

func TestBicubicGradient(t *testing.T) {
	// f = x^2 + 3y on a fine grid: gradient ~ (2x, 3).
	n := 40
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i) / float64(n-1) * 2
		ys[i] = xs[i]
	}
	data := make([]float64, n*n)
	for i := range xs {
		for j := range ys {
			data[i*n+j] = xs[i]*xs[i] + 3*ys[j]
		}
	}
	b, err := NewBicubic(xs, ys, data)
	if err != nil {
		t.Fatal(err)
	}
	dx, dy := b.Gradient(1, 1)
	if math.Abs(dx-2) > 0.02 || math.Abs(dy-3) > 0.02 {
		t.Fatalf("gradient (%g,%g) want (2,3)", dx, dy)
	}
}

func TestBicubicValidation(t *testing.T) {
	if _, err := NewBicubic([]float64{0, 1}, []float64{0, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("want error for data size mismatch")
	}
	if _, err := NewBicubic([]float64{0}, []float64{0, 1}, []float64{1, 2}); err == nil {
		t.Error("want error for 1-row grid")
	}
}

// TestGradientOnHullFace: on a face of the grid hull the gradient is the
// one-sided derivative from inside the grid, not half of it, and outside
// the hull it is zero along the clamped axis. f = 3x + 0.5y is reproduced
// exactly by the natural spline, so the true gradient is (3, 0.5)
// everywhere inside.
func TestGradientOnHullFace(t *testing.T) {
	xs, ys := knots(0, 1, 11), knots(0, 2, 9)
	data := make([]float64, len(xs)*len(ys))
	for i, x := range xs {
		for j, y := range ys {
			data[i*len(ys)+j] = 3*x + 0.5*y
		}
	}
	b, err := NewBicubic(xs, ys, data)
	if err != nil {
		t.Fatal(err)
	}
	const h = 1e-7
	for _, c := range []struct {
		name   string
		x, y   float64
		dx, dy float64 // inward step along each axis
	}{
		{"x=0 face", 0, 0.7, h, h},
		{"y=2 face", 0.4, 2, h, -h},
		{"x=1,y=0 corner", 1, 0, -h, h},
	} {
		gx, gy := b.Gradient(c.x, c.y)
		inX := (b.At(c.x+c.dx, c.y) - b.At(c.x, c.y)) / c.dx
		inY := (b.At(c.x, c.y+c.dy) - b.At(c.x, c.y)) / c.dy
		if math.Abs(gx-inX) > 1e-6 || math.Abs(gy-inY) > 1e-6 {
			t.Errorf("%s: gradient (%g, %g), inside derivative (%g, %g)", c.name, gx, gy, inX, inY)
		}
		if math.Abs(gx-3) > 1e-9 || math.Abs(gy-0.5) > 1e-9 {
			t.Errorf("%s: gradient (%g, %g), want (3, 0.5)", c.name, gx, gy)
		}
	}
	if gx, gy := b.Gradient(-1, 0.7); gx != 0 || math.Abs(gy-0.5) > 1e-9 {
		t.Errorf("outside the x hull: gradient (%g, %g), want (0, 0.5)", gx, gy)
	}
}

// Package interp implements natural cubic spline interpolation in one, two,
// and N dimensions. OSCAR interpolates reconstructed landscapes so classical
// optimizers can query arbitrary continuous parameter values without running
// circuits (Section 7 of the paper uses rectangular bivariate splines; the
// tensor-product NDSpline extends the same construction to p>1 QAOA
// landscapes with 2p parameter axes).
//
// Out-of-domain queries clamp to the grid hull: every coordinate is clamped
// into its axis's knot range before evaluation, so an interpolant never
// extrapolates beyond the data it was fitted to. A query outside the hull
// returns exactly the value at the nearest hull point along each axis — the
// behavior a public query endpoint can expose without serving polynomial
// extrapolation garbage.
//
// Fitting does the spline solves once. An NDSpline stores four tables over
// its last two axes, 4x the grid's memory: the data and its second
// derivatives along each of those axes and across both. A query evaluates
// the 16 corner terms of its cell, with each axis's cubic weights computed
// once per point; only grids with 3 or more axes still fit cross splines
// along their leading axes at query time, through tridiagonal systems
// factorized at construction.
//
// Gradients are exact: the analytic derivative of the same piecewise cubic
// the values come from. On the hull boundary a component is the one-sided
// derivative from inside the grid; along an axis where the query lies
// outside the hull the interpolant is constant and the component is zero.
//
// The vectorized AtPoints/GradientAtPoints batch read path shards across
// workers via shard.ForRange with the engine's usual determinism convention:
// results are bit-identical for every worker count.
package interp

import (
	"fmt"
	"sort"
)

// tri is the precomputed Thomas-algorithm factorization of the natural-cubic-
// spline tridiagonal system for a fixed knot vector. The elimination of the
// (a, b, c) bands does not depend on the right-hand side, so it runs once at
// construction; fitting values against the same knots afterwards is two O(n)
// substitution sweeps with zero allocations. The arithmetic — operation by
// operation, in order — matches a from-scratch Thomas solve, so fits through
// a tri are bit-identical to the historical per-query NewSpline path.
type tri struct {
	xs []float64
	c  []float64 // superdiagonal of the original system (nil for 2 knots)
	w  []float64 // forward-elimination multipliers a[i]/b'[i-1]
	b  []float64 // diagonal after forward elimination
}

// newTri factorizes the natural-spline system over xs (len >= 2, strictly
// increasing — validated by the caller). Two knots need no system: the
// segment is linear and fit leaves the second derivatives at zero.
func newTri(xs []float64) *tri {
	n := len(xs)
	t := &tri{xs: xs}
	if n == 2 {
		return t
	}
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	w := make([]float64, n)
	b[0], b[n-1] = 1, 1
	for i := 1; i < n-1; i++ {
		hPrev := xs[i] - xs[i-1]
		hNext := xs[i+1] - xs[i]
		a[i] = hPrev
		b[i] = 2 * (hPrev + hNext)
		c[i] = hNext
	}
	for i := 1; i < n; i++ {
		w[i] = a[i] / b[i-1]
		b[i] -= w[i] * c[i-1]
	}
	t.c, t.w, t.b = c, w, b
	return t
}

// fit computes the natural-spline second derivatives m (len n) for knot
// values ys, using d (len n) as right-hand-side scratch. No allocations.
func (t *tri) fit(ys, m, d []float64) {
	xs := t.xs
	n := len(xs)
	if n == 2 {
		m[0], m[1] = 0, 0
		return
	}
	d[0], d[n-1] = 0, 0
	for i := 1; i < n-1; i++ {
		hPrev := xs[i] - xs[i-1]
		hNext := xs[i+1] - xs[i]
		d[i] = 6 * ((ys[i+1]-ys[i])/hNext - (ys[i]-ys[i-1])/hPrev)
	}
	for i := 1; i < n; i++ {
		d[i] -= t.w[i] * d[i-1]
	}
	m[n-1] = d[n-1] / t.b[n-1]
	for i := n - 2; i >= 0; i-- {
		m[i] = (d[i] - t.c[i]*m[i+1]) / t.b[i]
	}
}

// evalClamped evaluates the natural cubic spline with knots xs, values ys,
// and second derivatives m at x, clamping x into [xs[0], xs[n-1]] first so
// the interpolant never extrapolates beyond the grid hull. Two-knot splines
// keep their dedicated linear form (it is not the same floating-point
// expression as the general segment formula, and callers rely on bit
// stability).
func evalClamped(xs, ys, m []float64, x float64) float64 {
	n := len(xs)
	if x < xs[0] {
		x = xs[0]
	} else if x > xs[n-1] {
		x = xs[n-1]
	}
	if n == 2 {
		t := (x - xs[0]) / (xs[1] - xs[0])
		return ys[0]*(1-t) + ys[1]*t
	}
	i := sort.SearchFloat64s(xs, x)
	switch {
	case i <= 0:
		i = 1
	case i >= n:
		i = n - 1
	}
	lo, hi := i-1, i
	h := xs[hi] - xs[lo]
	A := (xs[hi] - x) / h
	B := (x - xs[lo]) / h
	return A*ys[lo] + B*ys[hi] +
		((A*A*A-A)*m[lo]+(B*B*B-B)*m[hi])*h*h/6
}

// Spline is a natural cubic spline through (x_i, y_i) knots.
type Spline struct {
	x, y []float64
	m    []float64 // second derivatives at knots
}

// NewSpline fits a natural cubic spline. xs must be strictly increasing and
// len(xs) == len(ys) >= 2.
func NewSpline(xs, ys []float64) (*Spline, error) {
	n := len(xs)
	if n != len(ys) {
		return nil, fmt.Errorf("interp: %d xs but %d ys", n, len(ys))
	}
	if n < 2 {
		return nil, fmt.Errorf("interp: need >= 2 knots, got %d", n)
	}
	for i := 1; i < n; i++ {
		if !(xs[i] > xs[i-1]) {
			return nil, fmt.Errorf("interp: xs not strictly increasing at %d", i)
		}
	}
	s := &Spline{
		x: append([]float64(nil), xs...),
		y: append([]float64(nil), ys...),
		m: make([]float64, n),
	}
	newTri(s.x).fit(s.y, s.m, make([]float64, n))
	return s, nil
}

// At evaluates the spline, clamping queries outside the knot range to the
// hull: At(x) for x beyond the first or last knot returns the boundary knot's
// value, never an extrapolation.
func (s *Spline) At(x float64) float64 {
	return evalClamped(s.x, s.y, s.m, x)
}

// Bicubic is a tensor-product natural cubic spline on a rectangular grid,
// the "rectangular bivariate spline" of the paper's Section 7. It is a
// 2-axis NDSpline under an (x, y) signature: the batch and Interpolator
// methods are NDSpline's own, and At, Gradient, and SetWorkers delegate to
// it. Queries outside the grid clamp to the hull coordinate-wise.
type Bicubic struct {
	*NDSpline
}

// NewBicubic fits a bicubic interpolant to row-major data of shape
// len(xs) x len(ys). xs are the row-axis coordinates and ys the column-axis
// coordinates, both strictly increasing with at least 2 knots.
func NewBicubic(xs, ys, data []float64) (*Bicubic, error) {
	nd, err := NewNDSpline([][]float64{xs, ys}, data)
	if err != nil {
		return nil, err
	}
	return &Bicubic{nd}, nil
}

// At evaluates the surface at (x, y), clamping out-of-domain coordinates to
// the grid hull.
func (b *Bicubic) At(x, y float64) float64 {
	return b.NDSpline.At([]float64{x, y})
}

// Gradient returns the exact surface gradient at (x, y): the inside
// derivative on the hull boundary, zero along an axis clamped outside the
// hull; see NDSpline.Gradient.
func (b *Bicubic) Gradient(x, y float64) (dx, dy float64) {
	g := b.NDSpline.Gradient([]float64{x, y})
	return g[0], g[1]
}

// SetWorkers sets the worker budget for the batch methods and returns the
// receiver for chaining; see NDSpline.SetWorkers.
func (b *Bicubic) SetWorkers(w int) *Bicubic {
	b.NDSpline.SetWorkers(w)
	return b
}

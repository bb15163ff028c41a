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
// All per-axis tridiagonal systems are factorized once at construction
// (the factorization depends only on the knot positions), so queries — and
// in particular the vectorized AtPoints/GradientAtPoints batch read path —
// never re-run the Thomas elimination on the matrix, only the O(n)
// substitution for the right-hand side. The batch methods shard across
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
// the "rectangular bivariate spline" of the paper's Section 7. Queries
// outside the grid clamp to the hull coordinate-wise. The zero worker budget
// means GOMAXPROCS for the batch methods; see SetWorkers.
type Bicubic struct {
	xs, ys  []float64 // row coordinates (len rows), column coordinates (len cols)
	rows    []*Spline // one spline per grid row, along the column axis
	cross   *tri      // factorized row-axis system, shared by every query
	workers int
}

// NewBicubic fits a bicubic interpolant to row-major data of shape
// len(xs) x len(ys). xs are the row-axis coordinates and ys the column-axis
// coordinates, both strictly increasing.
func NewBicubic(xs, ys, data []float64) (*Bicubic, error) {
	rows, cols := len(xs), len(ys)
	if rows*cols != len(data) {
		return nil, fmt.Errorf("interp: %d values for %dx%d grid", len(data), rows, cols)
	}
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("interp: grid must be at least 2x2, got %dx%d", rows, cols)
	}
	b := &Bicubic{
		xs:   append([]float64(nil), xs...),
		ys:   append([]float64(nil), ys...),
		rows: make([]*Spline, rows),
	}
	for r := 0; r < rows; r++ {
		sp, err := NewSpline(ys, data[r*cols:(r+1)*cols])
		if err != nil {
			return nil, err
		}
		b.rows[r] = sp
	}
	for i := 1; i < rows; i++ {
		if !(xs[i] > xs[i-1]) {
			return nil, fmt.Errorf("interp: xs not strictly increasing at %d", i)
		}
	}
	b.cross = newTri(b.xs)
	return b, nil
}

// bicubicScratch is the per-worker evaluation state of a Bicubic: the
// column-collapse vector plus the cross-spline fit buffers. One scratch
// serves any number of sequential queries with zero allocations.
type bicubicScratch struct {
	col, m, d []float64
}

func (b *Bicubic) newScratch() *bicubicScratch {
	n := len(b.rows)
	return &bicubicScratch{
		col: make([]float64, n),
		m:   make([]float64, n),
		d:   make([]float64, n),
	}
}

// at evaluates the surface at (x, y) using s for scratch: spline along
// columns within each row, then the prefactorized cross spline across rows.
func (b *Bicubic) at(x, y float64, s *bicubicScratch) float64 {
	for r, sp := range b.rows {
		s.col[r] = sp.At(y)
	}
	b.cross.fit(s.col, s.m, s.d)
	return evalClamped(b.xs, s.col, s.m, x)
}

// At evaluates the surface at (x, y), clamping out-of-domain coordinates to
// the grid hull.
func (b *Bicubic) At(x, y float64) float64 {
	return b.at(x, y, b.newScratch())
}

// grad estimates the gradient at (x, y) by central differences with steps
// proportional to the grid spacing, reusing s for every probe. Because
// evaluation clamps to the hull, the estimate degrades gracefully to a
// one-sided difference at the boundary (and to zero outside it).
func (b *Bicubic) grad(x, y float64, s *bicubicScratch) (dx, dy float64) {
	hx := (b.xs[len(b.xs)-1] - b.xs[0]) / float64(len(b.xs)-1) / 10
	hy := (b.ys[len(b.ys)-1] - b.ys[0]) / float64(len(b.ys)-1) / 10
	dx = (b.at(x+hx, y, s) - b.at(x-hx, y, s)) / (2 * hx)
	dy = (b.at(x, y+hy, s) - b.at(x, y-hy, s)) / (2 * hy)
	return dx, dy
}

// Gradient estimates the surface gradient at (x, y) by central differences
// with steps proportional to the grid spacing.
func (b *Bicubic) Gradient(x, y float64) (dx, dy float64) {
	return b.grad(x, y, b.newScratch())
}

package interp

import "fmt"

// NDSpline is a tensor-product natural cubic spline on an N-dimensional
// rectangular grid. Name the last two axes u (axis k-2) and v (axis k-1).
// Fitting stores four tables per grid point: the data f, its natural-spline
// second derivatives along v (f_vv) and along u (f_uu), and the mixed
// f_uuvv. A point then evaluates from the 16 corner terms of its (u, v)
// cell, with each axis's cubic weights computed once per point. On 2 axes
// that is the whole evaluation, and it is the same interpolant as the
// paper's "column splines, then a row spline" scheme (de Boor, A Practical
// Guide to Splines, tensor-product chapter). Grids with 3 or more axes
// evaluate every (u, v) slab that way, then collapse the leading axes one at
// a time with cross splines fitted through each axis's prefactorized
// tridiagonal system. A 1-axis NDSpline is exactly the 1-D Spline.
//
// Queries outside the grid clamp to the hull coordinate-wise. The fitted
// tables take 4x the grid's memory.
type NDSpline struct {
	axes [][]float64
	// tab is the fitted state. On 1 axis it is f followed by f_vv; on 2 or
	// more axes it interleaves (f, f_vv, f_uu, f_uuvv) per grid point,
	// row-major like the data.
	tab     []float64
	cross   []*tri // factorized systems for the leading axes 0..k-3
	maxN    int    // largest leading-axis knot count (scratch sizing)
	workers int
}

// NewNDSpline fits a tensor-product spline to row-major data (last axis
// fastest) over the given per-axis knot coordinates. Every axis needs at
// least 2 strictly increasing knots and the knot counts must multiply to
// len(data).
func NewNDSpline(axes [][]float64, data []float64) (*NDSpline, error) {
	if len(axes) == 0 {
		return nil, fmt.Errorf("interp: no axes")
	}
	size := 1
	for _, ax := range axes {
		if len(ax) < 2 {
			return nil, fmt.Errorf("interp: need >= 2 knots, got %d", len(ax))
		}
		size *= len(ax)
	}
	if size != len(data) {
		return nil, fmt.Errorf("interp: %d values for a %d-point grid", len(data), size)
	}
	s := &NDSpline{axes: make([][]float64, len(axes))}
	for k, ax := range axes {
		for i := 1; i < len(ax); i++ {
			if !(ax[i] > ax[i-1]) {
				return nil, fmt.Errorf("interp: xs not strictly increasing at %d", i)
			}
		}
		s.axes[k] = append([]float64(nil), ax...)
	}
	k := len(axes)
	if k == 1 {
		n := len(data)
		s.tab = make([]float64, 2*n)
		copy(s.tab, data)
		newTri(s.axes[0]).fit(s.tab[:n], s.tab[n:], make([]float64, n))
		return s, nil
	}
	s.fitSlabs(data)
	s.cross = make([]*tri, k-2)
	for ax := 0; ax < k-2; ax++ {
		s.cross[ax] = newTri(s.axes[ax])
		s.maxN = max(s.maxN, len(s.axes[ax]))
	}
	return s, nil
}

// fitSlabs fills tab for every (u, v) slab of data: f_vv by a v-spline fit
// per row, then f_uu and f_uuvv by u-spline fits of the f and f_vv columns.
func (s *NDSpline) fitSlabs(data []float64) {
	k := len(s.axes)
	nu, nv := len(s.axes[k-2]), len(s.axes[k-1])
	tu, tv := newTri(s.axes[k-2]), newTri(s.axes[k-1])
	n := max(nu, nv)
	col, m, d := make([]float64, n), make([]float64, n), make([]float64, n)
	t := make([]float64, 4*len(data))
	for o := 0; o < len(data); o += nu * nv {
		for i := 0; i < nu; i++ {
			row := data[o+i*nv : o+(i+1)*nv]
			tv.fit(row, m, d)
			for j, y := range row {
				t[4*(o+i*nv+j)] = y
				t[4*(o+i*nv+j)+1] = m[j]
			}
		}
		for j := 0; j < nv; j++ {
			for c := 0; c < 2; c++ {
				for i := 0; i < nu; i++ {
					col[i] = t[4*(o+i*nv+j)+c]
				}
				tu.fit(col, m, d)
				for i := 0; i < nu; i++ {
					t[4*(o+i*nv+j)+2+c] = m[i]
				}
			}
		}
	}
	s.tab = t
}

// Arity reports the number of parameter axes.
func (s *NDSpline) Arity() int { return len(s.axes) }

// cubic is one axis's weights at a query coordinate x in the knot cell
// [xs[lo], xs[lo+1]]: the spline there is a*y[lo] + b*y[lo+1] + c*m[lo] +
// d*m[lo+1] for knot values y and second derivatives m.
type cubic struct {
	lo         int
	a, b, c, d float64
}

// weigh returns the cubic weights of x on knots xs, clamping x into the hull
// first, and whether x lay outside it. The cell is the one evalClamped picks.
func weigh(xs []float64, x float64) (w cubic, outside bool) {
	n := len(xs)
	if x < xs[0] {
		x, outside = xs[0], true
	} else if x > xs[n-1] {
		x, outside = xs[n-1], true
	}
	// The smallest i in [1, n-1] with xs[i] >= x (i = 1 for a NaN x).
	i, j := 1, n-1
	for i < j {
		h := int(uint(i+j) >> 1)
		if xs[h] < x {
			i = h + 1
		} else {
			j = h
		}
	}
	lo := i - 1
	h := xs[lo+1] - xs[lo]
	a := (xs[lo+1] - x) / h
	b := (x - xs[lo]) / h
	return cubic{lo: lo, a: a, b: b, c: (a*a*a - a) * h * h / 6, d: (b*b*b - b) * h * h / 6}, outside
}

// slope returns the weights of the derivative d/dx of the cell cubic w.
func slope(xs []float64, w cubic) cubic {
	h := xs[w.lo+1] - xs[w.lo]
	return cubic{lo: w.lo, a: -1 / h, b: 1 / h, c: -(3*w.a*w.a - 1) * h / 6, d: (3*w.b*w.b - 1) * h / 6}
}

// apply combines knot values y0, y1 and second derivatives m0, m1 of w's cell.
func (w *cubic) apply(y0, y1, m0, m1 float64) float64 {
	return w.a*y0 + w.b*y1 + w.c*m0 + w.d*m1
}

// rows interpolates the slab at grid offset o along v, on the two u-rows of
// cell lo: the values f0, f1 and their second u-derivatives g0, g1.
func (s *NDSpline) rows(o, lo int, wv *cubic) (f0, f1, g0, g1 float64) {
	nv := len(s.axes[len(s.axes)-1])
	r := s.tab[4*(o+lo*nv+wv.lo):]
	q := r[4*nv:]
	f0 = wv.apply(r[0], r[4], r[1], r[5])
	g0 = wv.apply(r[2], r[6], r[3], r[7])
	f1 = wv.apply(q[0], q[4], q[1], q[5])
	g1 = wv.apply(q[2], q[6], q[3], q[7])
	return
}

// ndScratch is the per-worker evaluation state of an NDSpline with 3 or more
// axes: per-slab values and derivatives, a collapse buffer, and cross-fit
// buffers. One scratch serves any number of sequential queries with zero
// allocations; 1- and 2-axis splines need none.
type ndScratch struct {
	val, du, dv, work, m, d []float64
}

func (s *NDSpline) newScratch() *ndScratch {
	k := len(s.axes)
	if k < 3 {
		return nil
	}
	lead := len(s.tab) / 4 / (len(s.axes[k-2]) * len(s.axes[k-1]))
	return &ndScratch{
		val:  make([]float64, lead),
		du:   make([]float64, lead),
		dv:   make([]float64, lead),
		work: make([]float64, lead),
		m:    make([]float64, s.maxN),
		d:    make([]float64, s.maxN),
	}
}

// collapse reduces cur, the per-slab values over the leading axes, to one
// number by cross splines from axis k-3 down to 0. Along axis dAx (-1 for
// none) it takes the spline's derivative instead of its value. cur is
// overwritten.
func (s *NDSpline) collapse(cur, p []float64, dAx int, sc *ndScratch) float64 {
	for ax := len(s.axes) - 3; ax >= 0; ax-- {
		xs := s.axes[ax]
		d := len(xs)
		lines := len(cur) / d
		var dw cubic
		if ax == dAx {
			w, _ := weigh(xs, p[ax])
			dw = slope(xs, w)
		}
		for l := 0; l < lines; l++ {
			line := cur[l*d : (l+1)*d]
			s.cross[ax].fit(line, sc.m, sc.d)
			if ax == dAx {
				cur[l] = dw.apply(line[dw.lo], line[dw.lo+1], sc.m[dw.lo], sc.m[dw.lo+1])
			} else {
				cur[l] = evalClamped(xs, line, sc.m, p[ax])
			}
		}
		cur = cur[:lines]
	}
	return cur[0]
}

// at evaluates the interpolant at p using sc for scratch.
func (s *NDSpline) at(p []float64, sc *ndScratch) float64 {
	k := len(s.axes)
	if k == 1 {
		n := len(s.axes[0])
		return evalClamped(s.axes[0], s.tab[:n], s.tab[n:], p[0])
	}
	wu, _ := weigh(s.axes[k-2], p[k-2])
	wv, _ := weigh(s.axes[k-1], p[k-1])
	if k == 2 {
		return wu.apply(s.rows(0, wu.lo, &wv))
	}
	slab := len(s.axes[k-2]) * len(s.axes[k-1])
	for l := range sc.val {
		sc.val[l] = wu.apply(s.rows(l*slab, wu.lo, &wv))
	}
	return s.collapse(sc.val, p, -1, sc)
}

// At evaluates the interpolant at an N-vector p (len(p) == Arity), clamping
// out-of-range coordinates to the grid hull like Spline.At.
func (s *NDSpline) At(p []float64) float64 {
	return s.at(p, s.newScratch())
}

// grad writes the analytic gradient at p into g, using sc for scratch.
// Along an axis where p lies outside the hull the interpolant is constant,
// so that component is exactly zero.
func (s *NDSpline) grad(p, g []float64, sc *ndScratch) {
	k := len(s.axes)
	if k == 1 {
		xs := s.axes[0]
		n := len(xs)
		w, outside := weigh(xs, p[0])
		g[0] = 0
		if !outside {
			w = slope(xs, w)
			g[0] = w.apply(s.tab[w.lo], s.tab[w.lo+1], s.tab[n+w.lo], s.tab[n+w.lo+1])
		}
		return
	}
	u, v := s.axes[k-2], s.axes[k-1]
	wu, uOut := weigh(u, p[k-2])
	wv, vOut := weigh(v, p[k-1])
	du, dv := slope(u, wu), slope(v, wv)
	if k == 2 {
		g[0] = du.apply(s.rows(0, wu.lo, &wv))
		g[1] = wu.apply(s.rows(0, wu.lo, &dv))
	} else {
		slab := len(u) * len(v)
		for l := range sc.val {
			f0, f1, g0, g1 := s.rows(l*slab, wu.lo, &wv)
			sc.val[l] = wu.apply(f0, f1, g0, g1)
			sc.du[l] = du.apply(f0, f1, g0, g1)
			sc.dv[l] = wu.apply(s.rows(l*slab, wu.lo, &dv))
		}
		for ax := 0; ax < k-2; ax++ {
			xs := s.axes[ax]
			g[ax] = 0
			if x := p[ax]; !(x < xs[0] || x > xs[len(xs)-1]) {
				copy(sc.work, sc.val)
				g[ax] = s.collapse(sc.work, p, ax, sc)
			}
		}
		g[k-2] = s.collapse(sc.du, p, -1, sc)
		g[k-1] = s.collapse(sc.dv, p, -1, sc)
	}
	if uOut {
		g[k-2] = 0
	}
	if vOut {
		g[k-1] = 0
	}
}

// Gradient returns the exact gradient of the interpolant at p: the analytic
// derivative of the same piecewise cubic At evaluates. On the hull boundary
// each component is the one-sided derivative from inside the grid; along any
// axis where p lies outside the hull the interpolant is constant and the
// component is zero.
func (s *NDSpline) Gradient(p []float64) []float64 {
	g := make([]float64, len(s.axes))
	s.grad(p, g, s.newScratch())
	return g
}

// AtPoint evaluates at a parameter vector; it is At under the name the
// Interpolator interface uses.
func (s *NDSpline) AtPoint(p []float64) float64 { return s.At(p) }

// GradientAt is Gradient under the Interpolator interface name: the exact
// gradient, one-sided from inside on the hull boundary and zero along axes
// clamped outside it.
func (s *NDSpline) GradientAt(p []float64) []float64 { return s.Gradient(p) }

// Interpolator is a continuously queryable surrogate of a fitted landscape,
// independent of its dimensionality. NDSpline (and Bicubic, which embeds it)
// satisfies it. Out-of-domain queries clamp to the grid hull on every method.
type Interpolator interface {
	// Arity reports the number of parameter axes.
	Arity() int
	// AtPoint evaluates the surrogate at a parameter vector of length
	// Arity (out-of-range coordinates clamp to the grid hull).
	AtPoint(p []float64) float64
	// GradientAt returns the exact gradient of the surrogate at p: the
	// inside derivative on the hull boundary, and zero along any axis where
	// p lies outside the hull.
	GradientAt(p []float64) []float64
	// AtPoints evaluates the surrogate at every pts[i] into dst[i] —
	// len(dst) == len(pts), every point of length Arity — sharded across
	// the worker budget, bit-identically for every worker count, with no
	// per-point allocations.
	AtPoints(dst []float64, pts [][]float64) error
	// GradientAtPoints writes the gradient at every pts[i] into dst[i]
	// (each dst[i] a caller-allocated vector of length Arity), under the
	// same sharding and determinism contract as AtPoints.
	GradientAtPoints(dst [][]float64, pts [][]float64) error
}

// Fit fits the tensor-product NDSpline surrogate for any axis count — on 2
// axes, the paper's rectangular bivariate spline. data is row-major with the
// last axis fastest, matching landscape.Grid's layout.
func Fit(axes [][]float64, data []float64) (Interpolator, error) {
	s, err := NewNDSpline(axes, data)
	if err != nil {
		return nil, err
	}
	return s, nil
}

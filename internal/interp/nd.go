package interp

import "fmt"

// NDSpline is a tensor-product natural cubic spline on an N-dimensional
// rectangular grid. Evaluation collapses one axis at a time from the last to
// the first: prefitted splines along the last axis reduce the data to an
// (N-1)-dimensional slab, and each remaining axis is collapsed with a cross
// spline fitted through that axis's prefactorized tridiagonal system — on 2
// axes, the paper's "column splines, then a row spline" bicubic scheme.
// Queries outside the grid clamp to the hull coordinate-wise.
type NDSpline struct {
	axes    [][]float64
	last    []*Spline // one prefit spline per line along the last axis
	cross   []*tri    // factorized per-axis systems for axes 0..k-2
	maxN    int       // largest cross-axis knot count (scratch sizing)
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
		s.axes[k] = append([]float64(nil), ax...)
	}
	d := len(axes[len(axes)-1])
	lines := size / d
	s.last = make([]*Spline, lines)
	for l := 0; l < lines; l++ {
		sp, err := NewSpline(s.axes[len(axes)-1], data[l*d:(l+1)*d])
		if err != nil {
			return nil, err
		}
		s.last[l] = sp
	}
	// Validate and factorize the remaining axes eagerly so at never fails.
	s.cross = make([]*tri, len(axes)-1)
	for k := 0; k < len(axes)-1; k++ {
		ax := s.axes[k]
		for i := 1; i < len(ax); i++ {
			if !(ax[i] > ax[i-1]) {
				return nil, fmt.Errorf("interp: xs not strictly increasing at %d", i)
			}
		}
		s.cross[k] = newTri(ax)
		if len(ax) > s.maxN {
			s.maxN = len(ax)
		}
	}
	return s, nil
}

// Arity reports the number of parameter axes.
func (s *NDSpline) Arity() int { return len(s.axes) }

// ndScratch is the per-worker evaluation state of an NDSpline: the axis
// collapse vector, cross-fit buffers, and a probe vector for gradients. One
// scratch serves any number of sequential queries with zero allocations.
type ndScratch struct {
	cur, m, d, pp []float64
}

func (s *NDSpline) newScratch() *ndScratch {
	return &ndScratch{
		cur: make([]float64, len(s.last)),
		m:   make([]float64, s.maxN),
		d:   make([]float64, s.maxN),
		pp:  make([]float64, len(s.axes)),
	}
}

// at evaluates the interpolant at p using sc for scratch.
func (s *NDSpline) at(p []float64, sc *ndScratch) float64 {
	k := len(s.axes)
	cur := sc.cur[:len(s.last)]
	x := p[k-1]
	for l, sp := range s.last {
		cur[l] = sp.At(x)
	}
	for ax := k - 2; ax >= 0; ax-- {
		d := len(s.axes[ax])
		lines := len(cur) / d
		for l := 0; l < lines; l++ {
			line := cur[l*d : (l+1)*d]
			s.cross[ax].fit(line, sc.m, sc.d)
			cur[l] = evalClamped(s.axes[ax], line, sc.m, p[ax])
		}
		cur = cur[:lines]
	}
	return cur[0]
}

// At evaluates the interpolant at an N-vector p (len(p) == Arity), clamping
// out-of-range coordinates to the grid hull like Spline.At.
func (s *NDSpline) At(p []float64) float64 {
	return s.at(p, s.newScratch())
}

// grad estimates the gradient at p into g, reusing sc for every probe.
func (s *NDSpline) grad(p, g []float64, sc *ndScratch) {
	pp := sc.pp
	copy(pp, p)
	for k, ax := range s.axes {
		h := (ax[len(ax)-1] - ax[0]) / float64(len(ax)-1) / 10
		pp[k] = p[k] + h
		hi := s.at(pp, sc)
		pp[k] = p[k] - h
		lo := s.at(pp, sc)
		pp[k] = p[k]
		g[k] = (hi - lo) / (2 * h)
	}
}

// Gradient estimates the gradient at p by central differences with steps of
// one tenth of each axis's mean knot spacing. Near the hull boundary the
// clamped probes degrade the estimate to a one-sided difference; outside the
// hull it is zero along the clamped axes.
func (s *NDSpline) Gradient(p []float64) []float64 {
	g := make([]float64, len(s.axes))
	s.grad(p, g, s.newScratch())
	return g
}

// AtPoint evaluates at a parameter vector; it is At under the name the
// Interpolator interface uses.
func (s *NDSpline) AtPoint(p []float64) float64 { return s.At(p) }

// GradientAt is Gradient under the Interpolator interface name.
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
	// GradientAt estimates the gradient at p by central differences with
	// grid-spacing-proportional steps.
	GradientAt(p []float64) []float64
	// AtPoints evaluates the surrogate at every pts[i] into dst[i] —
	// len(dst) == len(pts), every point of length Arity — sharded across
	// the worker budget, bit-identically for every worker count, with no
	// per-point allocations.
	AtPoints(dst []float64, pts [][]float64) error
	// GradientAtPoints estimates the gradient at every pts[i] into dst[i]
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

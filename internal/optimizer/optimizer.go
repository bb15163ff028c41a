// Package optimizer implements the classical optimizers of the VQA
// workflow: ADAM with finite-difference gradients (gradient-based, many
// queries), a COBYLA-style derivative-free linear-model trust-region method
// (few queries), and Nelder-Mead. Each optimizer records its query count
// and the path it traverses, which OSCAR superimposes on reconstructed
// landscapes (Figures 2, 11, 13) and uses for the query accounting of
// Table 6.
package optimizer

import (
	"errors"
	"fmt"
	"math"
)

// Objective is a cost function over parameter vectors.
type Objective func(x []float64) (float64, error)

// BatchObjective evaluates many parameter vectors in one submission — the
// shape the batched execution engine (and a real QPU queue) rewards. The
// returned slice has one cost per input vector, in input order.
type BatchObjective func(xs [][]float64) ([]float64, error)

// SerialBatch lifts a point objective into a BatchObjective that loops.
func SerialBatch(f Objective) BatchObjective {
	return func(xs [][]float64) ([]float64, error) {
		out := make([]float64, len(xs))
		for i, x := range xs {
			v, err := f(x)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
}

// Bounds restricts a parameter to [Lo, Hi].
type Bounds struct {
	Lo, Hi float64
}

// Result reports an optimization run.
type Result struct {
	// X is the best parameter vector found and F its cost.
	X []float64
	F float64
	// Queries counts objective evaluations (QPU circuit runs in the real
	// workflow — the Table 6 budget).
	Queries int
	// Iterations counts optimizer steps.
	Iterations int
	// Converged reports whether the stopping tolerance was reached
	// (rather than the iteration cap).
	Converged bool
	// Path holds the iterate sequence (including the start), for
	// landscape overlays.
	Path [][]float64
	// FPath holds the cost at each Path entry.
	FPath []float64
}

type counter struct {
	f Objective
	n int
}

func (c *counter) eval(x []float64) (float64, error) {
	c.n++
	return c.f(x)
}

// batchCounter counts queries through a BatchObjective.
type batchCounter struct {
	f BatchObjective
	n int
}

func (c *batchCounter) eval(x []float64) (float64, error) {
	vs, err := c.evalBatch([][]float64{x})
	if err != nil {
		return 0, err
	}
	return vs[0], nil
}

func (c *batchCounter) evalBatch(xs [][]float64) ([]float64, error) {
	c.n += len(xs)
	return c.f(xs)
}

func clampToBounds(x []float64, bounds []Bounds) {
	if bounds == nil {
		return
	}
	for i := range x {
		if i >= len(bounds) {
			return
		}
		if x[i] < bounds[i].Lo {
			x[i] = bounds[i].Lo
		}
		if x[i] > bounds[i].Hi {
			x[i] = bounds[i].Hi
		}
	}
}

func validateStart(x0 []float64, bounds []Bounds) error {
	if len(x0) == 0 {
		return errors.New("optimizer: empty start point")
	}
	for _, v := range x0 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("optimizer: non-finite start coordinate %g", v)
		}
	}
	if bounds != nil && len(bounds) != len(x0) {
		return fmt.Errorf("optimizer: %d bounds for %d parameters", len(bounds), len(x0))
	}
	return nil
}

// ADAMOptions configures the ADAM optimizer.
type ADAMOptions struct {
	// LearningRate defaults to 0.05.
	LearningRate float64
	// Beta1, Beta2 and Eps default to 0.9, 0.999, 1e-8.
	Beta1, Beta2, Eps float64
	// FDStep is the central finite-difference step (default 0.05).
	FDStep float64
	// MaxIter caps iterations (default 500).
	MaxIter int
	// Tol stops when the parameter step drops below it (default 1e-4).
	Tol float64
	// Bounds optionally clips iterates.
	Bounds []Bounds
}

func (o *ADAMOptions) fill() {
	if o.LearningRate == 0 {
		o.LearningRate = 0.05
	}
	if o.Beta1 == 0 {
		o.Beta1 = 0.9
	}
	if o.Beta2 == 0 {
		o.Beta2 = 0.999
	}
	if o.Eps == 0 {
		o.Eps = 1e-8
	}
	if o.FDStep == 0 {
		o.FDStep = 0.05
	}
	if o.MaxIter == 0 {
		o.MaxIter = 500
	}
	if o.Tol == 0 {
		o.Tol = 1e-4
	}
}

// ADAM minimizes f from x0 using the ADAM update rule with central
// finite-difference gradients (2 queries per dimension per step, matching
// the high query counts the paper reports for gradient-based optimizers).
func ADAM(f Objective, x0 []float64, opt ADAMOptions) (*Result, error) {
	return ADAMBatch(SerialBatch(f), x0, opt)
}

// ADAMBatch is ADAM with the full central-difference stencil — all 2n
// probes of a step — submitted as a single batch, so a batch-aware backend
// (the execution engine, a QPU fleet) runs the stencil in one job. For a
// deterministic objective the iterates, query count, and result match ADAM
// exactly.
func ADAMBatch(f BatchObjective, x0 []float64, opt ADAMOptions) (*Result, error) {
	if err := validateStart(x0, opt.Bounds); err != nil {
		return nil, err
	}
	opt.fill()
	c := &batchCounter{f: f}
	n := len(x0)
	x := append([]float64(nil), x0...)
	clampToBounds(x, opt.Bounds)
	m := make([]float64, n)
	v := make([]float64, n)
	grad := make([]float64, n)
	stencil := make([][]float64, 2*n)
	for j := range stencil {
		stencil[j] = make([]float64, n)
	}

	res := &Result{}
	fx, err := c.eval(x)
	if err != nil {
		return nil, err
	}
	res.Path = append(res.Path, append([]float64(nil), x...))
	res.FPath = append(res.FPath, fx)

	for it := 1; it <= opt.MaxIter; it++ {
		res.Iterations = it
		// One batch per step: probes ordered (+0, -0, +1, -1, ...), the
		// same order the serial loop used. Rows are reused across steps.
		for i := 0; i < n; i++ {
			copy(stencil[2*i], x)
			stencil[2*i][i] = x[i] + opt.FDStep
			copy(stencil[2*i+1], x)
			stencil[2*i+1][i] = x[i] - opt.FDStep
		}
		fs, err := c.evalBatch(stencil)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			grad[i] = (fs[2*i] - fs[2*i+1]) / (2 * opt.FDStep)
		}
		var stepNorm float64
		for i := 0; i < n; i++ {
			m[i] = opt.Beta1*m[i] + (1-opt.Beta1)*grad[i]
			v[i] = opt.Beta2*v[i] + (1-opt.Beta2)*grad[i]*grad[i]
			mHat := m[i] / (1 - math.Pow(opt.Beta1, float64(it)))
			vHat := v[i] / (1 - math.Pow(opt.Beta2, float64(it)))
			step := opt.LearningRate * mHat / (math.Sqrt(vHat) + opt.Eps)
			x[i] -= step
			stepNorm += step * step
		}
		clampToBounds(x, opt.Bounds)
		fx, err = c.eval(x)
		if err != nil {
			return nil, err
		}
		res.Path = append(res.Path, append([]float64(nil), x...))
		res.FPath = append(res.FPath, fx)
		if math.Sqrt(stepNorm) < opt.Tol {
			res.Converged = true
			break
		}
	}
	res.X, res.F = bestOf(res.Path, res.FPath)
	res.Queries = c.n
	return res, nil
}

func bestOf(path [][]float64, fpath []float64) ([]float64, float64) {
	best := 0
	for i, f := range fpath {
		if f < fpath[best] {
			best = i
		}
	}
	return append([]float64(nil), path[best]...), fpath[best]
}

// CobylaOptions configures the COBYLA-style optimizer.
type CobylaOptions struct {
	// RhoBegin is the initial trust radius (default 0.2).
	RhoBegin float64
	// RhoEnd is the final trust radius; the run converges when the
	// radius shrinks below it (default 1e-4).
	RhoEnd float64
	// MaxIter caps objective evaluations (default 500).
	MaxIter int
	// Bounds optionally clips iterates.
	Bounds []Bounds
}

func (o *CobylaOptions) fill() {
	if o.RhoBegin == 0 {
		o.RhoBegin = 0.2
	}
	if o.RhoEnd == 0 {
		o.RhoEnd = 1e-4
	}
	if o.MaxIter == 0 {
		o.MaxIter = 500
	}
}

// Cobyla minimizes f with a derivative-free linear-approximation
// trust-region method in the spirit of Powell's COBYLA (without general
// nonlinear constraints — VQA parameter spaces are boxes). It maintains a
// simplex of n+1 points, fits the interpolating linear model, and steps to
// the model minimizer within the trust radius, shrinking the radius when the
// model stops predicting descent. Like COBYLA it uses very few objective
// queries per step (one), reproducing the paper's ADAM-vs-COBYLA query gap.
func Cobyla(f Objective, x0 []float64, opt CobylaOptions) (*Result, error) {
	if err := validateStart(x0, opt.Bounds); err != nil {
		return nil, err
	}
	opt.fill()
	c := &counter{f: f}
	n := len(x0)
	rho := opt.RhoBegin
	res := &Result{}

	// Initial simplex: x0 plus rho steps along each axis, stepping into
	// the feasible region when x0 sits on a bound (a clamped step toward
	// a bound would collapse the simplex).
	pts := make([][]float64, n+1)
	fvals := make([]float64, n+1)
	pts[0] = append([]float64(nil), x0...)
	clampToBounds(pts[0], opt.Bounds)
	for i := 1; i <= n; i++ {
		pts[i] = simplexStep(pts[0], i-1, rho, opt.Bounds)
	}
	for i := range pts {
		v, err := c.eval(pts[i])
		if err != nil {
			return nil, err
		}
		fvals[i] = v
		res.Path = append(res.Path, append([]float64(nil), pts[i]...))
		res.FPath = append(res.FPath, v)
	}

	for c.n < opt.MaxIter {
		res.Iterations++
		// Fit the linear model f ~ c0 + g.x through the simplex.
		g, ok := linearModel(pts, fvals)
		if !ok {
			// Degenerate simplex: rebuild around the best point.
			rebuildSimplex(pts, fvals, rho, opt.Bounds)
			if err := refresh(c, pts, fvals, res); err != nil {
				return nil, err
			}
			continue
		}
		gnorm := 0.0
		for _, gi := range g {
			gnorm += gi * gi
		}
		gnorm = math.Sqrt(gnorm)
		best := argmin(fvals)
		if gnorm < 1e-12 {
			rho /= 2
			if rho < opt.RhoEnd {
				res.Converged = true
				break
			}
			rebuildSimplex(pts, fvals, rho, opt.Bounds)
			if err := refresh(c, pts, fvals, res); err != nil {
				return nil, err
			}
			continue
		}
		// Candidate: steepest descent of the linear model, length rho.
		cand := append([]float64(nil), pts[best]...)
		for i := range cand {
			cand[i] -= rho * g[i] / gnorm
		}
		clampToBounds(cand, opt.Bounds)
		fc, err := c.eval(cand)
		if err != nil {
			return nil, err
		}
		res.Path = append(res.Path, append([]float64(nil), cand...))
		res.FPath = append(res.FPath, fc)
		if fc < fvals[best] {
			// Accept: replace the worst simplex point.
			worst := argmax(fvals)
			pts[worst] = cand
			fvals[worst] = fc
			continue
		}
		// Reject: shrink the trust region.
		rho /= 2
		if rho < opt.RhoEnd {
			res.Converged = true
			break
		}
		shrinkSimplex(pts, fvals, best)
		if err := refresh(c, pts, fvals, res); err != nil {
			return nil, err
		}
	}
	res.X, res.F = bestOf(res.Path, res.FPath)
	res.Queries = c.n
	return res, nil
}

// refresh re-evaluates any simplex point whose cached value is NaN.
func refresh(c *counter, pts [][]float64, fvals []float64, res *Result) error {
	for i := range pts {
		if !math.IsNaN(fvals[i]) {
			continue
		}
		v, err := c.eval(pts[i])
		if err != nil {
			return err
		}
		fvals[i] = v
		res.Path = append(res.Path, append([]float64(nil), pts[i]...))
		res.FPath = append(res.FPath, v)
	}
	return nil
}

func rebuildSimplex(pts [][]float64, fvals []float64, rho float64, bounds []Bounds) {
	best := argmin(fvals)
	base := append([]float64(nil), pts[best]...)
	fBase := fvals[best]
	for i := range pts {
		if i == 0 {
			pts[0] = base
			fvals[0] = fBase
			continue
		}
		pts[i] = simplexStep(base, i-1, rho, bounds)
		fvals[i] = math.NaN()
	}
}

// simplexStep returns base displaced by rho along axis, flipping the step
// direction if that would leave the feasible box.
func simplexStep(base []float64, axis int, rho float64, bounds []Bounds) []float64 {
	p := append([]float64(nil), base...)
	step := rho
	if bounds != nil && axis < len(bounds) && p[axis]+rho > bounds[axis].Hi {
		step = -rho
	}
	p[axis] += step
	clampToBounds(p, bounds)
	return p
}

func shrinkSimplex(pts [][]float64, fvals []float64, best int) {
	for i := range pts {
		if i == best {
			continue
		}
		for j := range pts[i] {
			pts[i][j] = pts[best][j] + (pts[i][j]-pts[best][j])/2
		}
		fvals[i] = math.NaN()
	}
}

func argmin(v []float64) int {
	best := 0
	for i := range v {
		if v[i] < v[best] {
			best = i
		}
	}
	return best
}

func argmax(v []float64) int {
	// NaN-aware: prefer any NaN slot as "worst" so it gets replaced.
	for i := range v {
		if math.IsNaN(v[i]) {
			return i
		}
	}
	best := 0
	for i := range v {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// linearModel solves the (n+1)x(n+1) interpolation system for the gradient
// of the affine model through the simplex. Returns ok=false when the simplex
// is degenerate.
func linearModel(pts [][]float64, fvals []float64) ([]float64, bool) {
	n := len(pts) - 1
	// Unknowns: [c0, g_1..g_n]; equations: c0 + g.p_i = f_i.
	a := make([][]float64, n+1)
	b := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		if math.IsNaN(fvals[i]) {
			return nil, false
		}
		a[i] = make([]float64, n+1)
		a[i][0] = 1
		copy(a[i][1:], pts[i])
		b[i] = fvals[i]
	}
	sol, ok := solveLinear(a, b)
	if !ok {
		return nil, false
	}
	return sol[1:], true
}

// solveLinear is Gaussian elimination with partial pivoting.
func solveLinear(a [][]float64, b []float64) ([]float64, bool) {
	n := len(a)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-14 {
			return nil, false
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		for r := col + 1; r < n; r++ {
			w := a[r][col] / a[col][col]
			for k := col; k < n; k++ {
				a[r][k] -= w * a[col][k]
			}
			b[r] -= w * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for k := r + 1; k < n; k++ {
			s -= a[r][k] * x[k]
		}
		x[r] = s / a[r][r]
	}
	return x, true
}

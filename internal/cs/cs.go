// Package cs implements the compressed-sensing reconstruction at the heart
// of OSCAR.
//
// A landscape X (a row-major N-dimensional grid, last axis fastest) is
// assumed sparse in the separable DCT domain: X = IDCT(S) with S mostly
// zero. Given measurements y of X at a small set of grid indices Ω (the
// measurement operator A s = subsample_Ω(IDCT(s))), the solver recovers S by
// l1-regularized least squares
//
//	min_s 1/2 ||y - A s||_2^2 + λ ||s||_1
//
// using FISTA (accelerated proximal gradient). Because the orthonormal DCT is
// an isometry and subsampling is a contraction, ||A||_2 <= 1 and a unit step
// size is always valid. ISTA and OMP are alternative solvers for the
// solver-choice ablation (BenchmarkAblationSolver).
package cs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/dct"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Method selects the sparse-recovery algorithm.
type Method int

const (
	// FISTA is the accelerated proximal-gradient method (default).
	FISTA Method = iota
	// ISTA is the unaccelerated proximal-gradient method.
	ISTA
	// OMP is orthogonal matching pursuit (greedy support recovery).
	OMP
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case FISTA:
		return "fista"
	case ISTA:
		return "ista"
	case OMP:
		return "omp"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Options configures a reconstruction.
type Options struct {
	// Method selects the solver (default FISTA).
	Method Method
	// Lambda is the l1 penalty. When zero, it is set automatically to
	// LambdaRel * max|A^T y|, the standard relative scaling.
	Lambda float64
	// LambdaRel is the relative penalty used when Lambda is zero.
	// Defaults to 0.001, matching DefaultOptions: VQA landscapes are
	// extremely sparse, so a light penalty keeps shrinkage bias small.
	LambdaRel float64
	// MaxIter bounds the iteration count. Defaults to 500.
	MaxIter int
	// Tol stops iteration when the relative change of the iterate drops
	// below it. Defaults to 1e-6.
	Tol float64
	// Continuation, when true (default via DefaultOptions), starts from a
	// large penalty and geometrically decreases it to Lambda, which
	// speeds up convergence on poorly conditioned sampling sets.
	Continuation bool
	// Debias, when true, follows l1 recovery with a least-squares polish
	// restricted to the recovered support.
	Debias bool
	// OMPSparsity bounds the support size for OMP. When zero it defaults
	// to len(y)/4.
	OMPSparsity int
	// Warm optionally seeds the proximal solvers (FISTA/ISTA) with an
	// initial DCT-coefficient estimate of the full grid length — typically the
	// previous solve of a growing sample set, the streaming-reconstruction
	// regime. A warm start begins iteration at the target penalty instead
	// of running the continuation schedule (continuation exists to escape
	// the zero start, which a warm start already has). OMP ignores it.
	// The slice is read, never written.
	Warm []float64
	// Workers shards the solver — the per-axis DCT passes and the
	// per-element FISTA kernels — across a worker pool: any non-positive
	// value selects GOMAXPROCS, 1 forces the serial solver, and n > 1
	// uses n workers (dct.NewPlanNDWorkers owns this resolution). Grids
	// smaller than 4096 points always solve serially. Sharding is
	// bit-identical to the serial solver for every worker count.
	Workers int
}

// DefaultOptions returns the options used throughout the paper
// reproduction: FISTA with continuation, a light penalty (VQA landscapes are
// extremely sparse, so shrinkage bias dominates the error budget), and a
// least-squares debias pass.
func DefaultOptions() Options {
	return Options{
		Method:       FISTA,
		LambdaRel:    0.001,
		MaxIter:      500,
		Tol:          1e-6,
		Continuation: true,
		Debias:       true,
	}
}

// WithDefaults applies the zero-value-means-DefaultOptions sentinel: an
// Options whose only set fields are the carry-through ones — Workers and
// Warm — becomes DefaultOptions carrying them, so picking a pool size or
// warm-starting never silently drops the paper configuration (continuation,
// debias). Any other set field disables the promotion. ReconstructNDContext
// applies it to every solve, so direct calls, the 2D/1D wrappers,
// core.Options.Solver, and ReconstructMany jobs all follow this one rule.
func (o Options) WithDefaults() Options {
	// Keep the probe in sync with the field list: every non-carry-through
	// field must be checked here, or a caller setting it would be promoted
	// over.
	if o.Method == FISTA && o.Lambda == 0 && o.LambdaRel == 0 &&
		o.MaxIter == 0 && o.Tol == 0 && !o.Continuation && !o.Debias &&
		o.OMPSparsity == 0 {
		w, warm := o.Workers, o.Warm
		o = DefaultOptions()
		o.Workers = w
		o.Warm = warm
	}
	return o
}

func (o *Options) fill() {
	if o.LambdaRel == 0 {
		// Keep in sync with DefaultOptions: a zero-valued Options must
		// behave like the paper configuration's penalty.
		o.LambdaRel = 0.001
	}
	if o.MaxIter == 0 {
		o.MaxIter = 500
	}
	if o.Tol == 0 {
		o.Tol = 1e-6
	}
}

// Result carries the reconstruction and solver diagnostics.
type Result struct {
	// X is the reconstructed row-major landscape (last axis fastest).
	X []float64
	// Coeffs is the recovered DCT coefficient tensor (same layout).
	Coeffs []float64
	// Iterations is the number of solver iterations performed.
	Iterations int
	// Transforms is the number of full-grid DCTs the solve ran, forward
	// and inverse alike. A FISTA/ISTA solve runs one to scale the penalty,
	// two per iteration, two per debias step and two to finish.
	Transforms int
	// DebiasSteps is the number of least-squares polish steps the debias
	// pass took (0 without debias).
	DebiasSteps int
	// Residual is the final ||y - A s||_2.
	Residual float64
	// Sparsity is the number of nonzero recovered coefficients.
	Sparsity int
}

// ReconstructND recovers an N-dimensional landscape of the given per-axis
// lengths (row-major, last axis fastest) from values y observed at the flat
// grid indices idx. idx entries must be unique and in [0, prod(dims)). A
// classic landscape is dims = [rows, cols]; a single-parameter line cut is
// dims = [n].
func ReconstructND(dims []int, idx []int, y []float64, opt Options) (*Result, error) {
	return ReconstructNDContext(context.Background(), dims, idx, y, opt)
}

// ReconstructNDContext is ReconstructND with cancellation: a canceled ctx
// stops the solver between iterations and returns ctx.Err().
func ReconstructNDContext(ctx context.Context, dims []int, idx []int, y []float64, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(dims) == 0 {
		return nil, errors.New("cs: empty shape")
	}
	n := 1
	for _, d := range dims {
		if d <= 0 || n > math.MaxInt/d {
			return nil, fmt.Errorf("cs: invalid shape %v", dims)
		}
		n *= d
	}
	if len(idx) != len(y) {
		return nil, fmt.Errorf("cs: %d indices but %d values", len(idx), len(y))
	}
	if len(idx) == 0 {
		return nil, errors.New("cs: no measurements")
	}
	seen := make(map[int]struct{}, len(idx))
	for _, i := range idx {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("cs: index %d out of range [0,%d)", i, n)
		}
		if _, dup := seen[i]; dup {
			return nil, fmt.Errorf("cs: duplicate index %d", i)
		}
		seen[i] = struct{}{}
	}
	opt = opt.WithDefaults()
	opt.fill()
	if opt.Warm != nil && len(opt.Warm) != n {
		return nil, fmt.Errorf("cs: warm start has %d coefficients, want %d", len(opt.Warm), n)
	}
	op := newPartialDCT(dims, idx, opt.Workers)
	span, ctx := obs.Start(ctx, "cs.solve")
	defer span.End()
	span.SetAttr("samples", len(idx))
	span.SetAttr("points", n)
	span.SetAttr("method", opt.Method.String())
	var res *Result
	var err error
	switch opt.Method {
	case FISTA, ISTA:
		res, err = solveProx(ctx, op, y, opt)
	case OMP:
		res, err = solveOMP(ctx, op, y, opt)
	default:
		return nil, fmt.Errorf("cs: unknown method %v", opt.Method)
	}
	if err != nil {
		span.SetError(err)
		return nil, err
	}
	span.SetAttr("iterations", res.Iterations)
	span.SetAttr("transforms", res.Transforms)
	span.SetAttr("debias_steps", res.DebiasSteps)
	span.SetAttr("residual", res.Residual)
	span.SetAttr("sparsity", res.Sparsity)
	return res, nil
}

// partialDCT is the measurement operator A and its adjoint, sharded across
// workers goroutines (1 = serial).
type partialDCT struct {
	workers    int
	idx        []int
	plan       *dct.PlanND
	grid       []float64 // scratch, length prod(dims)
	transforms int       // DCTs run so far, reported as Result.Transforms
}

func newPartialDCT(dims []int, idx []int, workers int) *partialDCT {
	plan := dct.NewPlanNDWorkers(dims, workers)
	return &partialDCT{
		// The plan owns worker resolution (GOMAXPROCS default, small-grid
		// serial fallback); adopting its effective count keeps the vector
		// kernels and the transforms under one rule.
		workers: plan.Workers(),
		idx:     idx,
		plan:    plan,
		grid:    make([]float64, plan.Size()),
	}
}

func (op *partialDCT) n() int { return len(op.grid) }
func (op *partialDCT) m() int { return len(op.idx) }

// forward computes A s = subsample(IDCT(s)) into out (length m).
func (op *partialDCT) forward(out, s []float64) {
	op.transforms++
	op.plan.Inverse(op.grid, s)
	for j, gi := range op.idx {
		out[j] = op.grid[gi]
	}
}

// adjoint computes A^T r = DCT(scatter(r)) into out (length n). The zeroing
// stays serial: it compiles to a memclr that is far cheaper than goroutine
// fan-out at these grid sizes.
func (op *partialDCT) adjoint(out, r []float64) {
	op.transforms++
	for i := range op.grid {
		op.grid[i] = 0
	}
	for j, gi := range op.idx {
		op.grid[gi] = r[j]
	}
	op.plan.Forward(out, op.grid)
}

// synthesize computes the full landscape IDCT(s) into x (length n).
func (op *partialDCT) synthesize(x, s []float64) {
	op.transforms++
	op.plan.Inverse(x, s)
}

func norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// solveProx runs FISTA (or ISTA) on the lasso objective. The per-element
// vector kernels (gradient step, soft threshold, extrapolation) run over
// contiguous shards on op's worker pool; reductions (penalty scaling and the
// convergence test) stay serial so that floating-point summation order — and
// therefore the result — is bit-identical for every worker count.
func solveProx(ctx context.Context, op *partialDCT, y []float64, opt Options) (*Result, error) {
	n, m := op.n(), op.m()
	aty := make([]float64, n)
	op.adjoint(aty, y)
	maxAbs := 0.0
	for _, v := range aty {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	lambda := opt.Lambda
	if lambda == 0 {
		lambda = opt.LambdaRel * maxAbs
	}
	if maxAbs == 0 {
		// All-zero measurements: the zero landscape is exact.
		return &Result{X: make([]float64, n), Coeffs: make([]float64, n), Transforms: op.transforms}, nil
	}

	s := make([]float64, n)     // current iterate
	z := make([]float64, n)     // extrapolation point (FISTA)
	prev := make([]float64, n)  // previous iterate
	grad := make([]float64, n)  // A^T (A z - y)
	resid := make([]float64, m) // A z - y
	az := make([]float64, m)
	if opt.Warm != nil {
		copy(s, opt.Warm)
		copy(z, opt.Warm)
	}

	// Continuation schedule: geometric decay from a large penalty. A warm
	// start begins near a solution already, so it iterates at the target
	// penalty directly — re-running the schedule would shrink the warm
	// iterate back toward zero and discard the head start.
	lam := lambda
	if opt.Continuation && opt.Warm == nil {
		lam = 0.5 * maxAbs
		if lam < lambda {
			lam = lambda
		}
	}
	tk := 1.0
	iters := 0
	for it := 0; it < opt.MaxIter; it++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		iters++
		op.forward(az, z)
		for j := range resid {
			resid[j] = az[j] - y[j]
		}
		op.adjoint(grad, resid)
		copy(prev, s)
		// Fused gradient step + soft-threshold prox over worker shards:
		// s = shrink(z - grad, lam). One fan-out and one memory sweep per
		// iteration instead of two; elementwise, so sharding stays
		// bit-identical to a serial pass.
		lamIt := lam
		shard.ForRange(op.workers, n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				v := z[i] - grad[i]
				switch {
				case v > lamIt:
					s[i] = v - lamIt
				case v < -lamIt:
					s[i] = v + lamIt
				default:
					s[i] = 0
				}
			}
		})

		if opt.Method == FISTA {
			tNext := (1 + math.Sqrt(1+4*tk*tk)) / 2
			beta := (tk - 1) / tNext
			shard.ForRange(op.workers, n, func(_, lo, hi int) {
				for i := lo; i < hi; i++ {
					z[i] = s[i] + beta*(s[i]-prev[i])
				}
			})
			tk = tNext
		} else {
			copy(z, s)
		}

		// Convergence: relative step size, once the continuation
		// schedule has reached the target penalty.
		var diff, base float64
		for i := range s {
			d := s[i] - prev[i]
			diff += d * d
			base += s[i] * s[i]
		}
		atTarget := lam <= lambda*1.0000001
		if atTarget && diff <= opt.Tol*opt.Tol*(base+1e-30) {
			break
		}
		if opt.Continuation && lam > lambda {
			lam *= 0.7
			if lam < lambda {
				lam = lambda
			}
		}
	}

	steps := 0
	if opt.Debias {
		steps = debias(op, s, y)
	}

	op.forward(az, s)
	for j := range resid {
		resid[j] = az[j] - y[j]
	}
	x := make([]float64, n)
	op.synthesize(x, s)
	return &Result{
		X:           x,
		Coeffs:      s,
		Iterations:  iters,
		Transforms:  op.transforms,
		DebiasSteps: steps,
		Residual:    norm2(resid),
		Sparsity:    countNonzero(s),
	}, nil
}

func countNonzero(s []float64) int {
	c := 0
	for _, v := range s {
		if v != 0 {
			c++
		}
	}
	return c
}

// debiasMaxSteps caps the debias polish.
const debiasMaxSteps = 50

// debias polishes the solution with conjugate-gradient least squares
// restricted to the recovered support, and returns how many steps (one
// forward and one adjoint each) it ran.
func debias(op *partialDCT, s, y []float64) int {
	support := make([]int, 0, 64)
	for i, v := range s {
		if v != 0 {
			support = append(support, i)
		}
	}
	if len(support) == 0 || len(support) > op.m() {
		return 0
	}
	// Solve min over coefficients on the support via gradient descent with
	// a fixed number of CG-like steps (the operator restricted to the
	// support still has spectral norm <= 1).
	grad := make([]float64, op.n())
	resid := make([]float64, op.m())
	as := make([]float64, op.m())
	for it := 0; it < debiasMaxSteps; it++ {
		op.forward(as, s)
		for j := range resid {
			resid[j] = as[j] - y[j]
		}
		op.adjoint(grad, resid)
		var gnorm float64
		for _, i := range support {
			gnorm += grad[i] * grad[i]
		}
		if gnorm < 1e-24 {
			return it + 1
		}
		for _, i := range support {
			s[i] -= grad[i]
		}
	}
	return debiasMaxSteps
}

// solveOMP runs orthogonal matching pursuit: greedily grow the support,
// refitting by least squares (gradient polish) after each addition. The
// support size is tracked incrementally — exactly one index joins per greedy
// step — instead of rescanning the n-length support mask every iteration.
func solveOMP(ctx context.Context, op *partialDCT, y []float64, opt Options) (*Result, error) {
	n, m := op.n(), op.m()
	k := opt.OMPSparsity
	if k <= 0 {
		k = m / 4
	}
	if k > m {
		k = m
	}
	s := make([]float64, n)
	inSupport := make([]bool, n)
	supportSize := 0
	resid := make([]float64, m)
	copy(resid, y)
	corr := make([]float64, n)
	as := make([]float64, m)
	iters := 0
	for supportSize < k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		iters++
		op.adjoint(corr, resid)
		best, bestAbs := -1, 0.0
		for i, v := range corr {
			if inSupport[i] {
				continue
			}
			if a := math.Abs(v); a > bestAbs {
				best, bestAbs = i, a
			}
		}
		if best < 0 || bestAbs < 1e-12 {
			break
		}
		inSupport[best] = true
		supportSize++
		// Least-squares refit on the support by projected gradient.
		for polish := 0; polish < 25; polish++ {
			op.forward(as, s)
			for j := range resid {
				resid[j] = as[j] - y[j]
			}
			op.adjoint(corr, resid)
			var gnorm float64
			for i := range corr {
				if inSupport[i] {
					gnorm += corr[i] * corr[i]
				}
			}
			if gnorm < 1e-24 {
				break
			}
			for i := range corr {
				if inSupport[i] {
					s[i] -= corr[i]
				}
			}
		}
		op.forward(as, s)
		for j := range resid {
			resid[j] = y[j] - as[j]
		}
		if norm2(resid) < 1e-10*(1+norm2(y)) {
			break
		}
		// resid currently holds y - A s; adjoint correlation expects
		// that orientation for the next greedy pick.
	}
	op.forward(as, s)
	for j := range resid {
		resid[j] = as[j] - y[j]
	}
	x := make([]float64, n)
	op.synthesize(x, s)
	return &Result{
		X:          x,
		Coeffs:     s,
		Iterations: iters,
		Transforms: op.transforms,
		Residual:   norm2(resid),
		Sparsity:   countNonzero(s),
	}, nil
}

// SampleIndices draws m distinct row-major indices uniformly at random from
// an n-point grid — OSCAR's parameter-sampling phase. The result is sorted.
func SampleIndices(rng *rand.Rand, n, m int) ([]int, error) {
	if m <= 0 || m > n {
		return nil, fmt.Errorf("cs: cannot sample %d of %d points", m, n)
	}
	// Partial Fisher-Yates over an index permutation.
	perm := rng.Perm(n)
	out := append([]int(nil), perm[:m]...)
	sort.Ints(out)
	return out, nil
}

// StratifiedIndices draws approximately m indices using jittered stratified
// sampling over the grid: the grid is divided into m nearly equal buckets and
// one point is drawn per bucket. Used by the sampling-pattern ablation.
func StratifiedIndices(rng *rand.Rand, n, m int) ([]int, error) {
	if m <= 0 || m > n {
		return nil, fmt.Errorf("cs: cannot sample %d of %d points", m, n)
	}
	out := make([]int, 0, m)
	seen := make(map[int]struct{}, m)
	for b := 0; b < m; b++ {
		lo := b * n / m
		hi := (b + 1) * n / m
		if hi <= lo {
			hi = lo + 1
		}
		i := lo + rng.Intn(hi-lo)
		if _, dup := seen[i]; dup {
			continue
		}
		seen[i] = struct{}{}
		out = append(out, i)
	}
	sort.Ints(out)
	return out, nil
}

// StratifiedIndicesND draws exactly m flat row-major indices stratified over
// an N-dimensional grid. The grid is split by recursive bisection of the
// widest remaining axis, dividing the quota between the two halves in
// proportion to their volumes, until each box holds a quota of one; a single
// jittered point is then drawn uniformly inside each box. Boxes are disjoint,
// so the m indices are distinct, and the split schedule depends only on
// (dims, m), so identical rng state yields identical samples.
//
// For 1-D and 2-D grids core keeps the flat-bucket StratifiedIndices scheme
// for bit-compatibility with earlier releases; this sampler is the ND
// generalization used for 3+ axes.
func StratifiedIndicesND(rng *rand.Rand, dims []int, m int) ([]int, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("cs: empty shape")
	}
	n := 1
	for _, d := range dims {
		if d <= 0 || n > math.MaxInt/d {
			return nil, fmt.Errorf("cs: invalid shape %v", dims)
		}
		n *= d
	}
	if m <= 0 || m > n {
		return nil, fmt.Errorf("cs: cannot sample %d of %d points", m, n)
	}
	strides := make([]int, len(dims))
	s := 1
	for k := len(dims) - 1; k >= 0; k-- {
		strides[k] = s
		s *= dims[k]
	}
	out := make([]int, 0, m)
	// walk recursively bisects the box [lo, hi) along its widest axis.
	var walk func(lo, hi []int, quota int)
	walk = func(lo, hi []int, quota int) {
		if quota == 1 {
			idx := 0
			for k := range dims {
				idx += (lo[k] + rng.Intn(hi[k]-lo[k])) * strides[k]
			}
			out = append(out, idx)
			return
		}
		axis, widest := 0, 0
		vol := 1
		for k := range dims {
			w := hi[k] - lo[k]
			vol *= w
			if w > widest {
				axis, widest = k, w
			}
		}
		mid := lo[axis] + widest/2
		volA := vol / widest * (mid - lo[axis])
		volB := vol - volA
		// Split the quota in proportion to volume, clamped so each half's
		// quota fits inside its half.
		qa := quota * volA / vol
		if qa < quota-volB {
			qa = quota - volB
		}
		if qa > volA {
			qa = volA
		}
		qb := quota - qa
		loB := append([]int(nil), lo...)
		hiA := append([]int(nil), hi...)
		hiA[axis], loB[axis] = mid, mid
		if qa > 0 {
			walk(lo, hiA, qa)
		}
		if qb > 0 {
			walk(loB, hi, qb)
		}
	}
	lo := make([]int, len(dims))
	walk(lo, append([]int(nil), dims...), m)
	sort.Ints(out)
	return out, nil
}

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
// using FISTA (accelerated proximal gradient) with gradient-based adaptive
// restart: the momentum is dropped whenever it points uphill. Because the
// orthonormal DCT is an isometry and subsampling is a contraction,
// ||A||_2 <= 1 and a unit step size is always valid. The recovered support is
// then polished by CGLS, an exact least-squares fit of y on those
// coefficients. ISTA and OMP are alternative solvers for the solver-choice
// ablation (BenchmarkAblationSolver); OMP refits with the same CGLS.
//
// Every reduction runs serially in one fixed order (samples by ascending
// grid index, coefficients by index), so a result depends neither on the
// worker count nor on the order in which the caller lists its samples.
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
	// restricted to the recovered support: CGLS, one forward and one adjoint
	// application per step, at most 50 steps. It is skipped when the support
	// holds more coefficients than there are samples.
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
	// smaller than 10000 points always solve serially. Sharding is
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
	// Transforms is the number of DCT applications the solve ran, forward
	// and inverse alike. An application of the measurement operator or its
	// adjoint counts as one although it computes only the part of the
	// full-grid transform that the samples see. A FISTA/ISTA solve runs one
	// to scale the penalty, two per iteration, two per debias step and two
	// to finish.
	Transforms int
	// DebiasSteps is the number of CGLS steps the debias polish took (0
	// without debias). Step 1 forms the residual and the support gradient;
	// each later step is one conjugate-gradient update. Every step is one
	// forward and one adjoint application.
	DebiasSteps int
	// Restarts is the number of times FISTA dropped its momentum because
	// the step went uphill (always 0 for ISTA and OMP).
	Restarts int
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
// stops the solver between iterations and between least-squares polish
// steps, and returns ctx.Err().
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
	idx, y = sortSamples(idx, y)
	for j, i := range idx {
		if i < 0 || i >= n {
			return nil, fmt.Errorf("cs: index %d out of range [0,%d)", i, n)
		}
		if j > 0 && i == idx[j-1] {
			return nil, fmt.Errorf("cs: duplicate index %d", i)
		}
	}
	opt = opt.WithDefaults()
	opt.fill()
	if opt.Warm != nil && len(opt.Warm) != n {
		return nil, fmt.Errorf("cs: warm start has %d coefficients, want %d", len(opt.Warm), n)
	}
	op := newPartialDCT(dims, idx, opt.Workers, true)
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
	span.SetAttr("restarts", res.Restarts)
	span.SetAttr("residual", res.Residual)
	span.SetAttr("sparsity", res.Sparsity)
	return res, nil
}

// sortSamples returns the samples in ascending grid-index order, copying them
// only when they are out of order. The solver's m-length reductions (the
// residual norm, CGLS's step lengths) sum in sample order; fixing that order
// makes the result independent of the order in which samples were collected,
// e.g. a fleet's batch completion order.
func sortSamples(idx []int, y []float64) ([]int, []float64) {
	if sort.IntsAreSorted(idx) {
		return idx, y
	}
	order := make([]int, len(idx))
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool { return idx[order[a]] < idx[order[b]] })
	si, sy := make([]int, len(idx)), make([]float64, len(y))
	for j, k := range order {
		si[j], sy[j] = idx[k], y[k]
	}
	return si, sy
}

// partialDCT is the measurement operator A and its adjoint, sharded across
// workers goroutines (1 = serial). Each application is one transform in
// Result.Transforms: on the pruned path (dct.Sampled) it computes only what
// the samples see, bit-identical to the full-grid transform and gather (or
// scatter and transform) it replaces.
type partialDCT struct {
	workers    int
	idx        []int
	plan       *dct.PlanND
	sampled    *dct.Sampled // nil on the full path
	grid       []float64    // full-path scratch, length prod(dims)
	transforms int          // operator applications so far, reported as Result.Transforms
}

// newPartialDCT builds the operator for samples idx of a dims grid, with the
// sample tables built once for the whole solve. Only tests and benchmarks
// pass pruned = false, which runs the full-grid transform every time.
func newPartialDCT(dims []int, idx []int, workers int, pruned bool) *partialDCT {
	plan := dct.NewPlanNDWorkers(dims, workers)
	op := &partialDCT{
		// The plan owns worker resolution (GOMAXPROCS default, small-grid
		// serial fallback); adopting its effective count keeps the vector
		// kernels and the transforms under one rule.
		workers: plan.Workers(),
		idx:     idx,
		plan:    plan,
	}
	if pruned {
		op.sampled = dct.NewSampled(plan, idx)
	} else {
		op.grid = make([]float64, plan.Size())
	}
	return op
}

func (op *partialDCT) n() int { return op.plan.Size() }
func (op *partialDCT) m() int { return len(op.idx) }

// forward computes A s = subsample(IDCT(s)) into out (length m).
func (op *partialDCT) forward(out, s []float64) {
	op.transforms++
	if op.sampled != nil {
		op.sampled.Inverse(out, s)
		return
	}
	op.plan.Inverse(op.grid, s)
	for j, gi := range op.idx {
		out[j] = op.grid[gi]
	}
}

// adjoint computes A^T r = DCT(scatter(r)) into out (length n).
func (op *partialDCT) adjoint(out, r []float64) {
	op.transforms++
	if op.sampled != nil {
		op.sampled.Forward(out, r)
		return
	}
	clear(op.grid)
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

func dot(a, b []float64) float64 {
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

func norm2(v []float64) float64 { return math.Sqrt(dot(v, v)) }

// solveProx runs FISTA (or ISTA) on the lasso objective. The per-element
// vector kernels (gradient step, soft threshold, extrapolation) run over
// contiguous shards on op's worker pool; reductions (penalty scaling, the
// convergence and restart tests) stay serial so that floating-point
// summation order — and therefore the result — is bit-identical for every
// worker count.
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
	iters, restarts := 0, 0
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
		// bit-identical to a serial pass. A serial operator runs it
		// directly: a closure handed to shard.ForRange escapes, so
		// building one costs an allocation.
		if op.workers <= 1 {
			shrinkStep(s, z, grad, lam, 0, n)
		} else {
			lamIt := lam
			shard.ForRange(op.workers, n, func(_, lo, hi int) { shrinkStep(s, z, grad, lamIt, lo, hi) })
		}

		// One serial pass gathers the convergence sums and the restart
		// test's (z - s)·(s - prev).
		var diff, base, uphill float64
		for i := range s {
			d := s[i] - prev[i]
			diff += d * d
			base += s[i] * s[i]
			uphill += (z[i] - s[i]) * d
		}
		switch {
		case opt.Method == ISTA:
			copy(z, s)
		case uphill > 0:
			// Gradient-based adaptive restart (O'Donoghue & Candès, FoCM
			// 2015): the step opposes the momentum, so drop the momentum.
			restarts++
			tk = 1
			copy(z, s)
		default:
			tNext := (1 + math.Sqrt(1+4*tk*tk)) / 2
			beta := (tk - 1) / tNext
			if op.workers <= 1 {
				momentumStep(z, s, prev, beta, 0, n)
			} else {
				shard.ForRange(op.workers, n, func(_, lo, hi int) { momentumStep(z, s, prev, beta, lo, hi) })
			}
			tk = tNext
		}

		// Convergence: relative step size, once the continuation
		// schedule has reached the target penalty.
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
		var err error
		if steps, err = debias(ctx, op, s, y); err != nil {
			return nil, err
		}
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
		Restarts:    restarts,
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

// Step caps of the least-squares polish: debias after FISTA/ISTA, and OMP's
// refit after each greedy step.
const (
	debiasMaxSteps = 50
	ompRefitSteps  = 25
)

// shrinkStep sets s[i] = shrink(z[i] - grad[i], lam) for i in [lo, hi):
// the fused gradient step and soft-threshold prox.
func shrinkStep(s, z, grad []float64, lam float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		v := z[i] - grad[i]
		switch {
		case v > lam:
			s[i] = v - lam
		case v < -lam:
			s[i] = v + lam
		default:
			s[i] = 0
		}
	}
}

// momentumStep sets z[i] = s[i] + beta·(s[i] - prev[i]) for i in [lo, hi).
func momentumStep(z, s, prev []float64, beta float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		z[i] = s[i] + beta*(s[i]-prev[i])
	}
}

// debias polishes s by least squares restricted to its nonzero coefficients
// and returns the CGLS steps it took. It does nothing when s is zero or its
// support is larger than the sample count.
func debias(ctx context.Context, op *partialDCT, s, y []float64) (int, error) {
	support := make([]int, 0, 64)
	for i, v := range s {
		if v != 0 {
			support = append(support, i)
		}
	}
	if len(support) == 0 || len(support) > op.m() {
		return 0, nil
	}
	return polish(ctx, op, s, y, support, debiasMaxSteps)
}

// polish fits the coefficients of s on support to y by least squares, in
// place, leaving the others untouched: CGLS, conjugate gradients on the
// normal equations (Hestenes–Stiefel; Paige & Saunders, LSQR, 1982). Step 1
// forms the residual r = y - A s and the support gradient g = (A^T r) on
// support; each later step moves s along the conjugate direction p by the
// exact line minimum and updates r and g. Every step is one forward and one
// adjoint application. It stops once ||g|| <= 1e-12 ||y|| (A^T is an
// isometry, so ||y|| = ||A^T y||), or after maxSteps steps, and returns the
// steps taken, or ctx.Err() if ctx is canceled before a step.
func polish(ctx context.Context, op *partialDCT, s, y []float64, support []int, maxSteps int) (int, error) {
	r := make([]float64, op.m())
	q := make([]float64, op.m()) // A s, then A p
	g := make([]float64, op.n()) // A^T r
	p := make([]float64, op.n()) // search direction, zero off the support
	tol := 1e-24 * dot(y, y)
	var gamma float64 // ||g||^2 on the support at the previous step
	for step := 1; step <= maxSteps; step++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if step == 1 {
			op.forward(q, s)
			for j := range r {
				r[j] = y[j] - q[j]
			}
		} else {
			// p is nonzero and lies in the range of A^T restricted to the
			// support, so A p != 0.
			op.forward(q, p)
			alpha := gamma / dot(q, q)
			for _, i := range support {
				s[i] += alpha * p[i]
			}
			for j := range r {
				r[j] -= alpha * q[j]
			}
		}
		op.adjoint(g, r)
		var gg float64
		for _, i := range support {
			gg += g[i] * g[i]
		}
		if gg <= tol {
			return step, nil
		}
		beta := 0.0
		if step > 1 {
			beta = gg / gamma
		}
		for _, i := range support {
			p[i] = g[i] + beta*p[i]
		}
		gamma = gg
	}
	return maxSteps, nil
}

// solveOMP runs orthogonal matching pursuit: greedily grow the support,
// refitting by least squares (the CGLS polish) after each addition.
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
	support := make([]int, 0, k)
	resid := make([]float64, m)
	copy(resid, y)
	corr := make([]float64, n)
	as := make([]float64, m)
	iters := 0
	for len(support) < k {
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
		support = append(support, best)
		if _, err := polish(ctx, op, s, y, support, ompRefitSteps); err != nil {
			return nil, err
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

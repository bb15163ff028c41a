package cs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/shard"
)

// goldenCase rebuilds the inputs of TestReconstruct2DGolden (2-D) or
// TestReconstruct1DGolden (1-D), and the true landscape x.
func goldenCase(tb testing.TB, twoD bool) (dims, idx []int, y, x []float64, iters int) {
	tb.Helper()
	seed, rows, cols, modes, samples, iters := int64(19), 1, 5000, 6, 500, golden1DIters
	if twoD {
		seed, rows, cols, modes, samples, iters = 17, 50, 100, 8, 1000, golden2DIters
	}
	rng := rand.New(rand.NewSource(seed))
	x, _ = sparseLandscape(rng, rows, cols, modes)
	idx, err := SampleIndices(rng, rows*cols, samples)
	if err != nil {
		tb.Fatal(err)
	}
	y = make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	dims = []int{rows, cols}
	if !twoD {
		dims = []int{cols}
	}
	return dims, idx, y, x, iters
}

// TestResultReportsWork: on the golden FISTA solves with debias, the
// reported transform count must follow the solver's structure — one adjoint
// for the penalty scale, two per iteration, two per debias step (CGLS's
// first step forms the residual and the support gradient), two to finish —
// and the cs.solve span must carry the Result's counts. The 2-D golden
// restarts its momentum at least once; ISTA has none to restart.
func TestResultReportsWork(t *testing.T) {
	for _, twoD := range []bool{true, false} {
		dims, idx, y, _, iters := goldenCase(t, twoD)
		tr := obs.NewTracer("work")
		root := tr.Start("test")
		res, err := ReconstructNDContext(obs.ContextWithSpan(context.Background(), root), dims, idx, y, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		if res.Iterations != iters {
			t.Fatalf("%v: %d iterations, golden %d", dims, res.Iterations, iters)
		}
		if res.DebiasSteps < 1 || res.DebiasSteps > debiasMaxSteps {
			t.Errorf("%v: %d debias steps", dims, res.DebiasSteps)
		}
		if want := 2*res.Iterations + 2*res.DebiasSteps + 3; res.Transforms != want {
			t.Errorf("%v: %d transforms, want 2*%d + 2*%d + 3 = %d", dims, res.Transforms, res.Iterations, res.DebiasSteps, want)
		}
		if twoD && res.Restarts == 0 {
			t.Errorf("%v: FISTA never restarted", dims)
		}
		solve := findNode(tr.Snapshot().Spans, "cs.solve")
		if solve == nil {
			t.Fatalf("%v: no cs.solve span", dims)
		}
		for key, want := range map[string]any{
			"iterations": res.Iterations, "transforms": res.Transforms, "debias_steps": res.DebiasSteps,
			"restarts": res.Restarts, "residual": res.Residual, "sparsity": res.Sparsity,
		} {
			if got := fmt.Sprint(solve.Attrs[key]); got != fmt.Sprint(want) {
				t.Errorf("%v: span attr %s = %s, want %v", dims, key, got, want)
			}
		}

		opt := DefaultOptions()
		opt.Debias = false
		plain, err := ReconstructND(dims, idx, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		if plain.DebiasSteps != 0 || plain.Transforms != 2*plain.Iterations+3 {
			t.Errorf("%v without debias: %d transforms, %d debias steps over %d iterations",
				dims, plain.Transforms, plain.DebiasSteps, plain.Iterations)
		}

		opt = DefaultOptions()
		opt.Method, opt.MaxIter = ISTA, 100
		ista, err := ReconstructND(dims, idx, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		if ista.Restarts != 0 || ista.Transforms != 2*ista.Iterations+2*ista.DebiasSteps+3 {
			t.Errorf("%v ISTA: %d restarts, %d transforms over %d iterations and %d debias steps",
				dims, ista.Restarts, ista.Transforms, ista.Iterations, ista.DebiasSteps)
		}
	}
}

// lassoObjective is 1/2 ||y - A s||^2 + λ ||s||_1 at the default penalty
// λ = 0.001 max|A^T y|.
func lassoObjective(dims, idx []int, y, s []float64) float64 {
	op := newPartialDCT(dims, idx, 1, true)
	aty := make([]float64, op.n())
	op.adjoint(aty, y)
	var maxAbs, l1 float64
	for i, v := range aty {
		maxAbs = math.Max(maxAbs, math.Abs(v))
		l1 += math.Abs(s[i])
	}
	as := make([]float64, op.m())
	op.forward(as, s)
	for j := range as {
		as[j] -= y[j]
	}
	return 0.5*dot(as, as) + 0.001*maxAbs*l1
}

// TestRestartObjective: on both goldens, FISTA with adaptive restart ends at
// a lasso objective (before the polish) no higher than FISTA without it,
// whose values are pinned from the solver before restart was added.
func TestRestartObjective(t *testing.T) {
	for _, c := range []struct {
		twoD      bool
		noRestart float64
	}{{true, 0.0096375728910069111}, {false, 0.0039020129066886689}} {
		dims, idx, y, _, _ := goldenCase(t, c.twoD)
		opt := DefaultOptions()
		opt.Debias = false
		res, err := ReconstructND(dims, idx, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		if obj := lassoObjective(dims, idx, y, res.Coeffs); obj > c.noRestart {
			t.Errorf("%v: lasso objective %.17g, above %.17g without restart", dims, obj, c.noRestart)
		}
	}
}

// TestPolishReachesSupportFit: after the CGLS polish the least-squares
// gradient on the recovered support has vanished to 1e-10 ||A^T y|| on both
// goldens — the exact fit on that support, which a polish stopped at its
// step cap does not reach.
func TestPolishReachesSupportFit(t *testing.T) {
	for _, twoD := range []bool{true, false} {
		dims, idx, y, _, _ := goldenCase(t, twoD)
		res, err := ReconstructND(dims, idx, y, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.DebiasSteps >= debiasMaxSteps {
			t.Errorf("%v: polish hit its %d-step cap", dims, debiasMaxSteps)
		}
		op := newPartialDCT(dims, idx, 1, true)
		aty, grad := make([]float64, op.n()), make([]float64, op.n())
		op.adjoint(aty, y)
		r := make([]float64, op.m())
		op.forward(r, res.Coeffs)
		for j := range r {
			r[j] -= y[j]
		}
		op.adjoint(grad, r)
		var g2 float64
		for i, c := range res.Coeffs {
			if c != 0 {
				g2 += grad[i] * grad[i]
			}
		}
		if g, bound := math.Sqrt(g2), 1e-10*norm2(aty); g > bound {
			t.Errorf("%v: support gradient %g after %d polish steps, want <= %g", dims, g, res.DebiasSteps, bound)
		}
	}
}

// TestOMPGoldenAccuracy: OMP, refitting by the same CGLS polish, recovers
// both goldens' landscapes at least as closely as its 25-step unit-step
// refit did (relative errors 2.9e-11 on 2-D and 2.0e-10 on 1-D; CGLS
// reaches 2.5e-16 and 2.7e-16).
func TestOMPGoldenAccuracy(t *testing.T) {
	for _, twoD := range []bool{true, false} {
		dims, idx, y, x, _ := goldenCase(t, twoD)
		opt := DefaultOptions()
		opt.Method = OMP
		res, err := ReconstructND(dims, idx, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(res.X, x); e > 1e-12 {
			t.Errorf("%v: OMP relative error %g", dims, e)
		}
	}
}

// TestSolveIgnoresSampleOrder: listing the same samples in another order —
// a fleet appends batches in completion order — gives a bit-identical X,
// Coeffs and Residual, for FISTA, ISTA, OMP and a warm start, at 1 and 4
// workers, and leaves the caller's slices as they were.
func TestSolveIgnoresSampleOrder(t *testing.T) {
	dims, idx, y, _, _ := goldenCase(t, true)
	rng := rand.New(rand.NewSource(47))
	perm := rng.Perm(len(idx))
	pidx, py := make([]int, len(idx)), make([]float64, len(y))
	for j, k := range perm {
		pidx[j], py[j] = idx[k], y[k]
	}
	before := hashFloats(py)
	cold, err := ReconstructND(dims, idx[:len(idx)/2], y[:len(y)/2], DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := map[string]Options{}
	for _, name := range []string{"fista", "ista", "omp", "warm"} {
		opts[name] = DefaultOptions()
	}
	o := opts["ista"]
	o.Method, o.MaxIter = ISTA, 100
	opts["ista"] = o
	o = opts["omp"]
	o.Method, o.OMPSparsity = OMP, 16
	opts["omp"] = o
	o = opts["warm"]
	o.Warm = cold.Coeffs
	opts["warm"] = o
	for name, opt := range opts {
		opt.Workers = 1
		ref, err := ReconstructND(dims, idx, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 4} {
			opt.Workers = w
			got, err := ReconstructND(dims, pidx, py, opt)
			if err != nil {
				t.Fatal(err)
			}
			if hashFloats(got.X) != hashFloats(ref.X) || hashFloats(got.Coeffs) != hashFloats(ref.Coeffs) ||
				math.Float64bits(got.Residual) != math.Float64bits(ref.Residual) {
				t.Errorf("%s w%d: permuted samples give residual %v, sorted %v", name, w, got.Residual, ref.Residual)
			}
		}
	}
	for j, k := range perm {
		if pidx[j] != idx[k] {
			t.Fatal("solve reordered the caller's idx")
		}
	}
	if hashFloats(py) != before {
		t.Fatal("solve reordered the caller's y")
	}
}

func findNode(nodes []*obs.SpanNode, name string) *obs.SpanNode {
	for _, n := range nodes {
		if n.Name == name {
			return n
		}
		if c := findNode(n.Children, name); c != nil {
			return c
		}
	}
	return nil
}

// TestReconstructManyPanicIsContained injects a panic into one job: that
// job alone must fail, with a *shard.PanicError carrying the panicking
// goroutine's stack, and every other job must match a clean run bit for
// bit. Run it under -race at several -cpu counts.
func TestReconstructManyPanicIsContained(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var jobs []Job
	for k := 0; k < 6; k++ {
		rows, cols := 12+k, 14+k
		x, _ := sparseLandscape(rng, rows, cols, 3)
		idx, err := SampleIndices(rng, rows*cols, rows*cols/4)
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, len(idx))
		for j, i := range idx {
			y[j] = x[i]
		}
		jobs = append(jobs, Job{Dims: []int{rows, cols}, Idx: idx, Y: y, Opt: DefaultOptions()})
	}
	clean := ReconstructMany(context.Background(), jobs...)

	const bad = 2
	solveHook = func(j Job) {
		if j.Dims[0] == jobs[bad].Dims[0] {
			panic("injected solver fault")
		}
	}
	t.Cleanup(func() { solveHook = nil })
	got := ReconstructMany(context.Background(), jobs...)

	var pe *shard.PanicError
	if !errors.As(got[bad].Err, &pe) {
		t.Fatalf("panicking job: err = %v, want *shard.PanicError", got[bad].Err)
	}
	if pe.Value != "injected solver fault" || !strings.Contains(string(pe.Stack), "TestReconstructManyPanicIsContained") {
		t.Errorf("panic value %v, stack:\n%s", pe.Value, pe.Stack)
	}
	if got[bad].Result != nil {
		t.Error("panicking job also returned a result")
	}
	for k, jr := range got {
		if k == bad {
			continue
		}
		if jr.Err != nil || clean[k].Err != nil {
			t.Fatalf("job %d: err %v (clean run %v)", k, jr.Err, clean[k].Err)
		}
		for i := range jr.Result.X {
			if math.Float64bits(jr.Result.X[i]) != math.Float64bits(clean[k].Result.X[i]) ||
				math.Float64bits(jr.Result.Coeffs[i]) != math.Float64bits(clean[k].Result.Coeffs[i]) {
				t.Fatalf("job %d: element %d differs from the clean run", k, i)
			}
		}
	}
}

package cs

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dct"
)

// sparseLandscape builds a rows×cols signal with k active DCT modes.
func sparseLandscape(rng *rand.Rand, rows, cols, k int) ([]float64, []float64) {
	n := rows * cols
	coeffs := make([]float64, n)
	for i := 0; i < k; i++ {
		// Keep modes low-frequency, like real VQA landscapes.
		r := rng.Intn(rows/3 + 1)
		c := rng.Intn(cols/3 + 1)
		coeffs[r*cols+c] = 2*rng.Float64() + 1
	}
	x := make([]float64, n)
	dct.NewPlanND([]int{rows, cols}).Inverse(x, coeffs)
	return x, coeffs
}

func relErr(got, want []float64) float64 {
	var num, den float64
	for i := range got {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

func TestReconstructExactSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows, cols := 30, 40
	x, _ := sparseLandscape(rng, rows, cols, 5)
	idx, err := SampleIndices(rng, rows*cols, rows*cols/5)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	res, err := ReconstructND([]int{rows, cols}, idx, y, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(res.X, x); e > 0.02 {
		t.Fatalf("relative error %g too high for 20%% sampling of 5-sparse signal", e)
	}
}

func TestReconstructMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rows, cols := 24, 24
	x, _ := sparseLandscape(rng, rows, cols, 4)
	idx, _ := SampleIndices(rng, rows*cols, 160)
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	for _, m := range []Method{FISTA, ISTA, OMP} {
		opt := DefaultOptions()
		opt.Method = m
		if m == ISTA {
			opt.MaxIter = 2000
		}
		if m == OMP {
			opt.OMPSparsity = 16
		}
		res, err := ReconstructND([]int{rows, cols}, idx, y, opt)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if e := relErr(res.X, x); e > 0.1 {
			t.Errorf("%v: relative error %g too high", m, e)
		}
	}
}

func TestReconstructNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rows, cols := 30, 30
	x, _ := sparseLandscape(rng, rows, cols, 4)
	idx, _ := SampleIndices(rng, rows*cols, 300)
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i] + 0.01*rng.NormFloat64()
	}
	opt := DefaultOptions()
	opt.LambdaRel = 0.02
	res, err := ReconstructND([]int{rows, cols}, idx, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(res.X, x); e > 0.1 {
		t.Fatalf("relative error %g too high under measurement noise", e)
	}
}

func TestReconstructDebias(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	rows, cols := 20, 20
	x, _ := sparseLandscape(rng, rows, cols, 3)
	idx, _ := SampleIndices(rng, rows*cols, 120)
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	plain := DefaultOptions()
	plain.Debias = false
	deb := DefaultOptions()
	deb.Debias = true
	r1, err := ReconstructND([]int{rows, cols}, idx, y, plain)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ReconstructND([]int{rows, cols}, idx, y, deb)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(r2.X, x) > relErr(r1.X, x)+1e-9 {
		t.Errorf("debiasing made recovery worse: %g vs %g", relErr(r2.X, x), relErr(r1.X, x))
	}
}

func TestReconstructValidation(t *testing.T) {
	cases := []struct {
		name string
		rows int
		cols int
		idx  []int
		y    []float64
	}{
		{"bad shape", 0, 5, []int{0}, []float64{1}},
		{"length mismatch", 4, 4, []int{0, 1}, []float64{1}},
		{"empty", 4, 4, nil, nil},
		{"out of range", 4, 4, []int{16}, []float64{1}},
		{"negative", 4, 4, []int{-1}, []float64{1}},
		{"duplicate", 4, 4, []int{3, 3}, []float64{1, 1}},
	}
	for _, tc := range cases {
		if _, err := ReconstructND([]int{tc.rows, tc.cols}, tc.idx, tc.y, DefaultOptions()); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
}

func TestReconstructZeroSignal(t *testing.T) {
	idx := []int{0, 5, 10, 15}
	y := []float64{0, 0, 0, 0}
	res, err := ReconstructND([]int{4, 4}, idx, y, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.X {
		if v != 0 {
			t.Fatalf("X[%d]=%g, want 0", i, v)
		}
	}
}

// TestAdjointProperty verifies <A s, r> == <s, A^T r> for random vectors, the
// defining property the proximal solver relies on, on a 2-D grid and on a
// 3-D grid with a degenerate axis and a long (zero-skipping) dense axis.
func TestAdjointProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, dims := range [][]int{{9, 13}, {5, 1, 24}} {
		cfg := &quick.Config{MaxCount: 30, Rand: rng}
		n := 1
		for _, d := range dims {
			n *= d
		}
		idx, _ := SampleIndices(rng, n, 40)
		op := newPartialDCT(dims, idx, 1, true)
		f := func(seed int64) bool {
			r2 := rand.New(rand.NewSource(seed))
			s := make([]float64, n)
			for i := range s {
				s[i] = r2.NormFloat64()
			}
			r := make([]float64, len(idx))
			for i := range r {
				r[i] = r2.NormFloat64()
			}
			as := make([]float64, len(idx))
			op.forward(as, s)
			atr := make([]float64, n)
			op.adjoint(atr, r)
			var lhs, rhs float64
			for i := range as {
				lhs += as[i] * r[i]
			}
			for i := range s {
				rhs += s[i] * atr[i]
			}
			return math.Abs(lhs-rhs) <= 1e-8*(1+math.Abs(lhs))
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Fatalf("%v: %v", dims, err)
		}
	}
}

// TestOperatorContraction verifies ||A s|| <= ||s||, which justifies the unit
// FISTA step size.
func TestOperatorContraction(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	rows, cols := 10, 14
	n := rows * cols
	idx, _ := SampleIndices(rng, n, 50)
	op := newPartialDCT([]int{rows, cols}, idx, 1, true)
	for trial := 0; trial < 30; trial++ {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		as := make([]float64, len(idx))
		op.forward(as, s)
		var ns, nas float64
		for _, v := range s {
			ns += v * v
		}
		for _, v := range as {
			nas += v * v
		}
		if nas > ns*(1+1e-9) {
			t.Fatalf("||As||^2=%g > ||s||^2=%g", nas, ns)
		}
	}
}

func TestSampleIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	idx, err := SampleIndices(rng, 100, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 30 {
		t.Fatalf("got %d indices, want 30", len(idx))
	}
	seen := map[int]bool{}
	last := -1
	for _, i := range idx {
		if i < 0 || i >= 100 {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		if i <= last {
			t.Fatalf("indices not sorted at %d", i)
		}
		seen[i] = true
		last = i
	}
	if _, err := SampleIndices(rng, 10, 11); err == nil {
		t.Error("want error sampling 11 of 10")
	}
	if _, err := SampleIndices(rng, 10, 0); err == nil {
		t.Error("want error sampling 0")
	}
}

func TestStratifiedIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	idx, err := StratifiedIndices(rng, 100, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) == 0 || len(idx) > 25 {
		t.Fatalf("got %d indices", len(idx))
	}
	// Every bucket of 4 should hold at most one point by construction.
	for _, i := range idx {
		if i < 0 || i >= 100 {
			t.Fatalf("index %d out of range", i)
		}
	}
	if _, err := StratifiedIndices(rng, 10, 0); err == nil {
		t.Error("want error for m=0")
	}
}

// TestStratifiedIndicesBucketCoverage checks the defining stratification
// property: with n divisible by m every bucket [b*n/m, (b+1)*n/m) contributes
// exactly one point, so coverage is uniform across the grid.
func TestStratifiedIndicesBucketCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	n, m := 120, 24 // bucket width 5
	idx, err := StratifiedIndices(rng, n, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != m {
		t.Fatalf("got %d indices, want %d (equal buckets cannot collide)", len(idx), m)
	}
	perBucket := make([]int, m)
	for _, i := range idx {
		if i < 0 || i >= n {
			t.Fatalf("index %d out of range", i)
		}
		perBucket[i*m/n]++
	}
	for b, c := range perBucket {
		if c != 1 {
			t.Fatalf("bucket %d holds %d points, want exactly 1 (got %v)", b, c, idx)
		}
	}
	// Uneven buckets (n not divisible by m) may skip duplicates but never
	// place two points in one bucket.
	idx2, err := StratifiedIndices(rng, 103, 10)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, i := range idx2 {
		b := 0
		for !(b*103/10 <= i && i < (b+1)*103/10) {
			b++
		}
		if seen[b] {
			t.Fatalf("bucket %d holds two points: %v", b, idx2)
		}
		seen[b] = true
	}
}

// TestStratifiedIndicesDeterministic: a fixed seed reproduces the exact
// sampling pattern, the property reconstruction reproducibility rests on.
func TestStratifiedIndicesDeterministic(t *testing.T) {
	a, err := StratifiedIndices(rand.New(rand.NewSource(42)), 500, 60)
	if err != nil {
		t.Fatal(err)
	}
	b, err := StratifiedIndices(rand.New(rand.NewSource(42)), 500, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ under the same seed: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("index %d differs under the same seed: %d vs %d", i, a[i], b[i])
		}
	}
	c, err := StratifiedIndices(rand.New(rand.NewSource(43)), 500, 60)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical stratified samples")
	}
}

// TestReconstructParallelBitIdentical is the acceptance contract for the
// sharded solver: every worker count must reproduce the serial solve
// bit-for-bit (coefficients and landscape), for the proximal methods and OMP,
// on a grid large enough to defeat the serial fallback.
func TestReconstructParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rows, cols := 64, 160 // 10240 points: above the 10000-point serial floor
	x, _ := sparseLandscape(rng, rows, cols, 6)
	idx, err := SampleIndices(rng, rows*cols, 500)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	for _, m := range []Method{FISTA, ISTA, OMP} {
		base := DefaultOptions()
		base.Method = m
		// Bit-identity does not need convergence; a short run keeps the
		// race-instrumented CI pass fast while still exercising the
		// continuation schedule and the sharded prox/extrapolation
		// kernels. Debias (50 extra operator applications per solve) is
		// covered once, on the FISTA path.
		base.MaxIter = 50
		base.Debias = m == FISTA
		if m == ISTA {
			base.MaxIter = 40
		}
		if m == OMP {
			base.OMPSparsity = 8
		}
		serialOpt := base
		serialOpt.Workers = 1
		want, err := ReconstructND([]int{rows, cols}, idx, y, serialOpt)
		if err != nil {
			t.Fatalf("%v serial: %v", m, err)
		}
		for _, workers := range []int{0, 2, 3, 8} {
			opt := base
			opt.Workers = workers
			got, err := ReconstructND([]int{rows, cols}, idx, y, opt)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", m, workers, err)
			}
			if got.Iterations != want.Iterations {
				t.Fatalf("%v workers=%d: %d iterations, serial %d", m, workers, got.Iterations, want.Iterations)
			}
			if got.Residual != want.Residual || got.Sparsity != want.Sparsity {
				t.Fatalf("%v workers=%d: diagnostics diverged from serial", m, workers)
			}
			for i := range want.X {
				if got.X[i] != want.X[i] {
					t.Fatalf("%v workers=%d: X[%d]=%v, serial %v", m, workers, i, got.X[i], want.X[i])
				}
				if got.Coeffs[i] != want.Coeffs[i] {
					t.Fatalf("%v workers=%d: Coeffs[%d]=%v, serial %v", m, workers, i, got.Coeffs[i], want.Coeffs[i])
				}
			}
		}
	}
}

// TestReconstruct1DParallelBitIdentical covers a one-axis shape, where only
// the single DCT pass and the vector kernels can shard.
func TestReconstruct1DParallelBitIdentical(t *testing.T) {
	n := 8192
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(math.Pi*(2*float64(i)+1)*5/(2*float64(n))) +
			0.25*math.Cos(math.Pi*(2*float64(i)+1)*11/(2*float64(n)))
	}
	rng := rand.New(rand.NewSource(24))
	idx, err := SampleIndices(rng, n, 400)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	serialOpt := DefaultOptions()
	serialOpt.Workers = 1
	serialOpt.MaxIter = 120
	want, err := ReconstructND([]int{n}, idx, y, serialOpt)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(want.X, x); e > 0.01 {
		t.Fatalf("1-D relative error %g", e)
	}
	for _, workers := range []int{0, 3, 8} {
		opt := serialOpt
		opt.Workers = workers
		got, err := ReconstructND([]int{n}, idx, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.X {
			if got.X[i] != want.X[i] {
				t.Fatalf("workers=%d: X[%d]=%v, serial %v", workers, i, got.X[i], want.X[i])
			}
		}
	}
}

func TestReconstructCanceledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	rows, cols := 20, 20
	x, _ := sparseLandscape(rng, rows, cols, 3)
	idx, _ := SampleIndices(rng, rows*cols, 100)
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []Method{FISTA, OMP} {
		opt := DefaultOptions()
		opt.Method = m
		if _, err := ReconstructNDContext(ctx, []int{rows, cols}, idx, y, opt); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", m, err)
		}
	}
}

// lateCancelCtx reports cancellation from its (after+1)-th Err call on, so
// a test can cancel a solve at a chosen check without relying on timing.
type lateCancelCtx struct {
	context.Context
	after, calls int
}

func (c *lateCancelCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestCancelDuringPolish: cancellation that arrives once the main loop has
// stopped still cancels the least-squares polish that follows it — FISTA's
// debias and OMP's per-step refit — at every one of the polish's checks,
// the first, the last and those in between, instead of running up to 50 (or
// 25 per greedy step) more forward+adjoint pairs.
func TestCancelDuringPolish(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	rows, cols := 20, 20
	x, _ := sparseLandscape(rng, rows, cols, 3)
	idx, _ := SampleIndices(rng, rows*cols, 100)
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	dims := []int{rows, cols}

	// FISTA checks ctx once per iteration, then once per debias step.
	count := &lateCancelCtx{Context: context.Background(), after: math.MaxInt}
	res, err := ReconstructNDContext(count, dims, idx, y, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.DebiasSteps < 3 || count.calls != res.Iterations+res.DebiasSteps {
		t.Fatalf("FISTA: %d ctx checks over %d iterations and %d debias steps", count.calls, res.Iterations, res.DebiasSteps)
	}
	for k := 0; k < res.DebiasSteps; k++ {
		ctx := &lateCancelCtx{Context: context.Background(), after: res.Iterations + k}
		if _, err := ReconstructNDContext(ctx, dims, idx, y, DefaultOptions()); !errors.Is(err, context.Canceled) {
			t.Errorf("FISTA canceled before debias step %d: err = %v, want context.Canceled", k+1, err)
		}
	}

	// OMP checks ctx once per greedy step and once per refit step; a
	// cancellation at any of them must stop the solve.
	opt := DefaultOptions()
	opt.Method = OMP
	count = &lateCancelCtx{Context: context.Background(), after: math.MaxInt}
	res, err = ReconstructNDContext(count, dims, idx, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	if count.calls < 3*res.Iterations {
		t.Fatalf("OMP checked ctx %d times in %d greedy steps: the refits check too little", count.calls, res.Iterations)
	}
	for after := 0; after < count.calls; after++ {
		ctx := &lateCancelCtx{Context: context.Background(), after: after}
		if _, err := ReconstructNDContext(ctx, dims, idx, y, opt); !errors.Is(err, context.Canceled) {
			t.Errorf("OMP canceled at check %d of %d: err = %v, want context.Canceled", after+1, count.calls, err)
		}
	}
}

// TestPrunedOperatorSolvesBitIdentical: whole solves on the pruned operator
// and on the full-grid one agree bit for bit — X, Coeffs, Residual and the
// work counts — for FISTA, warm-started FISTA and OMP, on the solver's 2-D
// and 4-D grids at 1 and 2 workers.
func TestPrunedOperatorSolvesBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, dims := range [][]int{{50, 100}, {8, 8, 8, 8}} {
		n := 1
		for _, d := range dims {
			n *= d
		}
		coeffs := make([]float64, n)
		for i := 0; i < 12; i++ {
			coeffs[rng.Intn(n/8)] = rng.NormFloat64()
		}
		x := make([]float64, n)
		dct.NewPlanND(dims).Inverse(x, coeffs)
		idx, _ := StratifiedIndicesND(rng, dims, n/10)
		y := make([]float64, len(idx))
		for j, i := range idx {
			y[j] = x[i]
		}
		warm := make([]float64, n)
		for i, c := range coeffs {
			warm[i] = 0.9 * c
		}
		opts := map[string]Options{"fista": DefaultOptions(), "warm": DefaultOptions(), "omp": DefaultOptions()}
		o := opts["warm"]
		o.Warm = warm
		opts["warm"] = o
		o = opts["omp"]
		o.Method, o.OMPSparsity = OMP, 16
		opts["omp"] = o
		for name, opt := range opts {
			opt.fill()
			for _, w := range []int{1, 2} {
				var res [2]*Result
				for k, pruned := range []bool{false, true} {
					op := newPartialDCT(dims, idx, w, pruned)
					var err error
					if opt.Method == OMP {
						res[k], err = solveOMP(context.Background(), op, y, opt)
					} else {
						res[k], err = solveProx(context.Background(), op, y, opt)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				full, pruned := res[0], res[1]
				if hashFloats(full.X) != hashFloats(pruned.X) || hashFloats(full.Coeffs) != hashFloats(pruned.Coeffs) ||
					math.Float64bits(full.Residual) != math.Float64bits(pruned.Residual) ||
					full.Iterations != pruned.Iterations || full.Transforms != pruned.Transforms ||
					full.DebiasSteps != pruned.DebiasSteps || full.Sparsity != pruned.Sparsity {
					t.Errorf("%v %s w%d: pruned solve (iters %d, transforms %d, residual %v) differs from full (%d, %d, %v)",
						dims, name, w, pruned.Iterations, pruned.Transforms, pruned.Residual,
						full.Iterations, full.Transforms, full.Residual)
				}
			}
		}
	}
}

func TestReconstructManyMatchesIndividual(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var jobs []Job
	var want []*Result
	for k := 0; k < 6; k++ {
		rows, cols := 20+k, 25+2*k
		x, _ := sparseLandscape(rng, rows, cols, 4)
		idx, err := SampleIndices(rng, rows*cols, rows*cols/4)
		if err != nil {
			t.Fatal(err)
		}
		y := make([]float64, len(idx))
		for j, i := range idx {
			y[j] = x[i]
		}
		jobs = append(jobs, Job{Dims: []int{rows, cols}, Idx: idx, Y: y, Opt: DefaultOptions()})
		opt := DefaultOptions()
		opt.Workers = 1 // ReconstructMany solves zero-Workers jobs serially
		res, err := ReconstructND([]int{rows, cols}, idx, y, opt)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}
	// One 4-axis job: ReconstructMany has no 2-axis special case.
	dims := []int{6, 5, 7, 4}
	x := sparseND(rng, dims, 3)
	idx, err := SampleIndices(rng, len(x), len(x)/4)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	jobs = append(jobs, Job{Dims: dims, Idx: idx, Y: y, Opt: DefaultOptions()})
	opt := DefaultOptions()
	opt.Workers = 1
	res, err := ReconstructND(dims, idx, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, res)
	got := ReconstructMany(context.Background(), jobs...)
	if len(got) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(got), len(jobs))
	}
	for k, jr := range got {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", k, jr.Err)
		}
		for i := range want[k].X {
			if jr.Result.X[i] != want[k].X[i] {
				t.Fatalf("job %d: X[%d] differs from individual solve", k, i)
			}
		}
	}
}

// TestReconstructManyZeroOptUsesDefaults: a job whose Opt is zero (or sets
// only Workers) solves with DefaultOptions, like every other entry point.
func TestReconstructManyZeroOptUsesDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rows, cols := 18, 22
	x, _ := sparseLandscape(rng, rows, cols, 3)
	idx, _ := SampleIndices(rng, rows*cols, 100)
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	opt := DefaultOptions()
	opt.Workers = 1
	want, err := ReconstructND([]int{rows, cols}, idx, y, opt)
	if err != nil {
		t.Fatal(err)
	}
	out := ReconstructMany(context.Background(),
		Job{Dims: []int{rows, cols}, Idx: idx, Y: y},
		Job{Dims: []int{rows, cols}, Idx: idx, Y: y, Opt: Options{Workers: 1}},
		// Negative Workers must also stay serial inside the pool, not
		// resolve to GOMAXPROCS.
		Job{Dims: []int{rows, cols}, Idx: idx, Y: y, Opt: Options{Workers: -2}})
	for k, jr := range out {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", k, jr.Err)
		}
		for i := range want.X {
			if jr.Result.X[i] != want.X[i] {
				t.Fatalf("job %d: X[%d] differs from a DefaultOptions solve — zero Opt was not promoted", k, i)
			}
		}
	}
}

// TestReconstructManyErrorIsolation: one malformed job must fail alone.
func TestReconstructManyErrorIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	rows, cols := 16, 16
	x, _ := sparseLandscape(rng, rows, cols, 2)
	idx, _ := SampleIndices(rng, rows*cols, 80)
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	good := Job{Dims: []int{rows, cols}, Idx: idx, Y: y, Opt: DefaultOptions()}
	bad := Job{Dims: []int{0, cols}, Idx: idx, Y: y, Opt: DefaultOptions()}
	out := ReconstructMany(context.Background(), good, bad, good)
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("good jobs failed: %v / %v", out[0].Err, out[2].Err)
	}
	if out[1].Err == nil {
		t.Fatal("malformed job did not report an error")
	}
	if out[0].Result == nil || out[2].Result == nil || out[1].Result != nil {
		t.Fatal("result/error pairing wrong")
	}
}

func TestReconstructManyCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	rows, cols := 16, 16
	x, _ := sparseLandscape(rng, rows, cols, 2)
	idx, _ := SampleIndices(rng, rows*cols, 80)
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Dims: []int{rows, cols}, Idx: idx, Y: y, Opt: DefaultOptions()}
	}
	out := ReconstructMany(ctx, jobs...)
	for i, jr := range out {
		if !errors.Is(jr.Err, context.Canceled) {
			t.Fatalf("job %d: err = %v, want context.Canceled", i, jr.Err)
		}
	}
	if out := ReconstructMany(context.Background()); len(out) != 0 {
		t.Fatalf("zero jobs returned %d results", len(out))
	}
}

// TestLambdaRelDefault pins the documented default penalty: a zero-valued
// Options must use the same LambdaRel as DefaultOptions (0.001).
func TestLambdaRelDefault(t *testing.T) {
	if got := DefaultOptions().LambdaRel; got != 0.001 {
		t.Fatalf("DefaultOptions().LambdaRel = %g, want 0.001", got)
	}
	var opt Options
	opt.fill()
	if opt.LambdaRel != DefaultOptions().LambdaRel {
		t.Fatalf("zero Options fills LambdaRel=%g, DefaultOptions uses %g — defaults diverged",
			opt.LambdaRel, DefaultOptions().LambdaRel)
	}
	explicit := Options{LambdaRel: 0.05}
	explicit.fill()
	if explicit.LambdaRel != 0.05 {
		t.Fatalf("fill clobbered an explicit LambdaRel: %g", explicit.LambdaRel)
	}
}

func TestMethodString(t *testing.T) {
	if FISTA.String() != "fista" || ISTA.String() != "ista" || OMP.String() != "omp" {
		t.Error("method names wrong")
	}
	if Method(42).String() == "" {
		t.Error("unknown method should still stringify")
	}
}

// TestRecoveryImprovesWithSamples is the qualitative Figure 4 property:
// reconstruction error decreases as the sampling fraction grows.
func TestRecoveryImprovesWithSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	rows, cols := 25, 25
	x, _ := sparseLandscape(rng, rows, cols, 6)
	errs := make([]float64, 0, 3)
	for _, m := range []int{40, 120, 320} {
		idx, _ := SampleIndices(rand.New(rand.NewSource(99)), rows*cols, m)
		y := make([]float64, len(idx))
		for j, i := range idx {
			y[j] = x[i]
		}
		res, err := ReconstructND([]int{rows, cols}, idx, y, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, relErr(res.X, x))
	}
	if !(errs[2] <= errs[0]) {
		t.Fatalf("error did not improve with samples: %v", errs)
	}
	if errs[2] > 0.05 {
		t.Fatalf("error at 51%% sampling too high: %g", errs[2])
	}
}

func TestReconstruct1D(t *testing.T) {
	n := 200
	x := make([]float64, n)
	for i := range x {
		// Two cosine modes: 2-sparse in the DCT basis.
		x[i] = math.Cos(math.Pi*(2*float64(i)+1)*3/(2*float64(n))) +
			0.5*math.Cos(math.Pi*(2*float64(i)+1)*7/(2*float64(n)))
	}
	rng := rand.New(rand.NewSource(20))
	idx, err := SampleIndices(rng, n, 40)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	res, err := ReconstructND([]int{n}, idx, y, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(res.X, x); e > 0.01 {
		t.Fatalf("1-D relative error %g", e)
	}
	if len(res.X) != n || len(res.Coeffs) != n {
		t.Fatalf("1-D result shape %d/%d, want %d", len(res.X), len(res.Coeffs), n)
	}
}

// TestReconstruct1DValidation: one-axis shapes get the same validation as
// any other.
func TestReconstruct1DValidation(t *testing.T) {
	if _, err := ReconstructND([]int{0}, []int{0}, []float64{1}, DefaultOptions()); err == nil {
		t.Error("want error for n=0")
	}
	if _, err := ReconstructND([]int{10}, []int{10}, []float64{1}, DefaultOptions()); err == nil {
		t.Error("want error for out-of-range index")
	}
	if _, err := ReconstructND([]int{10}, []int{1, 1}, []float64{1, 1}, DefaultOptions()); err == nil {
		t.Error("want error for duplicate index")
	}
}

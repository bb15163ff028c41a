package oscar

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/optimizer"
)

// TestReconstructEquivalentAcrossEntryPoints is the PR's acceptance
// criterion: for a fixed seed, Reconstruct output is bit-identical across
// worker counts and across the legacy, context, and batch entry points.
func TestReconstructEquivalentAcrossEntryPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prob, err := Random3RegularMaxCut(14, rng)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewAnalyticQAOA(prob, DepolarizingNoise("d", 0.002, 0.008))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := QAOAGrid(1, 25, 50)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{SamplingFraction: 0.1, Seed: 99}
	ref, _, err := Reconstruct(grid, dev.Evaluate, opt)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, l *Landscape) {
		t.Helper()
		for i := range l.Data {
			if l.Data[i] != ref.Data[i] {
				t.Fatalf("%s: point %d differs: %g vs %g", label, i, l.Data[i], ref.Data[i])
			}
		}
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		o := opt
		o.Workers = workers
		legacy, _, err := Reconstruct(grid, dev.Evaluate, o)
		if err != nil {
			t.Fatal(err)
		}
		check("legacy", legacy)
		withCtx, _, err := ReconstructContext(context.Background(), grid, dev.Evaluate, o)
		if err != nil {
			t.Fatal(err)
		}
		check("context", withCtx)
		o.Cache = NewEvalCache(0)
		batch, _, err := ReconstructBatch(context.Background(), grid, Batch(dev), o)
		if err != nil {
			t.Fatal(err)
		}
		check("batch", batch)
	}
}

// TestEngineObjectiveThroughCache checks an engine-backed ADAM run: stencil
// batches flow through the engine and revisited points come from the cache.
func TestEngineObjectiveThroughCache(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	prob, err := Random3RegularMaxCut(10, rng)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewAnalyticQAOA(prob, IdealNoise())
	if err != nil {
		t.Fatal(err)
	}
	// Uncached engine: bit-identical to the serial optimizer.
	plain := NewEngine(Batch(dev), EngineOptions{Workers: 2})
	res0, err := RunADAMBatch(EngineObjective(context.Background(), plain), []float64{0.3, -0.3},
		optimizer.ADAMOptions{MaxIter: 40})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunADAM(dev.Evaluate, []float64{0.3, -0.3}, optimizer.ADAMOptions{MaxIter: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res0.F != serial.F || res0.Queries != serial.Queries {
		t.Fatalf("engine-backed ADAM diverged: F %g vs %g, queries %d vs %d",
			res0.F, serial.F, res0.Queries, serial.Queries)
	}
	// Cached engine: the quantized cache may merge sub-quantum-distinct
	// stencil points, so the trajectory agrees to quantization precision
	// rather than bit-for-bit.
	cache := NewEvalCache(0)
	en := NewEngine(Batch(dev), EngineOptions{Workers: 2, Cache: cache})
	res, err := RunADAMBatch(EngineObjective(context.Background(), en), []float64{0.3, -0.3},
		optimizer.ADAMOptions{MaxIter: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != serial.Queries {
		t.Fatalf("queries %d vs %d", res.Queries, serial.Queries)
	}
	if math.Abs(res.F-serial.F) > 1e-6 {
		t.Fatalf("cached engine ADAM drifted: F %g vs %g", res.F, serial.F)
	}
	// A second identical run revisits every point: all engine lookups hit.
	misses := cache.Misses()
	res2, err := RunADAMBatch(EngineObjective(context.Background(), en), []float64{0.3, -0.3},
		optimizer.ADAMOptions{MaxIter: 40})
	if err != nil {
		t.Fatal(err)
	}
	if res2.F != res.F {
		t.Fatalf("cached re-run diverged: %g vs %g", res2.F, res.F)
	}
	if cache.Misses() != misses {
		t.Fatalf("cached re-run re-executed points: misses %d -> %d", misses, cache.Misses())
	}
	if cache.Hits() < int64(res.Queries) {
		t.Fatalf("cache hits %d, want >= %d", cache.Hits(), res.Queries)
	}
}

// TestPublicWorkflow exercises the documented end-to-end API: problem ->
// device -> grid -> reconstruct -> interpolate -> optimize.
func TestPublicWorkflow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prob, err := Random3RegularMaxCut(12, rng)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewAnalyticQAOA(prob, DepolarizingNoise("d", 0.001, 0.005))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := QAOAGrid(1, 30, 60)
	if err != nil {
		t.Fatal(err)
	}
	recon, stats, err := Reconstruct(grid, dev.Evaluate, Options{SamplingFraction: 0.08, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples != 144 {
		t.Fatalf("samples %d", stats.Samples)
	}
	truth, err := GenerateDense(grid, dev.Evaluate, 0)
	if err != nil {
		t.Fatal(err)
	}
	nr, err := NRMSE(truth, recon)
	if err != nil {
		t.Fatal(err)
	}
	if nr > 0.1 {
		t.Fatalf("NRMSE %g", nr)
	}

	surf, err := Interpolate(recon)
	if err != nil {
		t.Fatal(err)
	}
	obj := InterpolatedObjective(surf)
	res, err := RunADAM(obj, []float64{0.1, 0.1}, optimizer.ADAMOptions{MaxIter: 200})
	if err != nil {
		t.Fatal(err)
	}
	minV, _ := recon.Min()
	if res.F > minV+1 {
		t.Fatalf("optimizer on interpolation found %g, landscape min %g", res.F, minV)
	}
	if _, err := obj([]float64{1}); err == nil {
		t.Fatal("want arity error from interpolated objective")
	}
	// A 2-axis landscape is fitted by the same NDSpline as any other.
	if _, ok := surf.(*NDSpline); !ok {
		t.Fatalf("2-axis Interpolate returned %T, want *NDSpline", surf)
	}
}

// TestP2PublicWorkflow is the PR's p=2 acceptance criterion: a depth-2 QAOA
// workload runs end to end through the public API — QAOAGridP(2, ...) →
// ReconstructBatch → Interpolate → OptimizeOnSurrogate — with a true 4-D
// reconstruction and a 4-parameter surrogate descent.
func TestP2PublicWorkflow(t *testing.T) {
	prob, err := MeshMaxCut(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := QAOAAnsatz(prob, 2)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := NewStateVector(prob, ans)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := QAOAGridP(2, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid.Axes) != 4 {
		t.Fatalf("%d axes, want 4", len(grid.Axes))
	}
	wantNames := []string{"beta1", "beta2", "gamma1", "gamma2"}
	for i, a := range grid.Axes {
		if a.Name != wantNames[i] {
			t.Fatalf("axis %d named %q, want %q", i, a.Name, wantNames[i])
		}
	}
	ctx := context.Background()
	recon, stats, err := ReconstructBatch(ctx, grid, Batch(dev), Options{SamplingFraction: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.GridSize != 6*6*7*7 {
		t.Fatalf("grid size %d", stats.GridSize)
	}
	surf, err := Interpolate(recon)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := surf.(*NDSpline); !ok {
		t.Fatalf("4-axis Interpolate returned %T, want *NDSpline", surf)
	}
	if surf.Arity() != 4 {
		t.Fatalf("surrogate arity %d, want 4", surf.Arity())
	}
	res, err := OptimizeOnSurrogate(ctx, grid, Batch(dev), SurrogateOptions{
		Recon: Options{SamplingFraction: 0.3, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Optimum.X) != 4 {
		t.Fatalf("optimum has %d parameters, want 4", len(res.Optimum.X))
	}
	minV, _ := res.Landscape.Min()
	if res.Optimum.F > minV+1e-9 {
		t.Fatalf("surrogate descent ended at %g, above the grid minimum %g", res.Optimum.F, minV)
	}
	// The surrogate optimum is a real improvement on the true landscape:
	// re-evaluating it on the circuit beats the median grid value.
	atOpt, err := dev.Evaluate(res.Optimum.X)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := GenerateDense(grid, dev.Evaluate, 0)
	if err != nil {
		t.Fatal(err)
	}
	trueMin, _ := truth.Min()
	if atOpt > trueMin+0.5 {
		t.Fatalf("surrogate optimum evaluates to %g on the circuit; true minimum is %g", atOpt, trueMin)
	}
	// QAOAGridP degenerates to the classic grid at p=1 and rejects p<1.
	g1, err := QAOAGridP(1, 8, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(g1.Axes) != 2 || g1.Axes[0].Name != "beta" || g1.Axes[1].Name != "gamma" {
		t.Fatalf("QAOAGridP(1) axes %v", g1.Axes)
	}
	if _, err := QAOAGridP(0, 8, 9); err == nil {
		t.Fatal("want error for p < 1")
	}
}

func TestPublicProblemConstructors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if _, err := SKProblem(6, rng); err != nil {
		t.Fatal(err)
	}
	if _, err := MeshMaxCut(2, 3); err != nil {
		t.Fatal(err)
	}
	if H2().N() != 2 || LiH().N() != 4 {
		t.Fatal("molecule sizes wrong")
	}
	a, err := TwoLocalAnsatz(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumParams != 8 {
		t.Fatalf("two-local params %d", a.NumParams)
	}
	if _, err := UCCSDH2Ansatz(); err != nil {
		t.Fatal(err)
	}
	if _, err := UCCSDLiHAnsatz(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicEvaluators(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prob, err := Random3RegularMaxCut(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := QAOAAnsatz(prob, 1)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewStateVector(prob, a)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := NewDensity(prob, a, IdealNoise())
	if err != nil {
		t.Fatal(err)
	}
	v1, err := sv.Evaluate([]float64{0.2, -0.4})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := dm.Evaluate([]float64{0.2, -0.4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v1-v2) > 1e-8 {
		t.Fatalf("sv %g vs dm %g", v1, v2)
	}
	ws, err := WithShots(sv, 4096, 1.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := ws.Evaluate([]float64{0.2, -0.4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v3-v1) > 0.2 {
		t.Fatalf("shot noise too large: %g vs %g", v3, v1)
	}
}

func TestFitNCMPublic(t *testing.T) {
	m, err := FitNCM([]float64{0, 1, 2}, []float64{1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Slope-2) > 1e-12 || math.Abs(m.Intercept-1) > 1e-12 {
		t.Fatalf("fit %+v", m)
	}
}

func TestClampAngle(t *testing.T) {
	cases := map[float64]float64{
		0:               0,
		3 * math.Pi:     math.Pi,
		-3 * math.Pi:    -math.Pi,
		math.Pi / 2:     math.Pi / 2,
		2*math.Pi + 0.1: 0.1,
	}
	for in, want := range cases {
		if got := ClampAngle(in); math.Abs(got-want) > 1e-12 {
			t.Errorf("ClampAngle(%g)=%g want %g", in, got, want)
		}
	}
}

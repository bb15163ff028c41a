package backend

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/ansatz"
	"repro/internal/noise"
	"repro/internal/problem"
	"repro/internal/qsim"
)

func TestStateVectorEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	p, err := problem.Random3RegularMaxCut(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ansatz.QAOA(p.Graph, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewStateVector(p, a)
	if err != nil {
		t.Fatal(err)
	}
	if ev.NumParams() != 2 {
		t.Fatalf("NumParams=%d", ev.NumParams())
	}
	v, err := ev.Evaluate([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-(-float64(len(p.Graph.Edges))/2)) > 1e-9 {
		t.Fatalf("cost at origin %g", v)
	}
}

func TestStateVectorDimensionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	p, _ := problem.Random3RegularMaxCut(6, rng)
	a, _ := ansatz.TwoLocal(4, 1)
	if _, err := NewStateVector(p, a); err == nil {
		t.Fatal("want error for qubit mismatch")
	}
}

func TestDensityMatchesStateVectorWhenIdeal(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	p, _ := problem.Random3RegularMaxCut(4, rng)
	a, _ := ansatz.QAOA(p.Graph, 1)
	sv, _ := NewStateVector(p, a)
	dm, err := NewDensity(p, a, noise.Ideal())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		params := []float64{rng.NormFloat64() / 2, rng.NormFloat64() / 2}
		v1, err := sv.Evaluate(params)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := dm.Evaluate(params)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v1-v2) > 1e-8 {
			t.Fatalf("ideal dm %g vs sv %g", v2, v1)
		}
	}
}

func TestDensityNoiseShrinksCostMagnitude(t *testing.T) {
	rng := rand.New(rand.NewSource(114))
	p, _ := problem.Random3RegularMaxCut(4, rng)
	a, _ := ansatz.QAOA(p.Graph, 1)
	sv, _ := NewStateVector(p, a)
	dm, _ := NewDensity(p, a, noise.Fig9())
	params := []float64{0.3, -0.6}
	ideal, _ := sv.Evaluate(params)
	noisy, _ := dm.Evaluate(params)
	// H = sum w/2 (ZZ - 1): the -1 offset is noise-invariant, so the
	// noisy cost sits between the ideal cost and the offset.
	offset := -float64(len(p.Graph.Edges)) / 2
	lo, hi := math.Min(ideal, offset), math.Max(ideal, offset)
	if noisy < lo-1e-9 || noisy > hi+1e-9 {
		t.Fatalf("noisy %g outside [%g, %g]", noisy, lo, hi)
	}
	if math.Abs(noisy-ideal) < 1e-6 {
		t.Fatal("noise had no effect")
	}
}

func TestDensityReadoutError(t *testing.T) {
	rng := rand.New(rand.NewSource(115))
	p, _ := problem.Random3RegularMaxCut(4, rng)
	a, _ := ansatz.QAOA(p.Graph, 1)
	clean, _ := NewDensity(p, a, noise.Profile{Name: "depol-only", P1: 0.001, P2: 0.005})
	dirty, _ := NewDensity(p, a, noise.Profile{Name: "with-readout", P1: 0.001, P2: 0.005, Readout01: 0.05, Readout10: 0.05})
	params := []float64{0.3, -0.6}
	v1, err := clean.Evaluate(params)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := dirty.Evaluate(params)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v1-v2) < 1e-9 {
		t.Fatal("readout error had no effect")
	}
}

func TestDensityRejectsLargeProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(116))
	p, _ := problem.Random3RegularMaxCut(16, rng)
	a, _ := ansatz.QAOA(p.Graph, 1)
	if _, err := NewDensity(p, a, noise.Ideal()); err == nil {
		t.Fatal("want error for 16-qubit density evaluator")
	}
}

func TestAnalyticMatchesStateVectorEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(117))
	p, _ := problem.Random3RegularMaxCut(8, rng)
	a, _ := ansatz.QAOA(p.Graph, 1)
	sv, _ := NewStateVector(p, a)
	an, err := NewAnalyticQAOA(p, noise.Ideal())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		params := []float64{rng.NormFloat64() / 3, rng.NormFloat64() / 2}
		v1, _ := sv.Evaluate(params)
		v2, err := an.Evaluate(params)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v1-v2) > 1e-9 {
			t.Fatalf("analytic %g vs sv %g", v2, v1)
		}
	}
	if _, err := an.Evaluate([]float64{1}); err == nil {
		t.Fatal("want error for missing gamma")
	}
	if _, err := NewAnalyticQAOA(problem.H2(), noise.Ideal()); err == nil {
		t.Fatal("want error for graphless problem")
	}
}

// TestAnalyticDampingApproximatesDensity checks that the analytic damping
// model tracks the exact density-matrix noisy expectation to first order:
// same sign of deviation and magnitude within a factor of two.
func TestAnalyticDampingApproximatesDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(118))
	p, _ := problem.Random3RegularMaxCut(4, rng)
	a, _ := ansatz.QAOA(p.Graph, 1)
	prof := noise.Profile{Name: "weak", P1: 0.001, P2: 0.005}
	dm, _ := NewDensity(p, a, prof)
	an, _ := NewAnalyticQAOA(p, prof)
	sv, _ := NewStateVector(p, a)
	params := []float64{0.35, -0.55}
	exact, _ := dm.Evaluate(params)
	approx, _ := an.Evaluate(params)
	ideal, _ := sv.Evaluate(params)
	devExact := exact - ideal
	devApprox := approx - ideal
	if devExact == 0 {
		t.Skip("degenerate point")
	}
	ratio := devApprox / devExact
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("damping model deviation ratio %g (exact dev %g, model dev %g)", ratio, devExact, devApprox)
	}
}

func TestWithShots(t *testing.T) {
	inner := &Func{Label: "const", Params: 2, F: func(p []float64) (float64, error) { return 1.5, nil }}
	ws, err := NewWithShots(inner, 1024, 2.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ws.NumParams() != 2 {
		t.Fatalf("NumParams=%d", ws.NumParams())
	}
	var sum, sumSq float64
	n := 4000
	for i := 0; i < n; i++ {
		v, err := ws.Evaluate([]float64{0, 0})
		if err != nil {
			t.Fatal(err)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	stdev := math.Sqrt(sumSq/float64(n) - mean*mean)
	wantStd := 2.0 / math.Sqrt(1024)
	if math.Abs(mean-1.5) > 0.01 {
		t.Fatalf("mean %g want 1.5", mean)
	}
	if math.Abs(stdev-wantStd) > 0.01 {
		t.Fatalf("stdev %g want %g", stdev, wantStd)
	}
	if _, err := NewWithShots(inner, 0, 1, 1); err == nil {
		t.Error("want error for zero shots")
	}
	if _, err := NewWithShots(inner, 10, -1, 1); err == nil {
		t.Error("want error for negative spread")
	}
}

func TestWithShotsConcurrent(t *testing.T) {
	inner := &Func{Label: "c", Params: 1, F: func(p []float64) (float64, error) { return 0, nil }}
	ws, _ := NewWithShots(inner, 100, 1, 3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := ws.Evaluate([]float64{0}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestShotSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(119))
	p, _ := problem.Random3RegularMaxCut(6, rng)
	s := ShotSpread(p.Hamiltonian)
	// 9 edges with coefficient 1/2 each: sqrt(9*0.25) = 1.5.
	if math.Abs(s-1.5) > 1e-12 {
		t.Fatalf("spread %g want 1.5", s)
	}
}

func TestCounting(t *testing.T) {
	inner := &Func{Label: "c", Params: 1, F: func(p []float64) (float64, error) { return p[0], nil }}
	ce := NewCounting(inner)
	if ce.Count() != 0 {
		t.Fatal("fresh counter nonzero")
	}
	for i := 0; i < 5; i++ {
		if _, err := ce.Evaluate([]float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if ce.Count() != 5 {
		t.Fatalf("count %d", ce.Count())
	}
	ce.Reset()
	if ce.Count() != 0 {
		t.Fatal("reset failed")
	}
	if ce.Name() != "c" || ce.NumParams() != 1 {
		t.Fatal("wrapper metadata wrong")
	}
}

// TestDiagonalFusionMatchesUnfused: the fused circuit a StateVector runs
// agrees with the original edge-by-edge circuit, run through qsim and
// measured term by term, to phase rounding (~1e-15 per gate), not bit for
// bit.
func TestDiagonalFusionMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	p, err := problem.Random3RegularMaxCut(8, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ansatz.QAOA(p.Graph, 2)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := NewStateVector(p, a)
	if err != nil {
		t.Fatal(err)
	}
	if fused.circ == a.Circuit {
		t.Fatal("StateVector should run the fused circuit")
	}
	plain := qsim.NewState(a.Circuit.N())
	for trial := 0; trial < 20; trial++ {
		params := make([]float64, 4)
		for i := range params {
			params[i] = (rng.Float64() - 0.5) * math.Pi
		}
		vf, err := fused.Evaluate(params)
		if err != nil {
			t.Fatal(err)
		}
		if err := qsim.RunInto(plain, a.Circuit, params); err != nil {
			t.Fatal(err)
		}
		vp, err := plain.Expectation(p.Hamiltonian)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(vf-vp) > 1e-11 {
			t.Fatalf("trial %d: fused %g vs unfused %g", trial, vf, vp)
		}
	}
}

func TestDensityFusionGating(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	p, err := problem.Random3RegularMaxCut(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ansatz.QAOA(p.Graph, 1)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := NewDensity(p, a, noise.Ideal())
	if err != nil {
		t.Fatal(err)
	}
	if ideal.circ == a.Circuit {
		t.Fatal("ideal Density should fuse")
	}
	// Readout-only noise attaches at measurement, so fusion still applies.
	ro := noise.Profile{Name: "ro", Readout01: 0.02, Readout10: 0.03}
	roEv, err := NewDensity(p, a, ro)
	if err != nil {
		t.Fatal(err)
	}
	if roEv.circ == a.Circuit {
		t.Fatal("readout-only Density should fuse")
	}
	// Gate noise is defined per physical gate: fusion must stay off so the
	// depolarizing channels see the original gate structure.
	gateNoise := noise.Profile{Name: "dep", P1: 0.003, P2: 0.007}
	noisy, err := NewDensity(p, a, gateNoise)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.circ != a.Circuit {
		t.Fatal("gate-noise Density must not fuse")
	}
	// Ideal fused density agrees with the (fused) statevector evaluator.
	sv, err := NewStateVector(p, a)
	if err != nil {
		t.Fatal(err)
	}
	params := []float64{0.4, -0.7}
	vd, err := ideal.Evaluate(params)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := sv.Evaluate(params)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vd-vs) > 1e-9 {
		t.Fatalf("ideal fused density %g vs statevector %g", vd, vs)
	}
}

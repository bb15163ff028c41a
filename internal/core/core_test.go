package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/backend"
	"repro/internal/cs"
	"repro/internal/landscape"
	"repro/internal/noise"
	"repro/internal/problem"
)

func qaoaGrid(t *testing.T, nb, ng int) *landscape.Grid {
	t.Helper()
	g, err := landscape.NewGrid(
		landscape.Axis{Name: "beta", Min: -math.Pi / 4, Max: math.Pi / 4, N: nb},
		landscape.Axis{Name: "gamma", Min: -math.Pi / 2, Max: math.Pi / 2, N: ng},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func qaoaEval(t *testing.T, n int, seed int64, prof noise.Profile) landscape.EvalFunc {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p, err := problem.Random3RegularMaxCut(n, rng)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := backend.NewAnalyticQAOA(p, prof)
	if err != nil {
		t.Fatal(err)
	}
	return ev.Evaluate
}

func TestReconstructQAOALandscape(t *testing.T) {
	grid := qaoaGrid(t, 30, 60)
	eval := qaoaEval(t, 16, 121, noise.Ideal())
	truth, err := landscape.Generate(grid, eval, 0)
	if err != nil {
		t.Fatal(err)
	}
	recon, stats, err := Reconstruct(grid, eval, Options{SamplingFraction: 0.08, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples != int(0.08*30*60) {
		t.Fatalf("samples %d", stats.Samples)
	}
	if stats.Speedup < 12 {
		t.Fatalf("speedup %g", stats.Speedup)
	}
	nrmse, err := landscape.NRMSE(truth.Data, recon.Data)
	if err != nil {
		t.Fatal(err)
	}
	if nrmse > 0.05 {
		t.Fatalf("NRMSE %g too high for 8%% sampling of an ideal p=1 landscape", nrmse)
	}
}

func TestReconstructNoisyLandscapePreservesNoiseShape(t *testing.T) {
	grid := qaoaGrid(t, 24, 48)
	eval := qaoaEval(t, 12, 122, noise.Fig4())
	truth, err := landscape.Generate(grid, eval, 0)
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := Reconstruct(grid, eval, Options{SamplingFraction: 0.1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	nrmse, _ := landscape.NRMSE(truth.Data, recon.Data)
	if nrmse > 0.08 {
		t.Fatalf("NRMSE %g", nrmse)
	}
	// The noisy landscape's variance (damped) should be preserved, not
	// inflated back to the ideal value.
	vTruth := landscape.Variance(truth)
	vRecon := landscape.Variance(recon)
	if math.Abs(vTruth-vRecon) > 0.15*vTruth {
		t.Fatalf("variance not preserved: truth %g recon %g", vTruth, vRecon)
	}
}

func TestReconstructValidation(t *testing.T) {
	grid := qaoaGrid(t, 10, 10)
	eval := func(p []float64) (float64, error) { return 0, nil }
	if _, _, err := Reconstruct(grid, eval, Options{SamplingFraction: 0}); err == nil {
		t.Error("want error for zero fraction")
	}
	if _, _, err := Reconstruct(grid, eval, Options{SamplingFraction: 1.2}); err == nil {
		t.Error("want error for >1 fraction")
	}
	if _, _, err := ReconstructFromSamples(grid, nil, nil, Options{}); err == nil {
		t.Error("want error for no samples")
	}
}

// TestReconstructWorkersBitIdentical: the Workers option shards the solver
// without changing a single bit of the reconstruction.
func TestReconstructWorkersBitIdentical(t *testing.T) {
	grid := qaoaGrid(t, 64, 160) // above the solver's 10000-point serial floor
	eval := qaoaEval(t, 12, 33, noise.Ideal())
	serial := Options{SamplingFraction: 0.06, Seed: 9, Workers: 1}
	serial.Solver = cs.DefaultOptions()
	serial.Solver.MaxIter = 50
	serial.Solver.Workers = 1
	want, _, err := Reconstruct(grid, eval, serial)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		opt := serial
		opt.Workers = workers
		opt.Solver.Workers = 0 // inherit opt.Workers
		got, _, err := Reconstruct(grid, eval, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("workers=%d: Data[%d]=%v, serial %v", workers, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestSolverOptionsWorkersOnly: picking just a solver worker count must not
// defeat the zero-value-means-DefaultOptions sentinel (continuation and
// debias stay on), and an unset solver inherits the execution workers.
func TestSolverOptionsWorkersOnly(t *testing.T) {
	o := Options{SamplingFraction: 0.05, Workers: 4, Solver: cs.Options{Workers: 1}}
	want := cs.DefaultOptions()
	want.Workers = 1
	got := o.solverOptions()
	if got.Workers != want.Workers || !got.Continuation || !got.Debias ||
		got.MaxIter != want.MaxIter || got.LambdaRel != want.LambdaRel ||
		got.Tol != want.Tol || got.Method != want.Method || got.Warm != nil {
		t.Fatalf("Workers-only Solver resolved to %+v, want DefaultOptions with Workers=1", got)
	}
	inherit := Options{SamplingFraction: 0.05, Workers: 3}
	got = inherit.solverOptions()
	if got.Workers != 3 {
		t.Fatalf("solver Workers = %d, want inherited 3", got.Workers)
	}
	if !got.Continuation || !got.Debias {
		t.Fatal("unset Solver lost the DefaultOptions configuration")
	}
}

// TestReconstructFromSamplesContextCanceled: cancellation reaches the solver
// phase, not just circuit execution.
func TestReconstructFromSamplesContextCanceled(t *testing.T) {
	grid := qaoaGrid(t, 20, 20)
	eval := qaoaEval(t, 12, 34, noise.Ideal())
	idx, err := SampleGrid(grid, 0.2, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, len(idx))
	for j, i := range idx {
		v, err := eval(grid.Point(i))
		if err != nil {
			t.Fatal(err)
		}
		values[j] = v
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = ReconstructFromSamplesContext(ctx, grid, idx, values, Options{SamplingFraction: 0.2, Seed: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestReconstructDeterministicGivenSeed(t *testing.T) {
	grid := qaoaGrid(t, 20, 20)
	eval := qaoaEval(t, 8, 123, noise.Ideal())
	r1, s1, err := Reconstruct(grid, eval, Options{SamplingFraction: 0.2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	r2, s2, err := Reconstruct(grid, eval, Options{SamplingFraction: 0.2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if s1.Samples != s2.Samples {
		t.Fatal("sample counts differ")
	}
	for i := range r1.Data {
		if r1.Data[i] != r2.Data[i] {
			t.Fatalf("nondeterministic at %d: %g vs %g", i, r1.Data[i], r2.Data[i])
		}
	}
}

func TestReconstruct4DGrid(t *testing.T) {
	// Depth-2 style 4-axis grid, reconstructed through the concatenation
	// reshape. Use a smooth synthetic separable cost.
	g4, err := landscape.NewGrid(
		landscape.Axis{Name: "b1", Min: -1, Max: 1, N: 8},
		landscape.Axis{Name: "b2", Min: -1, Max: 1, N: 8},
		landscape.Axis{Name: "g1", Min: -1, Max: 1, N: 9},
		landscape.Axis{Name: "g2", Min: -1, Max: 1, N: 9},
	)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(p []float64) (float64, error) {
		return math.Cos(p[0])*math.Cos(p[2]) + 0.5*math.Sin(p[1])*math.Sin(p[3]), nil
	}
	truth, err := landscape.Generate(g4, eval, 0)
	if err != nil {
		t.Fatal(err)
	}
	recon, stats, err := Reconstruct(g4, eval, Options{SamplingFraction: 0.25, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if stats.GridSize != 8*8*9*9 {
		t.Fatalf("grid size %d", stats.GridSize)
	}
	nrmse, _ := landscape.NRMSE(truth.Data, recon.Data)
	// The paper observes reduced accuracy for reshaped 4-D landscapes;
	// accept a looser bound but demand real signal recovery.
	if nrmse > 0.3 {
		t.Fatalf("4-D NRMSE %g", nrmse)
	}
}

func TestStratifiedSampling(t *testing.T) {
	grid := qaoaGrid(t, 20, 20)
	eval := qaoaEval(t, 8, 124, noise.Ideal())
	_, stats, err := Reconstruct(grid, eval, Options{SamplingFraction: 0.15, Seed: 3, Stratified: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Samples == 0 || stats.Samples > 60 {
		t.Fatalf("stratified samples %d", stats.Samples)
	}
}

func TestSampleGrid(t *testing.T) {
	grid := qaoaGrid(t, 10, 10)
	idx, err := SampleGrid(grid, 0.3, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 30 {
		t.Fatalf("%d indices", len(idx))
	}
	if _, err := SampleGrid(grid, 0, 7, false); err == nil {
		t.Error("want error for zero fraction")
	}
}

// TestErrorDecreasesWithSampling reproduces the qualitative Figure 4 trend
// at test scale.
func TestErrorDecreasesWithSampling(t *testing.T) {
	grid := qaoaGrid(t, 25, 50)
	eval := qaoaEval(t, 16, 125, noise.Fig4())
	truth, err := landscape.Generate(grid, eval, 0)
	if err != nil {
		t.Fatal(err)
	}
	var errs []float64
	for _, frac := range []float64{0.03, 0.06, 0.09} {
		recon, _, err := Reconstruct(grid, eval, Options{SamplingFraction: frac, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		e, _ := landscape.NRMSE(truth.Data, recon.Data)
		errs = append(errs, e)
	}
	if !(errs[2] < errs[0]) {
		t.Fatalf("error not decreasing: %v", errs)
	}
}

func TestReconstruct6DGrid(t *testing.T) {
	// Depth-3-style 6-axis grid through the generalized concatenation.
	axes := make([]landscape.Axis, 6)
	for i := range axes {
		axes[i] = landscape.Axis{Name: string(rune('a' + i)), Min: -1, Max: 1, N: 4}
	}
	g6, err := landscape.NewGrid(axes...)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(p []float64) (float64, error) {
		return math.Cos(p[0]+p[3]) + 0.5*math.Sin(p[1]-p[4]) + 0.25*math.Cos(p[2]*p[5]), nil
	}
	truth, err := landscape.Generate(g6, eval, 0)
	if err != nil {
		t.Fatal(err)
	}
	recon, stats, err := Reconstruct(g6, eval, Options{SamplingFraction: 0.35, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if stats.GridSize != 4096 {
		t.Fatalf("grid size %d", stats.GridSize)
	}
	nrmse, _ := landscape.NRMSE(truth.Data, recon.Data)
	if nrmse > 0.4 {
		t.Fatalf("6-D NRMSE %g", nrmse)
	}
}

// TestReconstructOddAxes: the ND redesign lifted the historical even-axes
// restriction — a 3-axis grid reconstructs through a true 3-D DCT solve.
func TestReconstructOddAxes(t *testing.T) {
	g3, err := landscape.NewGrid(
		landscape.Axis{Name: "a", Min: 0, Max: 1, N: 6},
		landscape.Axis{Name: "b", Min: 0, Max: 1, N: 6},
		landscape.Axis{Name: "c", Min: 0, Max: 1, N: 6},
	)
	if err != nil {
		t.Fatal(err)
	}
	eval := func(p []float64) (float64, error) {
		return math.Cos(2*math.Pi*p[0]) + math.Cos(2*math.Pi*p[1])*math.Cos(2*math.Pi*p[2]), nil
	}
	l, st, err := Reconstruct(g3, eval, Options{SamplingFraction: 0.6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Grid.Size(); got != 216 || len(l.Data) != 216 {
		t.Fatalf("3-axis landscape size %d, data %d", got, len(l.Data))
	}
	if st.Samples == 0 {
		t.Fatal("no samples recorded")
	}
}

// TestFullSamplingIsNearExact: measuring every grid point must reproduce the
// landscape almost exactly (the l1 problem becomes fully determined).
func TestFullSamplingIsNearExact(t *testing.T) {
	grid := qaoaGrid(t, 16, 24)
	eval := qaoaEval(t, 10, 321, noise.Ideal())
	truth, err := landscape.Generate(grid, eval, 0)
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := Reconstruct(grid, eval, Options{SamplingFraction: 1.0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	nr, _ := landscape.NRMSE(truth.Data, recon.Data)
	// The l1 penalty leaves a small shrinkage bias even at full sampling;
	// the debias pass removes most but not all of it.
	if nr > 0.02 {
		t.Fatalf("full sampling NRMSE %g", nr)
	}
}

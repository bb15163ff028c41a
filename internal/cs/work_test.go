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
// TestReconstruct1DGolden (1-D).
func goldenCase(t *testing.T, twoD bool) (dims, idx []int, y []float64, iters int) {
	t.Helper()
	seed, rows, cols, modes, samples, iters := int64(19), 1, 5000, 6, 500, golden1DIters
	if twoD {
		seed, rows, cols, modes, samples, iters = 17, 50, 100, 8, 1000, golden2DIters
	}
	rng := rand.New(rand.NewSource(seed))
	x, _ := sparseLandscape(rng, rows, cols, modes)
	idx, err := SampleIndices(rng, rows*cols, samples)
	if err != nil {
		t.Fatal(err)
	}
	y = make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	dims = []int{rows, cols}
	if !twoD {
		dims = []int{cols}
	}
	return dims, idx, y, iters
}

// TestResultReportsWork: on the golden FISTA solves with debias, the
// reported transform count must follow the solver's structure — one adjoint
// for the penalty scale, two per iteration, two per debias step, two to
// finish — and the cs.solve span must carry both counts.
func TestResultReportsWork(t *testing.T) {
	for _, twoD := range []bool{true, false} {
		dims, idx, y, iters := goldenCase(t, twoD)
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
		solve := findNode(tr.Snapshot().Spans, "cs.solve")
		if solve == nil {
			t.Fatalf("%v: no cs.solve span", dims)
		}
		for key, want := range map[string]int{"transforms": res.Transforms, "debias_steps": res.DebiasSteps} {
			if got := fmt.Sprint(solve.Attrs[key]); got != fmt.Sprint(want) {
				t.Errorf("%v: span attr %s = %s, want %d", dims, key, got, want)
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

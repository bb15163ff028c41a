package cs

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ansatz"
	"repro/internal/backend"
	"repro/internal/landscape"
	"repro/internal/problem"
)

// BenchmarkPartialDCT times one forward+adjoint pair of the measurement
// operator, the unit a FISTA iteration runs, on the full-grid path and on
// the pruned one, at the -cpu worker count: sv-cold's 50x100 grid with 500
// stratified samples and a 24-sparse iterate; fleet-p2's 8^4 grid with 819
// samples and a ~13%-dense iterate spread uniformly over the grid; and the
// same grid with fleet-p2's real samples (qaoaP2Samples) and the Coeffs of
// their solve as the iterate. That iterate has 151 nonzeros, and 406 of the
// 512 lines entering the inverse's first pass are all zero, which the 8-point
// kernels skip; on the uniform iterate about a third are.
func BenchmarkPartialDCT(b *testing.B) {
	uniform := func(m, nnz int, sampler func(*rand.Rand, []int, int) ([]int, error)) func(*rand.Rand, []int) ([]int, []float64) {
		return func(rng *rand.Rand, dims []int) ([]int, []float64) {
			idx, err := sampler(rng, dims, m)
			if err != nil {
				b.Fatal(err)
			}
			n := 1
			for _, d := range dims {
				n *= d
			}
			s := make([]float64, n)
			for _, i := range rng.Perm(n)[:nnz] {
				s[i] = rng.NormFloat64()
			}
			return idx, s
		}
	}
	cases := []struct {
		name string
		dims []int
		// iterate returns the samples and the iterate the operator runs on.
		iterate func(*rand.Rand, []int) ([]int, []float64)
	}{
		{"50x100", []int{50, 100}, uniform(500, 24, func(rng *rand.Rand, dims []int, m int) ([]int, error) {
			return StratifiedIndices(rng, dims[0]*dims[1], m)
		})},
		{"8x8x8x8", []int{8, 8, 8, 8}, uniform(819, 532, StratifiedIndicesND)},
		{"8x8x8x8-solve", []int{8, 8, 8, 8}, func(*rand.Rand, []int) ([]int, []float64) {
			dims, idx, y := qaoaP2Samples(b)
			res, err := ReconstructND(dims, idx, y, Options{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			return idx, res.Coeffs
		}},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(1))
		idx, s := c.iterate(rng, c.dims)
		r := make([]float64, len(idx))
		for j := range r {
			r[j] = rng.NormFloat64()
		}
		as, atr := make([]float64, len(idx)), make([]float64, len(s))
		for _, path := range []struct {
			name   string
			pruned bool
		}{{"full", false}, {"pruned", true}} {
			op := newPartialDCT(c.dims, idx, 0, path.pruned)
			b.Run(fmt.Sprintf("%s/%s", c.name, path.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					op.forward(as, s)
					op.adjoint(atr, r)
				}
			})
		}
	}
}

// BenchmarkSolve times whole solves and reports the work they run:
// transforms/op (operator applications, Result.Transforms) and restarts/op.
// golden2d is TestReconstruct2DGolden's cold 50x100 solve at one worker, and
// golden2d-default-workers the same solve at the default worker count
// (Workers: 0, GOMAXPROCS, so a -cpu sweep sets it; the plan's small-grid
// rule may still run it serially). warm-chain-8^4 is fleet-p2's solve chain
// at one worker: an n=10 p=2 MaxCut QAOA landscape on the 8^4 grid, 819
// stratified samples listed in shuffled order (standing in for batch
// completion order), solved at 50, 75 and 100% of them, each solve
// warm-started from the one before.
func BenchmarkSolve(b *testing.B) {
	for _, c := range []struct {
		name    string
		workers int
	}{{"golden2d", 1}, {"golden2d-default-workers", 0}} {
		b.Run(c.name, func(b *testing.B) {
			dims, idx, y, _, _ := goldenCase(b, true)
			benchChain(b, dims, idx, y, []float64{1}, c.workers)
		})
	}
	b.Run("warm-chain-8^4", func(b *testing.B) {
		dims, idx, y := qaoaP2Samples(b)
		benchChain(b, dims, idx, y, []float64{0.5, 0.75, 1}, 1)
	})
}

// benchChain solves on the leading fraction of the samples for each of
// fracs in turn at the given worker count, each solve warm-started from the
// one before, and reports the chain's transforms and restarts.
func benchChain(b *testing.B, dims, idx []int, y, fracs []float64, workers int) {
	var transforms, restarts int
	for i := 0; i < b.N; i++ {
		transforms, restarts = 0, 0
		var warm []float64
		for _, frac := range fracs {
			m := int(frac * float64(len(idx)))
			res, err := ReconstructND(dims, idx[:m], y[:m], Options{Workers: workers, Warm: warm})
			if err != nil {
				b.Fatal(err)
			}
			warm = res.Coeffs
			transforms += res.Transforms
			restarts += res.Restarts
		}
	}
	b.ReportMetric(float64(transforms), "transforms/op")
	b.ReportMetric(float64(restarts), "restarts/op")
}

// qaoaP2Samples evaluates fleet-p2's job shape — an n=10 3-regular MaxCut
// QAOA at p=2 on 8 points per axis (beta1, beta2, gamma1, gamma2) — at 819
// stratified grid points, returned in shuffled order.
func qaoaP2Samples(b testing.TB) (dims, idx []int, y []float64) {
	rng := rand.New(rand.NewSource(1))
	p, err := problem.Random3RegularMaxCut(10, rng)
	if err != nil {
		b.Fatal(err)
	}
	a, err := ansatz.QAOA(p.Graph, 2)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := backend.NewStateVector(p, a)
	if err != nil {
		b.Fatal(err)
	}
	bMin, bMax, gMin, gMax := ansatz.QAOAGridAxes(2)
	g, err := landscape.NewGrid(
		landscape.Axis{Name: "beta1", Min: bMin, Max: bMax, N: 8},
		landscape.Axis{Name: "beta2", Min: bMin, Max: bMax, N: 8},
		landscape.Axis{Name: "gamma1", Min: gMin, Max: gMax, N: 8},
		landscape.Axis{Name: "gamma2", Min: gMin, Max: gMax, N: 8})
	if err != nil {
		b.Fatal(err)
	}
	idx, err = StratifiedIndicesND(rng, g.Dims(), 819)
	if err != nil {
		b.Fatal(err)
	}
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	y, err = ev.EvaluateBatch(context.Background(), g.Points(idx))
	if err != nil {
		b.Fatal(err)
	}
	return g.Dims(), idx, y
}

package backend

// sv_batch_test.go covers the zero-allocation simulator batch paths: the
// sharded StateVector/Density EvaluateBatch must reproduce point-at-a-time
// Evaluate bit-for-bit for every worker count, Evaluate must agree with the
// seed path (fresh state + per-term expectation), and the pooled scratch
// must not allocate per point in steady state.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ansatz"
	"repro/internal/noise"
	"repro/internal/problem"
	"repro/internal/qsim"
)

func svFixture(t *testing.T, n int) (*problem.Problem, *ansatz.Ansatz, *StateVector) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(1000 + n)))
	p, err := problem.Random3RegularMaxCut(n, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ansatz.QAOA(p.Graph, 2)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewStateVector(p, a)
	if err != nil {
		t.Fatal(err)
	}
	return p, a, sv
}

func randParams(rng *rand.Rand, m, k int) [][]float64 {
	pts := make([][]float64, m)
	for i := range pts {
		p := make([]float64, k)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

// TestStateVectorBatchMatchesEvaluate requires EvaluateBatch to equal
// pointwise Evaluate exactly, for every worker setting (including the
// small-batch branch that shards gate kernels instead of points).
func TestStateVectorBatchMatchesEvaluate(t *testing.T) {
	_, a, sv := svFixture(t, 8)
	rng := rand.New(rand.NewSource(5))
	pts := randParams(rng, 37, a.NumParams)
	want := make([]float64, len(pts))
	for i, p := range pts {
		v, err := sv.Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	for _, workers := range []int{1, 2, 3, 0} {
		got, err := sv.SetWorkers(workers).EvaluateBatch(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: batch[%d] = %v, evaluate %v", workers, i, got[i], want[i])
			}
		}
	}
	// Small batch under a large budget: 8-qubit states are below the
	// kernel-sharding threshold, so the budget clamps to the point level.
	small, err := sv.SetWorkers(8).EvaluateBatch(context.Background(), pts[:2])
	if err != nil {
		t.Fatal(err)
	}
	for i := range small {
		if small[i] != want[i] {
			t.Fatalf("small-batch branch: batch[%d] = %v, evaluate %v", i, small[i], want[i])
		}
	}
}

// TestStateVectorKernelShardBranch covers the amplitude-sharding branch: a
// 15-qubit state (above the kernel threshold) evaluated as a batch smaller
// than the worker budget must hand the budget to the gate kernels and still
// match serial evaluation exactly.
func TestStateVectorKernelShardBranch(t *testing.T) {
	if !qsim.KernelShardable(16) {
		t.Fatal("16 qubits should be kernel-shardable")
	}
	_, a, sv := svFixture(t, 16)
	rng := rand.New(rand.NewSource(12))
	pts := randParams(rng, 2, a.NumParams)
	want := make([]float64, len(pts))
	for i, p := range pts {
		v, err := sv.Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	got, err := sv.SetWorkers(8).EvaluateBatch(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kernel-shard branch: batch[%d] = %v, evaluate %v", i, got[i], want[i])
		}
	}
}

// TestStateVectorMatchesSeedPath compares the pooled, table-driven Evaluate
// against the seed path: a fresh qsim.Run plus per-term Expectation.
func TestStateVectorMatchesSeedPath(t *testing.T) {
	p, a, sv := svFixture(t, 8)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		params := randParams(rng, 1, a.NumParams)[0]
		got, err := sv.Evaluate(params)
		if err != nil {
			t.Fatal(err)
		}
		s, err := qsim.Run(a.Circuit, params)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Expectation(p.Hamiltonian)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-11*(1+math.Abs(want)) {
			t.Fatalf("trial %d: evaluate %v, seed path %v", trial, got, want)
		}
	}
}

// TestStateVectorOffDiagonalHamiltonian exercises the per-term fallback
// (H2 has XX terms, so there is no diagonal table).
func TestStateVectorOffDiagonalHamiltonian(t *testing.T) {
	h2 := problem.H2()
	a, err := ansatz.UCCSDH2()
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewStateVector(h2, a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	pts := randParams(rng, 9, a.NumParams)
	got, err := sv.SetWorkers(3).EvaluateBatch(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, params := range pts {
		s, err := qsim.Run(a.Circuit, params)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Expectation(h2.Hamiltonian)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("point %d: batch %v, seed %v", i, got[i], want)
		}
	}
}

// TestStateVectorBatchCancellation checks ctx stops a sharded batch.
func TestStateVectorBatchCancellation(t *testing.T) {
	_, a, sv := svFixture(t, 8)
	rng := rand.New(rand.NewSource(9))
	pts := randParams(rng, 64, a.NumParams)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sv.SetWorkers(4).EvaluateBatch(ctx, pts); err == nil {
		t.Fatal("want cancellation error")
	}
}

// TestStateVectorBatchSteadyStateAllocs verifies the pooled scratch: a warm
// EvaluateBatch allocates O(1) per batch (the result slice and shard
// bookkeeping), not O(points) — i.e. zero allocations per evaluated point.
func TestStateVectorBatchSteadyStateAllocs(t *testing.T) {
	_, a, sv := svFixture(t, 8)
	rng := rand.New(rand.NewSource(10))
	pts := randParams(rng, 100, a.NumParams)
	sv.SetWorkers(1)
	if _, err := sv.EvaluateBatch(context.Background(), pts); err != nil {
		t.Fatal(err) // warm the pool
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sv.EvaluateBatch(context.Background(), pts); err != nil {
			t.Fatal(err)
		}
	})
	// 100 points; the seed path allocated >= 1 state per point. Allow slack
	// for the result slice, closures, and occasional pool eviction by GC.
	if allocs > 20 {
		t.Fatalf("EvaluateBatch allocates %.1f objects per 100-point batch; scratch is not being reused", allocs)
	}
}

// TestDensityBatchMatchesEvaluate requires the noisy batch path to equal
// pointwise Evaluate exactly across worker counts, with readout error
// engaged so the cached-table distribution path is covered too.
func TestDensityBatchMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p, err := problem.Random3RegularMaxCut(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ansatz.QAOA(p.Graph, 1)
	if err != nil {
		t.Fatal(err)
	}
	prof := noise.Profile{Name: "test", P1: 0.002, P2: 0.01, Readout01: 0.01, Readout10: 0.02}
	dm, err := NewDensity(p, a, prof)
	if err != nil {
		t.Fatal(err)
	}
	pts := randParams(rng, 11, a.NumParams)
	want := make([]float64, len(pts))
	for i, params := range pts {
		v, err := dm.Evaluate(params)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	for _, workers := range []int{1, 3, 0} {
		got, err := dm.SetWorkers(workers).EvaluateBatch(context.Background(), pts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: batch[%d] = %v, evaluate %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestStateVectorBatchMatchesGateByGate runs the QAOA shapes of the
// repository benchmark — the sv-cold job (n=16, p=1, 50x100 grid axes) and
// the fleet-p2 job (n=10, p=2) — through EvaluateBatch and requires every
// cost to equal a gate-by-gate evaluation of the same fused circuit
// (ApplyGate per gate from |0...0>, then the diagonal expectation). RunInto
// prepares the state in one pass and pairs the mixer gates, so this pins
// both against the one-kernel-per-gate path end to end. Equality is exact:
// the amplitudes agree up to the sign of exact zeros, and the expectation
// sums in the same order. The 3-point batch on 8 workers takes the
// kernel-sharding branch at n=16.
func TestStateVectorBatchMatchesGateByGate(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n, depth int
		points   int
	}{
		{"sv-cold", 16, 1, 6},
		{"fleet-p2", 10, 2, 12},
	} {
		p, err := problem.Random3RegularMaxCut(tc.n, rand.New(rand.NewSource(int64(tc.n))))
		if err != nil {
			t.Fatal(err)
		}
		a, err := ansatz.QAOA(p.Graph, tc.depth)
		if err != nil {
			t.Fatal(err)
		}
		diag, err := p.DiagonalTable()
		if err != nil {
			t.Fatal(err)
		}
		betaMin, betaMax, gammaMin, gammaMax := ansatz.QAOAGridAxes(tc.depth)
		rng := rand.New(rand.NewSource(int64(77 + tc.n)))
		pts := make([][]float64, tc.points)
		for i := range pts {
			pts[i] = make([]float64, a.NumParams)
			for l := 0; l < tc.depth; l++ {
				pts[i][l] = betaMin + rng.Float64()*(betaMax-betaMin)
				pts[i][tc.depth+l] = gammaMin + rng.Float64()*(gammaMax-gammaMin)
			}
		}
		circ := a.Circuit.FuseDiagonals()
		want := make([]float64, len(pts))
		for i, params := range pts {
			s := qsim.NewState(tc.n)
			for _, g := range circ.Gates() {
				if err := s.ApplyGate(g, params); err != nil {
					t.Fatal(err)
				}
			}
			if want[i], err = s.ExpectationDiagonal(diag); err != nil {
				t.Fatal(err)
			}
		}
		sv, err := NewStateVector(p, a)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 8} {
			for lo := 0; lo < len(pts); lo += 3 {
				got, err := sv.SetWorkers(workers).EvaluateBatch(context.Background(), pts[lo:lo+3])
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range got {
					if v != want[lo+i] {
						t.Fatalf("%s workers=%d point %d: batch %v, gate-by-gate %v",
							tc.name, workers, lo+i, v, want[lo+i])
					}
				}
			}
		}
	}
}

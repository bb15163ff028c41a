package oscar

// bench_test.go regenerates every paper table and figure as a testing.B
// benchmark (the timing is the cost of the full experiment), plus five
// BenchmarkAblation* design ablations. Custom metrics (NRMSE, speedup) are
// attached via b.ReportMetric so `go test -bench` output records the
// reproduced numbers next to the runtimes.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/cs"
	"repro/internal/dct"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/landscape"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/pauli"
	"repro/internal/problem"
	"repro/internal/qpu"
	"repro/internal/qsim"
)

func benchConfig() experiments.Config {
	return experiments.Config{Seed: 2023, Quick: true}
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	gen := experiments.Registry()[id]
	if gen == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		if _, err := gen(benchConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// Paper tables.

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5") }
func BenchmarkTable6(b *testing.B) { runExperiment(b, "table6") }

// Paper figures.

func BenchmarkFig2(b *testing.B)  { runExperiment(b, "fig2") }
func BenchmarkFig4(b *testing.B)  { runExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)  { runExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { runExperiment(b, "fig6") }
func BenchmarkFig8(b *testing.B)  { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B) { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B) { runExperiment(b, "fig13") }

// Headline claims.

func BenchmarkSpeedup(b *testing.B) { runExperiment(b, "speedup") }
func BenchmarkEager(b *testing.B)   { runExperiment(b, "eager") }
func BenchmarkFleet(b *testing.B)   { runExperiment(b, "fleet") }

// BenchmarkAdversarial regenerates the chaos-hardened fleet table: four
// injected device-failure scenarios, each comparing fixed, adaptive, and
// risk-aware scheduling at equal reconstruction quality.
func BenchmarkAdversarial(b *testing.B) { runExperiment(b, "adversarial") }

// BenchmarkFleetAdaptive pits adaptive batch sizing against fixed batch
// sizes on a 3-device heterogeneous fleet (queue/exec ratios 120:1, 6:1,
// 0.8:1): each sub-benchmark runs the 500-job fleet schedule and reports the
// mean simulated makespan over 6 seeds as the "makespan_s" metric — the
// acceptance bar is adaptive at or below every fixed size. Wall-clock time
// here measures scheduling + evaluation overhead; the virtual makespan is
// the headline number.
func BenchmarkFleetAdaptive(b *testing.B) {
	rng := rand.New(rand.NewSource(91))
	p, err := problem.Random3RegularMaxCut(16, rng)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := backend.NewAnalyticQAOA(p, noise.Fig4())
	if err != nil {
		b.Fatal(err)
	}
	grid, err := QAOAGrid(1, 50, 100)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := core.SampleGrid(grid, 0.10, 7, false) // 500 jobs
	if err != nil {
		b.Fatal(err)
	}
	devices := []qpu.Device{
		{Name: "hiq", Eval: ev, Latency: qpu.LatencyModel{QueueMedian: 120, Sigma: 0.5, Exec: 1}},
		{Name: "mid", Eval: ev, Latency: qpu.LatencyModel{QueueMedian: 30, Sigma: 0.5, Exec: 5}},
		{Name: "slow", Eval: ev, Latency: qpu.LatencyModel{QueueMedian: 10, Sigma: 0.5, Exec: 12}},
	}
	seeds := []int64{1, 2, 3, 5, 8, 13}
	variants := []struct {
		name  string
		fixed int
	}{
		{"adaptive", 0}, {"fixed-8", 8}, {"fixed-32", 32}, {"fixed-64", 64}, {"fixed-128", 128},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				mean = 0
				for _, seed := range seeds {
					s, err := fleet.New(fleet.Options{Seed: seed, FixedBatch: v.fixed}, devices...)
					if err != nil {
						b.Fatal(err)
					}
					rep, err := s.Run(context.Background(), grid, idx)
					if err != nil {
						b.Fatal(err)
					}
					mean += rep.Makespan / float64(len(seeds))
				}
			}
			b.ReportMetric(mean, "makespan_s")
		})
	}
}

// BenchmarkFleetTracing pins the observability layer's cost on the fleet hot
// path: the same 500-job adaptive schedule as BenchmarkFleetAdaptive, once
// with a bare context (the nil-tracer fast path — must match the pre-tracing
// baseline) and once with a root span riding the context so every plan,
// batch, retry, and solve span is recorded.
func BenchmarkFleetTracing(b *testing.B) {
	rng := rand.New(rand.NewSource(91))
	p, err := problem.Random3RegularMaxCut(16, rng)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := backend.NewAnalyticQAOA(p, noise.Fig4())
	if err != nil {
		b.Fatal(err)
	}
	grid, err := QAOAGrid(1, 50, 100)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := core.SampleGrid(grid, 0.10, 7, false) // 500 jobs
	if err != nil {
		b.Fatal(err)
	}
	devices := []qpu.Device{
		{Name: "hiq", Eval: ev, Latency: qpu.LatencyModel{QueueMedian: 120, Sigma: 0.5, Exec: 1}},
		{Name: "mid", Eval: ev, Latency: qpu.LatencyModel{QueueMedian: 30, Sigma: 0.5, Exec: 5}},
		{Name: "slow", Eval: ev, Latency: qpu.LatencyModel{QueueMedian: 10, Sigma: 0.5, Exec: 12}},
	}
	run := func(b *testing.B, ctx context.Context) {
		b.Helper()
		s, err := fleet.New(fleet.Options{Seed: 1}, devices...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(ctx, grid, idx); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, context.Background())
		}
	})
	b.Run("enabled", func(b *testing.B) {
		var spans float64
		for i := 0; i < b.N; i++ {
			tr := obs.NewTracer("bench")
			root := tr.Start("job")
			run(b, obs.ContextWithSpan(context.Background(), root))
			root.End()
			spans = float64(tr.Len())
			if tr.Dropped() > 0 {
				b.Fatalf("%d spans dropped under the default cap", tr.Dropped())
			}
		}
		b.ReportMetric(spans, "spans")
	})
}

// benchLandscape builds a deterministic 16-qubit noisy QAOA landscape for
// the ablations.
func benchLandscape(b *testing.B, gridB, gridG int) (*landscape.Grid, *landscape.Landscape, landscape.EvalFunc) {
	b.Helper()
	rng := rand.New(rand.NewSource(77))
	p, err := problem.Random3RegularMaxCut(16, rng)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := backend.NewAnalyticQAOA(p, noise.Fig4())
	if err != nil {
		b.Fatal(err)
	}
	grid, err := landscape.NewGrid(
		landscape.Axis{Name: "beta", Min: -math.Pi / 4, Max: math.Pi / 4, N: gridB},
		landscape.Axis{Name: "gamma", Min: -math.Pi / 2, Max: math.Pi / 2, N: gridG},
	)
	if err != nil {
		b.Fatal(err)
	}
	truth, err := landscape.Generate(grid, ev.Evaluate, 0)
	if err != nil {
		b.Fatal(err)
	}
	return grid, truth, ev.Evaluate
}

// BenchmarkAblationSolver compares the three sparse-recovery algorithms
// (FISTA, ISTA, OMP) at a fixed 8% sampling fraction, reporting each
// solver's NRMSE alongside its runtime.
func BenchmarkAblationSolver(b *testing.B) {
	grid, truth, eval := benchLandscape(b, 30, 60)
	for _, m := range []cs.Method{cs.FISTA, cs.ISTA, cs.OMP} {
		m := m
		b.Run(m.String(), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				opt := core.Options{SamplingFraction: 0.08, Seed: 5}
				opt.Solver = cs.DefaultOptions()
				opt.Solver.Method = m
				if m == cs.ISTA {
					opt.Solver.MaxIter = 2000
				}
				if m == cs.OMP {
					opt.Solver.OMPSparsity = 40
				}
				recon, _, err := core.Reconstruct(grid, eval, opt)
				if err != nil {
					b.Fatal(err)
				}
				last, err = landscape.NRMSE(truth.Data, recon.Data)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(last, "nrmse")
		})
	}
}

// BenchmarkAblationDCT compares the O(N log N) FFT-based DCT against the
// direct O(N^2) reference.
func BenchmarkAblationDCT(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 1500)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.Run("fft", func(b *testing.B) {
		p := dct.NewPlan(len(x))
		out := make([]float64, len(x))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Forward(out, x)
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dct.ForwardDirect(x)
		}
	})
}

// BenchmarkAblationReshape compares the paper's (b1*b2)x(g1*g2)
// concatenation against the (b1*g1)x(b2*g2) axis pairing at the same sample
// budget. The result shows the pairing choice is a
// first-order design decision: grouping axes that co-vary in the cost (here
// each layer's own beta/gamma pair) is an order of magnitude more accurate
// than the lexicographic layout, because it avoids the artificial repeating
// patterns the paper attributes its p=2 accuracy drop to.
func BenchmarkAblationReshape(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	p, err := problem.Random3RegularMaxCut(8, rng)
	if err != nil {
		b.Fatal(err)
	}
	a2 := func() landscape.EvalFunc {
		ev, err := backend.NewAnalyticQAOA(p, noise.Ideal())
		if err != nil {
			b.Fatal(err)
		}
		// Synthetic separable p=2-style landscape from two p=1 surfaces.
		return func(x []float64) (float64, error) {
			v1, err := ev.Evaluate([]float64{x[0], x[2]})
			if err != nil {
				return 0, err
			}
			v2, err := ev.Evaluate([]float64{x[1], x[3]})
			if err != nil {
				return 0, err
			}
			return v1 + 0.5*v2, nil
		}
	}()
	nb, ng := 8, 10
	g4, err := landscape.NewGrid(
		landscape.Axis{Name: "b1", Min: -math.Pi / 8, Max: math.Pi / 8, N: nb},
		landscape.Axis{Name: "b2", Min: -math.Pi / 8, Max: math.Pi / 8, N: nb},
		landscape.Axis{Name: "g1", Min: -math.Pi / 4, Max: math.Pi / 4, N: ng},
		landscape.Axis{Name: "g2", Min: -math.Pi / 4, Max: math.Pi / 4, N: ng},
	)
	if err != nil {
		b.Fatal(err)
	}
	truth, err := landscape.Generate(g4, a2, 0)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("paper-pairing", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			recon, _, err := core.Reconstruct(g4, a2, core.Options{SamplingFraction: 0.2, Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			last, _ = landscape.NRMSE(truth.Data, recon.Data)
		}
		b.ReportMetric(last, "nrmse")
	})
	b.Run("mixed-pairing", func(b *testing.B) {
		// Permute axes to (b1,g1,b2,g2): rows=b1*g1, cols=b2*g2.
		permuted := func(x []float64) (float64, error) {
			return a2([]float64{x[0], x[2], x[1], x[3]})
		}
		gp, err := landscape.NewGrid(
			landscape.Axis{Name: "b1", Min: -math.Pi / 8, Max: math.Pi / 8, N: nb},
			landscape.Axis{Name: "g1", Min: -math.Pi / 4, Max: math.Pi / 4, N: ng},
			landscape.Axis{Name: "b2", Min: -math.Pi / 8, Max: math.Pi / 8, N: nb},
			landscape.Axis{Name: "g2", Min: -math.Pi / 4, Max: math.Pi / 4, N: ng},
		)
		if err != nil {
			b.Fatal(err)
		}
		ptruth, err := landscape.Generate(gp, permuted, 0)
		if err != nil {
			b.Fatal(err)
		}
		var last float64
		for i := 0; i < b.N; i++ {
			recon, _, err := core.Reconstruct(gp, permuted, core.Options{SamplingFraction: 0.2, Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			last, _ = landscape.NRMSE(ptruth.Data, recon.Data)
		}
		b.ReportMetric(last, "nrmse")
	})
}

// BenchmarkAblationSampling compares uniform-random against stratified
// parameter sampling.
func BenchmarkAblationSampling(b *testing.B) {
	grid, truth, eval := benchLandscape(b, 30, 60)
	for _, stratified := range []bool{false, true} {
		name := "uniform"
		if stratified {
			name = "stratified"
		}
		stratified := stratified
		b.Run(name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				recon, _, err := core.Reconstruct(grid, eval, core.Options{
					SamplingFraction: 0.08, Seed: 5, Stratified: stratified,
				})
				if err != nil {
					b.Fatal(err)
				}
				last, _ = landscape.NRMSE(truth.Data, recon.Data)
			}
			b.ReportMetric(last, "nrmse")
		})
	}
}

// BenchmarkAblationEngine compares the closed-form depth-1 QAOA engine
// against full state-vector simulation for the same expectation: identical
// answers, orders of magnitude apart.
func BenchmarkAblationEngine(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	p, err := problem.Random3RegularMaxCut(16, rng)
	if err != nil {
		b.Fatal(err)
	}
	an, err := backend.NewAnalyticQAOA(p, noise.Ideal())
	if err != nil {
		b.Fatal(err)
	}
	a, err := QAOAAnsatz(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	sv, err := backend.NewStateVector(p, a)
	if err != nil {
		b.Fatal(err)
	}
	params := []float64{0.3, -0.6}
	b.Run("analytic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := an.Evaluate(params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("statevector", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sv.Evaluate(params); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGenerateEngine pits the batched execution engine against the
// naive fan-out it replaced — one goroutine per grid point — on the paper's
// 50x100 Table 1 AnalyticQAOA grid (5000 points). The engine's chunking
// amortizes goroutine scheduling and lets the closed-form backend run whole
// sub-batches natively; the acceptance bar is >= 2x over the naive baseline.
func BenchmarkGenerateEngine(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	p, err := problem.Random3RegularMaxCut(16, rng)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := backend.NewAnalyticQAOA(p, noise.Fig4())
	if err != nil {
		b.Fatal(err)
	}
	grid, err := QAOAGrid(1, 50, 100)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("engine-batch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := landscape.GenerateBatch(context.Background(), grid, exec.FromEvaluator(ev), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-goroutine-per-point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l := landscape.New(grid)
			var (
				wg sync.WaitGroup
				mu sync.Mutex
			)
			for idx := 0; idx < grid.Size(); idx++ {
				wg.Add(1)
				go func(idx int) {
					defer wg.Done()
					v, err := ev.Evaluate(grid.Point(idx))
					if err != nil {
						return
					}
					mu.Lock()
					l.Data[idx] = v
					mu.Unlock()
				}(idx)
			}
			wg.Wait()
		}
	})
	b.Run("engine-cached", func(b *testing.B) {
		// Steady-state with the memo cache warm: the regime an optimizer
		// or repeated ZNE sweep sees.
		cache := exec.NewCache(0)
		en := exec.New(exec.FromEvaluator(ev), exec.Options{Cache: cache})
		pts := grid.AllPoints()
		if _, err := en.EvaluateBatch(context.Background(), pts); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := en.EvaluateBatch(context.Background(), pts); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Dense landscape via full state-vector simulation (the ground-truth
	// path for problems with no closed form): the zero-allocation simulator
	// engine against the seed per-point path (fresh 2^n state per point,
	// one full-state pass per Hamiltonian term), both through the same
	// batched engine, on two 12-qubit MaxCut instances. The seed cost is
	// O((gates + |E|) * 2^n) per point while the engine's is
	// O(gates * 2^n) + O(2^n), so the speedup grows with edge count; the
	// acceptance bar for this PR is >= 3x on an |E| >= 10 instance.
	svRng := rand.New(rand.NewSource(78))
	prob3reg, err := problem.Random3RegularMaxCut(12, svRng) // |E| = 18
	if err != nil {
		b.Fatal(err)
	}
	kGraph, err := graph.SK(12, svRng) // complete graph, |E| = 66
	if err != nil {
		b.Fatal(err)
	}
	probK12, err := problem.MaxCut("k12-maxcut", kGraph)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		prob *problem.Problem
	}{
		{"3reg18", prob3reg},
		{"complete66", probK12},
	} {
		svAns, err := QAOAAnsatz(tc.prob, 1)
		if err != nil {
			b.Fatal(err)
		}
		sv, err := backend.NewStateVector(tc.prob, svAns)
		if err != nil {
			b.Fatal(err)
		}
		svProb, svCircuit := tc.prob, svAns.Circuit
		seedPath := &backend.Func{
			Label:  "sv-seed-" + tc.name,
			Params: svAns.NumParams,
			F: func(params []float64) (float64, error) {
				return seedEvaluate(svCircuit, params, svProb.Hamiltonian)
			},
		}
		b.Run("statevector-engine-"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := landscape.GenerateBatch(context.Background(), grid, exec.FromEvaluator(sv), 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("statevector-seed-"+tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := landscape.GenerateBatch(context.Background(), grid, exec.FromEvaluator(seedPath), 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStateVectorBatch measures the simulator's native batch path
// directly (no engine): pooled scratch states, the fused diagonal
// expectation, and deterministic point shards. allocs/point must sit at
// zero in steady state — run with -benchmem; the reported allocations per
// op are for a whole 5000-point batch, and the explicit allocs/point metric
// divides them out. The n16-p1 case is the sv-cold kernel: 500 points (every
// tenth) of the 50x100 grid on a 16-qubit 3-regular MaxCut, serial, with
// us/circuit covering one circuit run plus its expectation. Its circuit and
// energy table are flip-symmetric, so it runs on the half-state path;
// n16-p1-zfield adds one single-qubit Z term to the cost, which breaks the
// symmetry and keeps the same circuit on the full-state path.
func BenchmarkStateVectorBatch(b *testing.B) {
	for _, zfield := range []bool{false, true} {
		name := "n16-p1"
		if zfield {
			name += "-zfield"
		}
		b.Run(name, func(b *testing.B) {
			p, err := problem.Random3RegularMaxCut(16, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			if zfield {
				h := pauli.NewHamiltonian(16)
				for _, t := range p.Hamiltonian.Terms() {
					h.MustAdd(t.Coeff, t.P)
				}
				h.MustAdd(0.5, pauli.SingleZ(16, 0))
				p = &problem.Problem{Name: p.Name + "+z0", Hamiltonian: h, Graph: p.Graph}
			}
			a, err := QAOAAnsatz(p, 1)
			if err != nil {
				b.Fatal(err)
			}
			grid, err := QAOAGrid(1, 50, 100)
			if err != nil {
				b.Fatal(err)
			}
			all := grid.AllPoints()
			pts := make([][]float64, 0, len(all)/10)
			for i := 0; i < len(all); i += 10 {
				pts = append(pts, all[i])
			}
			sv, err := backend.NewStateVector(p, a)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sv.EvaluateBatch(context.Background(), pts[:1]); err != nil {
				b.Fatal(err) // warm the scratch pool and the phase-table compression
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sv.EvaluateBatch(context.Background(), pts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(pts)), "us/circuit")
		})
	}

	rng := rand.New(rand.NewSource(79))
	p, err := problem.Random3RegularMaxCut(12, rng)
	if err != nil {
		b.Fatal(err)
	}
	a, err := QAOAAnsatz(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := QAOAGrid(1, 50, 100)
	if err != nil {
		b.Fatal(err)
	}
	pts := grid.AllPoints()
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("workers-%d", workers)
		if workers == 0 {
			name = "workers-max"
		}
		b.Run(name, func(b *testing.B) {
			sv, err := backend.NewStateVector(p, a)
			if err != nil {
				b.Fatal(err)
			}
			sv.SetWorkers(workers)
			if _, err := sv.EvaluateBatch(context.Background(), pts); err != nil {
				b.Fatal(err) // warm the scratch pool
			}
			b.ReportAllocs()
			b.ResetTimer()
			var allocs0 runtime.MemStats
			runtime.ReadMemStats(&allocs0)
			for i := 0; i < b.N; i++ {
				if _, err := sv.EvaluateBatch(context.Background(), pts); err != nil {
					b.Fatal(err)
				}
			}
			var allocs1 runtime.MemStats
			runtime.ReadMemStats(&allocs1)
			perPoint := float64(allocs1.Mallocs-allocs0.Mallocs) / float64(b.N) / float64(len(pts))
			b.ReportMetric(perPoint, "allocs/point")
		})
	}
}

// BenchmarkReconstructParallel compares the serial solver against the
// sharded solver on the paper's 50x100 Table 1 grid. The samples are
// measured once outside the timed region, so each sub-benchmark times the
// reconstruction phase alone — the phase this PR shards. workers-0 resolves
// to GOMAXPROCS; on a multi-core runner it should beat workers-1
// measurably, and every variant produces bit-identical output.
func BenchmarkReconstructParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	p, err := problem.Random3RegularMaxCut(16, rng)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := backend.NewAnalyticQAOA(p, noise.Fig4())
	if err != nil {
		b.Fatal(err)
	}
	grid, err := QAOAGrid(1, 50, 100)
	if err != nil {
		b.Fatal(err)
	}
	idx, err := core.SampleGrid(grid, 0.05, 7, false)
	if err != nil {
		b.Fatal(err)
	}
	values, err := exec.New(exec.FromEvaluator(ev), exec.Options{}).
		EvaluateBatch(context.Background(), grid.Points(idx))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers-%d", workers)
		if workers == 0 {
			name = "workers-max"
		}
		b.Run(name, func(b *testing.B) {
			opt := core.Options{SamplingFraction: 0.05, Seed: 7}
			opt.Solver = cs.DefaultOptions()
			opt.Solver.Workers = workers
			if workers == 1 {
				opt.Workers = 1 // serial baseline end to end
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.ReconstructFromSamples(grid, idx, values, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReconstructMany solves a fleet of independent 50x100
// reconstructions — the concurrent-jobs regime the service layer will serve
// — once through ReconstructMany's pool and once as a serial loop.
func BenchmarkReconstructMany(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	p, err := problem.Random3RegularMaxCut(16, rng)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := backend.NewAnalyticQAOA(p, noise.Fig4())
	if err != nil {
		b.Fatal(err)
	}
	grid, err := QAOAGrid(1, 50, 100)
	if err != nil {
		b.Fatal(err)
	}
	const fleet = 8
	jobs := make([]cs.Job, fleet)
	for k := range jobs {
		idx, err := core.SampleGrid(grid, 0.05, int64(100+k), false)
		if err != nil {
			b.Fatal(err)
		}
		values, err := exec.New(exec.FromEvaluator(ev), exec.Options{}).
			EvaluateBatch(context.Background(), grid.Points(idx))
		if err != nil {
			b.Fatal(err)
		}
		opt := cs.DefaultOptions()
		opt.Workers = 1
		jobs[k] = cs.Job{Dims: []int{50, 100}, Idx: idx, Y: values, Opt: opt}
	}
	b.Run("pool", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, jr := range cs.ReconstructMany(context.Background(), jobs...) {
				if jr.Err != nil {
					b.Fatal(jr.Err)
				}
			}
		}
	})
	b.Run("serial-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, j := range jobs {
				if _, err := cs.ReconstructND(j.Dims, j.Idx, j.Y, j.Opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkReconstruct5000 is the paper's headline operation: reconstruct
// the 50x100 Table 1 grid from 5% of its points.
func BenchmarkReconstruct5000(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	p, err := problem.Random3RegularMaxCut(16, rng)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := backend.NewAnalyticQAOA(p, noise.Fig4())
	if err != nil {
		b.Fatal(err)
	}
	grid, err := QAOAGrid(1, 50, 100)
	if err != nil {
		b.Fatal(err)
	}
	truth, err := landscape.Generate(grid, ev.Evaluate, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var last float64
	for i := 0; i < b.N; i++ {
		recon, stats, err := core.Reconstruct(grid, ev.Evaluate, core.Options{
			SamplingFraction: 0.05, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		last, _ = landscape.NRMSE(truth.Data, recon.Data)
		if stats.Speedup != 20 {
			b.Fatalf("speedup %g", stats.Speedup)
		}
	}
	b.ReportMetric(last, "nrmse")
}

// BenchmarkReconstructND is the p=2 analogue of BenchmarkReconstruct5000: a
// true 4-D solve on the 10x10x10x10 depth-2 grid from 5% of its points, at
// one and max solver worker counts (the sharded per-axis DCT passes are
// bit-identical across the two).
func BenchmarkReconstructND(b *testing.B) {
	rng := rand.New(rand.NewSource(83))
	dims := []int{10, 10, 10, 10}
	n := 10000
	strides := []int{1000, 100, 10, 1}
	coeffs := make([]float64, n)
	for i := 0; i < 8; i++ {
		idx := 0
		for _, s := range strides {
			idx += rng.Intn(4) * s
		}
		coeffs[idx] = 2*rng.Float64() + 1
	}
	x := make([]float64, n)
	dct.NewPlanND(dims).Inverse(x, coeffs)
	idx, err := cs.SampleIndices(rng, n, n/20)
	if err != nil {
		b.Fatal(err)
	}
	y := make([]float64, len(idx))
	for j, i := range idx {
		y[j] = x[i]
	}
	for _, workers := range []int{1, 0} {
		name := "workers-1"
		if workers == 0 {
			name = "workers-max"
		}
		b.Run(name, func(b *testing.B) {
			opt := cs.DefaultOptions()
			opt.Workers = workers
			var last *cs.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				last, err = cs.ReconstructND(dims, idx, y, opt)
				if err != nil {
					b.Fatal(err)
				}
			}
			var num, den float64
			for i := range x {
				d := last.X[i] - x[i]
				num += d * d
				den += x[i] * x[i]
			}
			b.ReportMetric(math.Sqrt(num/den), "relerr")
		})
	}
}

// BenchmarkSurrogateDescent times the full p=2 surrogate loop through the
// public API: 4-D reconstruction, NDSpline fit, and an ADAM descent on the
// interpolated surrogate (zero further circuit executions).
func BenchmarkSurrogateDescent(b *testing.B) {
	p, err := MeshMaxCut(2, 4)
	if err != nil {
		b.Fatal(err)
	}
	a, err := QAOAAnsatz(p, 2)
	if err != nil {
		b.Fatal(err)
	}
	dev, err := NewStateVector(p, a)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := QAOAGridP(2, 7, 8)
	if err != nil {
		b.Fatal(err)
	}
	be := Batch(dev)
	ctx := context.Background()
	b.ResetTimer()
	var last *SurrogateResult
	for i := 0; i < b.N; i++ {
		last, err = OptimizeOnSurrogate(ctx, grid, be, SurrogateOptions{
			Recon: Options{SamplingFraction: 0.25, Seed: int64(i)},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last.Optimum.F, "surrogate-min")
	b.ReportMetric(float64(last.Stats.Samples), "circuit-execs")
}

// BenchmarkFusedCostLayer records the diagonal-fusion win on the paper's two
// 12-qubit MaxCut shapes: the |E|=18 3-regular graph and the |E|=66
// complete (SK) graph. Both legs sweep the full 50x100 Table 1 grid on one
// worker. "edge-by-edge" runs the ansatz circuit as built (one RZZ sweep per
// edge per point) through qsim.RunInto plus ExpectationDiagonal; "fused" is
// the statevector backend, which runs each cost layer as a single
// phase-table pass (on the flip-symmetric half state), so the ns/op ratio is
// the integer-factor speedup claimed in the README — larger for denser
// graphs because the fused cost no longer scales with |E|.
func BenchmarkFusedCostLayer(b *testing.B) {
	rng := rand.New(rand.NewSource(79))
	reg, err := problem.Random3RegularMaxCut(12, rng)
	if err != nil {
		b.Fatal(err)
	}
	skGraph, err := graph.SK(12, rng)
	if err != nil {
		b.Fatal(err)
	}
	sk, err := problem.MaxCut("sk-12", skGraph)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := QAOAGrid(1, 50, 100)
	if err != nil {
		b.Fatal(err)
	}
	pts := grid.AllPoints()
	perPoint := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pts)), "ns/point")
	}
	for _, tc := range []struct {
		name string
		prob *problem.Problem
	}{
		{"3reg18", reg},
		{"complete66", sk},
	} {
		a, err := QAOAAnsatz(tc.prob, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/edge-by-edge", func(b *testing.B) {
			table, err := tc.prob.DiagonalTable()
			if err != nil {
				b.Fatal(err)
			}
			s := qsim.NewState(a.Circuit.N())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range pts {
					if err := qsim.RunInto(s, a.Circuit, p); err != nil {
						b.Fatal(err)
					}
					if _, err := s.ExpectationDiagonal(table); err != nil {
						b.Fatal(err)
					}
				}
			}
			perPoint(b)
		})
		b.Run(tc.name+"/fused", func(b *testing.B) {
			sv, err := backend.NewStateVector(tc.prob, a)
			if err != nil {
				b.Fatal(err)
			}
			sv.SetWorkers(1)
			if _, err := sv.EvaluateBatch(context.Background(), pts); err != nil {
				b.Fatal(err) // warm the scratch pool and table caches
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sv.EvaluateBatch(context.Background(), pts); err != nil {
					b.Fatal(err)
				}
			}
			perPoint(b)
		})
	}
}

// BenchmarkLandscapeQuery measures the landscape-as-a-service hot read path:
// batch-evaluating a fitted spline surrogate (Interpolator.AtPoints — what
// oscard's POST /landscapes/{id}/query serves) against re-running the
// statevector backend for the same points. The surrogate's batch values are
// asserted bit-identical to pointwise AtPoint calls in setup, and the
// surrogate sub-benchmark reports its measured advantage over the backend as
// the x-vs-backend metric — the ISSUE's >= 1000x bar.
func BenchmarkLandscapeQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(61))
	prob, err := Random3RegularMaxCut(16, rng)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := QAOAGrid(1, 50, 100)
	if err != nil {
		b.Fatal(err)
	}
	// The surrogate's fit data comes from the cheap analytic evaluator —
	// what it was fitted to does not change read-path cost — while the
	// comparison backend is the real statevector simulator.
	analytic, err := NewAnalyticQAOA(prob, IdealNoise())
	if err != nil {
		b.Fatal(err)
	}
	recon, _, err := Reconstruct(grid, analytic.Evaluate, Options{SamplingFraction: 0.05, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ip, err := Interpolate(recon)
	if err != nil {
		b.Fatal(err)
	}
	// 512 query points straddling the hull, like real optimizer traffic.
	pts := make([][]float64, 512)
	for i := range pts {
		p := make([]float64, 2)
		for k, ax := range grid.Axes {
			span := ax.Max - ax.Min
			p[k] = ax.Min - 0.2*span + 1.4*span*rng.Float64()
		}
		pts[i] = p
	}
	dst := make([]float64, len(pts))
	if err := ip.AtPoints(dst, pts); err != nil {
		b.Fatal(err)
	}
	for i, p := range pts {
		if math.Float64bits(dst[i]) != math.Float64bits(ip.AtPoint(p)) {
			b.Fatalf("batch read %d not bit-identical to pointwise: %g vs %g", i, dst[i], ip.AtPoint(p))
		}
	}
	a, err := QAOAAnsatz(prob, 1)
	if err != nil {
		b.Fatal(err)
	}
	var backendNs float64
	b.Run("statevector-backend", func(b *testing.B) {
		sv, err := NewStateVector(prob, a)
		if err != nil {
			b.Fatal(err)
		}
		be := Batch(sv)
		ctx := context.Background()
		if _, err := be.EvaluateBatch(ctx, pts); err != nil {
			b.Fatal(err) // warm the scratch pool
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := be.EvaluateBatch(ctx, pts); err != nil {
				b.Fatal(err)
			}
		}
		backendNs = float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	})
	b.Run("surrogate-query", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := ip.AtPoints(dst, pts); err != nil {
				b.Fatal(err)
			}
		}
		per := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		if backendNs > 0 && per > 0 {
			b.ReportMetric(backendNs/per, "x-vs-backend")
		}
	})
}

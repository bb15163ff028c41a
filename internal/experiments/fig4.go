package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ansatz"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/noise"
	"repro/internal/problem"
)

// qaoaGridP1 builds the Table 1 depth-1 grid at the given resolution.
func qaoaGridP1(betaN, gammaN int) (*landscape.Grid, error) {
	bMin, bMax, gMin, gMax := ansatz.QAOAGridAxes(1)
	return landscape.NewGrid(
		landscape.Axis{Name: "beta", Min: bMin, Max: bMax, N: betaN},
		landscape.Axis{Name: "gamma", Min: gMin, Max: gMax, N: gammaN},
	)
}

// qaoaGridP2 builds the depth-2 4-axis grid.
func qaoaGridP2(betaN, gammaN int) (*landscape.Grid, error) {
	bMin, bMax, gMin, gMax := ansatz.QAOAGridAxes(2)
	return landscape.NewGrid(
		landscape.Axis{Name: "beta1", Min: bMin, Max: bMax, N: betaN},
		landscape.Axis{Name: "beta2", Min: bMin, Max: bMax, N: betaN},
		landscape.Axis{Name: "gamma1", Min: gMin, Max: gMax, N: gammaN},
		landscape.Axis{Name: "gamma2", Min: gMin, Max: gMax, N: gammaN},
	)
}

// fig4Sweep reconstructs `instances` random MaxCut landscapes at each
// sampling fraction and reports the quartiles of NRMSE.
func fig4Sweep(t *Table, label string, instances int, fractions []float64, mkEval func(rng *rand.Rand) (landscape.EvalFunc, *landscape.Grid, error), cfg Config, seedOff int64) error {
	rng := rand.New(rand.NewSource(cfg.Seed + seedOff))
	type inst struct {
		eval  landscape.EvalFunc
		grid  *landscape.Grid
		truth *landscape.Landscape
	}
	insts := make([]inst, instances)
	for i := range insts {
		eval, grid, err := mkEval(rng)
		if err != nil {
			return err
		}
		truth, err := landscape.Generate(grid, eval, cfg.Workers)
		if err != nil {
			return err
		}
		insts[i] = inst{eval: eval, grid: grid, truth: truth}
	}
	for _, frac := range fractions {
		var errs []float64
		for i, in := range insts {
			recon, _, err := core.Reconstruct(in.grid, in.eval, core.Options{
				SamplingFraction: frac,
				Seed:             cfg.Seed + seedOff + int64(i) + int64(frac*1e4),
				Workers:          cfg.Workers,
			})
			if err != nil {
				return err
			}
			e, err := landscape.NRMSE(in.truth.Data, recon.Data)
			if err != nil {
				return err
			}
			errs = append(errs, e)
		}
		t.Rows = append(t.Rows, []string{
			label, pct(frac),
			f(quartile(errs, 0.25)), f(median(errs)), f(quartile(errs, 0.75)),
		})
	}
	return nil
}

// p2Eval builds a depth-2 QAOA evaluator on the state-vector simulator,
// optionally with the global depolarizing damping model (the substitution
// for the paper's 45-55 GPU-hour noisy p=2 density-matrix simulations).
func p2Eval(p *problem.Problem, prof noise.Profile) (landscape.EvalFunc, error) {
	a, err := ansatz.QAOA(p.Graph, 2)
	if err != nil {
		return nil, err
	}
	sv, err := backend.NewStateVector(p, a)
	if err != nil {
		return nil, err
	}
	if prof.IsIdeal() {
		return sv.Evaluate, nil
	}
	// Global damping: the ZZ part of the cost contracts toward the
	// identity offset by a factor set by the circuit's gate counts.
	n1 := a.Circuit.OneQubitCount()
	n2 := a.Circuit.TwoQubitCount()
	damp := math.Pow(noise.Damping1Q(prof.P1), float64(n1)/float64(p.N())) *
		math.Pow(noise.Damping2Q(prof.P2), float64(n2)/float64(p.N()))
	offset := p.Hamiltonian.IdentityCoeff()
	return func(params []float64) (float64, error) {
		v, err := sv.Evaluate(params)
		if err != nil {
			return 0, err
		}
		return offset + damp*(v-offset), nil
	}, nil
}

// Fig4 reproduces Figure 4: median reconstruction error versus sampling
// fraction for depth-1 and depth-2 QAOA MaxCut landscapes, ideal and noisy.
func Fig4(cfg Config) (*Table, error) {
	instances := 16
	gridB, gridG := 50, 100
	p1Sizes := []int{16, 20, 24, 30}
	p1NoisySizes := []int{12, 16, 20}
	p2Sizes := []int{10}
	p2Grid := [2]int{8, 10}
	if cfg.Quick {
		instances = 4
		gridB, gridG = 30, 60
		p1Sizes = []int{16, 20}
		p1NoisySizes = []int{12, 16}
		p2Sizes = []int{8}
		p2Grid = [2]int{6, 8}
	}
	fractions := []float64{0.03, 0.05, 0.07, 0.09}
	t := &Table{
		ID:      "fig4",
		Title:   "Reconstruction error vs sampling fraction (16 MaxCut instances in the paper)",
		Headers: []string{"series", "sampling", "Q1", "median", "Q3"},
		Notes: fmt.Sprintf("%d instances per series; depth-1 landscapes %dx%d via the analytic engine; "+
			"depth-2 landscapes %d^2x%d^2 via state-vector + damping model", instances, gridB, gridG, p2Grid[0], p2Grid[1]),
	}

	// (A) p=1 ideal.
	for _, n := range p1Sizes {
		n := n
		err := fig4Sweep(t, fmt.Sprintf("p1-ideal-%dq", n), instances, fractions,
			func(rng *rand.Rand) (landscape.EvalFunc, *landscape.Grid, error) {
				p, err := problem.Random3RegularMaxCut(n, rng)
				if err != nil {
					return nil, nil, err
				}
				ev, err := backend.NewAnalyticQAOA(p, noise.Ideal())
				if err != nil {
					return nil, nil, err
				}
				grid, err := qaoaGridP1(gridB, gridG)
				return ev.Evaluate, grid, err
			}, cfg, int64(n))
		if err != nil {
			return nil, err
		}
	}

	// (B) p=1 noisy (depolarizing 0.003/0.007).
	for _, n := range p1NoisySizes {
		n := n
		err := fig4Sweep(t, fmt.Sprintf("p1-noisy-%dq", n), instances, fractions,
			func(rng *rand.Rand) (landscape.EvalFunc, *landscape.Grid, error) {
				p, err := problem.Random3RegularMaxCut(n, rng)
				if err != nil {
					return nil, nil, err
				}
				ev, err := backend.NewAnalyticQAOA(p, noise.Fig4())
				if err != nil {
					return nil, nil, err
				}
				grid, err := qaoaGridP1(gridB, gridG)
				return ev.Evaluate, grid, err
			}, cfg, 100+int64(n))
		if err != nil {
			return nil, err
		}
	}

	// (C)+(D) p=2 ideal and noisy on smaller grids/instances.
	p2Instances := instances / 2
	if p2Instances < 2 {
		p2Instances = 2
	}
	for _, n := range p2Sizes {
		n := n
		for _, noisy := range []bool{false, true} {
			label := fmt.Sprintf("p2-ideal-%dq", n)
			prof := noise.Ideal()
			if noisy {
				label = fmt.Sprintf("p2-noisy-%dq", n)
				prof = noise.Fig4()
			}
			err := fig4Sweep(t, label, p2Instances, fractions,
				func(rng *rand.Rand) (landscape.EvalFunc, *landscape.Grid, error) {
					p, err := problem.Random3RegularMaxCut(n, rng)
					if err != nil {
						return nil, nil, err
					}
					eval, err := p2Eval(p, prof)
					if err != nil {
						return nil, nil, err
					}
					grid, err := qaoaGridP2(p2Grid[0], p2Grid[1])
					return eval, grid, err
				}, cfg, 200+int64(n)+boolOff(noisy))
			if err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

func boolOff(b bool) int64 {
	if b {
		return 1000
	}
	return 0
}

// Fig2 produces the paper's motivating Figure 2: the optimizer-centric view
// (cost vs iteration) next to the bird's-eye landscape statistics, for an
// ADAM run on a 16-qubit MaxCut landscape.
func Fig2(cfg Config) (*Table, error) {
	n := 16
	if cfg.Quick {
		n = 12
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	p, err := problem.Random3RegularMaxCut(n, rng)
	if err != nil {
		return nil, err
	}
	ev, err := backend.NewAnalyticQAOA(p, noise.Ideal())
	if err != nil {
		return nil, err
	}
	res, err := adamOnEvaluator(ev.Evaluate, []float64{0.02, 1.2}, 120)
	if err != nil {
		return nil, err
	}
	grid, err := qaoaGridP1(30, 60)
	if err != nil {
		return nil, err
	}
	full, err := landscape.Generate(grid, ev.Evaluate, cfg.Workers)
	if err != nil {
		return nil, err
	}
	minV, minIdx := full.Min()
	if minIdx < 0 {
		return nil, errors.New("experiments: generated landscape has no finite values")
	}
	minPt := grid.Point(minIdx)
	t := &Table{
		ID:      "fig2",
		Title:   "Optimizer view vs bird's-eye view (ADAM on 16-qubit MaxCut)",
		Headers: []string{"quantity", "value"},
		Notes:   "the optimizer's narrow view (path) vs the full landscape context (global min)",
	}
	t.Rows = append(t.Rows,
		[]string{"iterations", fmt.Sprint(res.Iterations)},
		[]string{"queries", fmt.Sprint(res.Queries)},
		[]string{"start cost", f(res.FPath[0])},
		[]string{"final cost", f(res.F)},
		[]string{"final point", fmt.Sprintf("(%.3f, %.3f)", res.X[0], res.X[1])},
		[]string{"landscape min", f(minV)},
		[]string{"landscape argmin", fmt.Sprintf("(%.3f, %.3f)", minPt[0], minPt[1])},
		[]string{"gap to global", f(res.F - minV)},
	)
	return t, nil
}

package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/ncm"
	"repro/internal/noise"
	"repro/internal/problem"
	"repro/internal/qpu"
)

// mixedReconstruction runs the Section 5.1 protocol: sample the grid, split
// samples between two devices, optionally transform device-2 values with an
// NCM trained on a small paired set, reconstruct, and compare against the
// device-1 dense truth.
func mixedReconstruction(
	grid *landscape.Grid,
	ev1, ev2 backend.Evaluator,
	truth *landscape.Landscape,
	fracFirst float64,
	useNCM bool,
	seed int64,
	workers int,
) (float64, error) {
	rng := rand.New(rand.NewSource(seed))
	idx, err := core.SampleGrid(grid, 0.10, seed, false)
	if err != nil {
		return 0, err
	}
	first, second, err := qpu.SplitIndices(idx, fracFirst, rng)
	if err != nil {
		return 0, err
	}
	v1, err := landscape.Sample(grid, ev1.Evaluate, first, workers)
	if err != nil {
		return 0, err
	}
	v2, err := landscape.Sample(grid, ev2.Evaluate, second, workers)
	if err != nil {
		return 0, err
	}
	if useNCM && len(second) > 0 {
		// Train on 1% of the grid measured on both devices.
		trainIdx, err := core.SampleGrid(grid, 0.01, seed+77, false)
		if err != nil {
			return 0, err
		}
		src, err := landscape.Sample(grid, ev2.Evaluate, trainIdx, workers)
		if err != nil {
			return 0, err
		}
		ref, err := landscape.Sample(grid, ev1.Evaluate, trainIdx, workers)
		if err != nil {
			return 0, err
		}
		model, err := ncm.Fit(src, ref)
		if err != nil {
			return 0, err
		}
		v2 = model.TransformAll(v2)
	}
	allIdx := append(append([]int(nil), first...), second...)
	allVals := append(append([]float64(nil), v1...), v2...)
	// Reconstruction requires sorted unique indices? Only unique; sorting
	// is not required by cs, but keep deterministic order by pairing.
	recon, _, err := core.ReconstructFromSamples(grid, allIdx, allVals, core.Options{})
	if err != nil {
		return 0, err
	}
	return landscape.NRMSE(truth.Data, recon.Data)
}

// deviceEval builds the analytic evaluator for a profile.
func deviceEval(p *problem.Problem, prof noise.Profile) (backend.Evaluator, error) {
	return backend.NewAnalyticQAOA(p, prof)
}

// Fig8 reproduces Figure 8: reconstruction error against the QPU-1 target
// landscape as the share of samples from QPU-1 varies, with and without the
// noise-compensation model, for 12/16/20-qubit problems.
func Fig8(cfg Config) (*Table, error) {
	sizes := []int{12, 16, 20}
	fracs := []float64{0, 0.25, 0.5, 0.75, 1}
	gridB, gridG := 40, 80
	if cfg.Quick {
		sizes = []int{12, 16}
		fracs = []float64{0, 0.5, 1}
		gridB, gridG = 30, 60
	}
	t := &Table{
		ID:      "fig8",
		Title:   "Mixed-QPU reconstruction error vs fraction of samples from QPU-1",
		Headers: []string{"qubits", "%from QPU-1", "uncompensated", "+NCM"},
		Notes:   "QPU-1: 0.1%/0.5% error rates; QPU-2: 0.3%/0.7% (paper Section 5.1); target = QPU-1 landscape",
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 8))
	for _, n := range sizes {
		p, err := problem.Random3RegularMaxCut(n, rng)
		if err != nil {
			return nil, err
		}
		ev1, err := deviceEval(p, noise.QPU1())
		if err != nil {
			return nil, err
		}
		ev2, err := deviceEval(p, noise.QPU2())
		if err != nil {
			return nil, err
		}
		grid, err := qaoaGridP1(gridB, gridG)
		if err != nil {
			return nil, err
		}
		truth, err := landscape.Generate(grid, ev1.Evaluate, cfg.Workers)
		if err != nil {
			return nil, err
		}
		for _, fr := range fracs {
			plain, err := mixedReconstruction(grid, ev1, ev2, truth, fr, false, cfg.Seed+int64(n*100)+int64(fr*10), cfg.Workers)
			if err != nil {
				return nil, err
			}
			comp, err := mixedReconstruction(grid, ev1, ev2, truth, fr, true, cfg.Seed+int64(n*100)+int64(fr*10), cfg.Workers)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), pct(fr), f(plain), f(comp),
			})
		}
	}
	return t, nil
}

// Table5 reproduces the paper's Table 5: reconstruction error for different
// device pairs and mixing ratios, with and without NCM. The IBM devices are
// substituted by perth-like and lagos-like simulator profiles
// (noise.PerthLike, noise.LagosLike).
func Table5(cfg Config) (*Table, error) {
	n := 12
	gridB, gridG := 40, 80
	if cfg.Quick {
		n = 10
		gridB, gridG = 30, 60
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 55))
	p, err := problem.Random3RegularMaxCut(n, rng)
	if err != nil {
		return nil, err
	}
	profiles := map[string]noise.Profile{
		"noisy sim-i":  noise.QPU1(),
		"noisy sim-ii": noise.QPU2(),
		"perth-like":   noise.PerthLike(),
		"lagos-like":   noise.LagosLike(),
		"ideal sim":    noise.Ideal(),
	}
	pairs := [][2]string{
		{"noisy sim-i", "noisy sim-ii"},
		{"noisy sim-ii", "noisy sim-i"},
		{"perth-like", "ideal sim"},
		{"perth-like", "noisy sim-i"},
		{"perth-like", "lagos-like"},
		{"lagos-like", "perth-like"},
		{"ideal sim", "perth-like"},
	}
	mixes := []float64{0.2, 0.5, 0.8, 1.0}
	t := &Table{
		ID:      "table5",
		Title:   "Mixed-device reconstruction errors with and without NCM",
		Headers: []string{"QPU1 (target)", "QPU2", "mix", "oscar", "+ncm"},
		Notes:   "mix = fraction of samples from QPU1; IBM devices substituted by device-like profiles",
	}
	grid, err := qaoaGridP1(gridB, gridG)
	if err != nil {
		return nil, err
	}
	for _, pair := range pairs {
		ev1, err := deviceEval(p, profiles[pair[0]])
		if err != nil {
			return nil, err
		}
		ev2, err := deviceEval(p, profiles[pair[1]])
		if err != nil {
			return nil, err
		}
		truth, err := landscape.Generate(grid, ev1.Evaluate, cfg.Workers)
		if err != nil {
			return nil, err
		}
		for _, mix := range mixes {
			seed := cfg.Seed + int64(len(pair[0])*1000) + int64(mix*100)
			plain, err := mixedReconstruction(grid, ev1, ev2, truth, mix, false, seed, cfg.Workers)
			if err != nil {
				return nil, err
			}
			if mix == 1.0 {
				// 100%-0%: no QPU2 samples, NCM is moot.
				t.Rows = append(t.Rows, []string{pair[0], pair[1], "100%-0%", f(plain), "-"})
				continue
			}
			comp, err := mixedReconstruction(grid, ev1, ev2, truth, mix, true, seed, cfg.Workers)
			if err != nil {
				return nil, err
			}
			mixLabel := fmt.Sprintf("%.0f%%-%.0f%%", mix*100, (1-mix)*100)
			t.Rows = append(t.Rows, []string{pair[0], pair[1], mixLabel, f(plain), f(comp)})
		}
	}
	return t, nil
}

package experiments

import (
	"math/rand"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/dct"
	"repro/internal/landscape"
	"repro/internal/noise"
	"repro/internal/problem"
)

// hwSynth generates a "hardware" landscape standing in for the Google
// Sycamore dataset, which this reproduction does not ship: the exact
// analytic landscape, damped by device noise, overlaid with a smooth
// spatially-correlated drift field (calibration drift across the grid scan)
// and per-point shot noise — the three non-idealities that make hardware
// landscapes harder to reconstruct than simulated ones.
func hwSynth(ev *backend.AnalyticQAOA, grid *landscape.Grid, rng *rand.Rand, driftAmp, shotSigma float64) (*landscape.Landscape, error) {
	l, err := landscape.Generate(grid, ev.Evaluate, 0)
	if err != nil {
		return nil, err
	}
	shape := l.Shape()
	strides := make([]int, len(shape))
	s := 1
	for k := len(shape) - 1; k >= 0; k-- {
		strides[k] = s
		s *= shape[k]
	}
	// Smooth drift: a few random low-frequency DCT modes. The per-axis
	// rng.Intn(3) draws match the historical (row, col) draw order on 2-D
	// grids, so 2-D hardware experiments are unchanged by the ND migration.
	coeffs := make([]float64, len(l.Data))
	for k := 0; k < 6; k++ {
		idx := 0
		for a, d := range shape {
			mi := rng.Intn(3)
			if mi >= d {
				mi = d - 1
			}
			idx += mi * strides[a]
		}
		coeffs[idx] = rng.NormFloat64()
	}
	drift := make([]float64, len(l.Data))
	dct.NewPlanND(shape).Inverse(drift, coeffs)
	// Scale drift to driftAmp * the landscape's value spread.
	minV, _ := l.Min()
	maxV, _ := l.Max()
	spread := maxV - minV
	var driftMax float64
	for _, v := range drift {
		if v < 0 {
			v = -v
		}
		if v > driftMax {
			driftMax = v
		}
	}
	if driftMax == 0 {
		driftMax = 1
	}
	for i := range l.Data {
		l.Data[i] += drift[i] / driftMax * driftAmp * spread
		l.Data[i] += shotSigma * spread * rng.NormFloat64()
	}
	return l, nil
}

// hwProblems builds the three Sycamore-dataset problems at a laptop scale:
// MaxCut on a mesh graph, MaxCut on a 3-regular graph, and the SK model.
func hwProblems(n int, rng *rand.Rand) (map[string]*problem.Problem, error) {
	rows, cols := 3, n/3
	if 3*cols != n {
		rows, cols = 2, n/2
	}
	mesh, err := problem.MeshMaxCut(rows, cols)
	if err != nil {
		return nil, err
	}
	reg, err := problem.Random3RegularMaxCut(n, rng)
	if err != nil {
		return nil, err
	}
	sk, err := problem.SK(n, rng)
	if err != nil {
		return nil, err
	}
	return map[string]*problem.Problem{"mesh": mesh, "3-regular": reg, "sk": sk}, nil
}

// sycamoreProfile is the hardware-like noise used for the synthesized
// dataset: strong two-qubit error as on the 53-qubit era devices.
func sycamoreProfile() noise.Profile {
	return noise.Profile{Name: "sycamore-like", P1: 0.0016, P2: 0.0062, Readout01: 0.01, Readout10: 0.05}
}

// hwLandscape builds one 50x50 synthesized hardware landscape for a problem.
func hwLandscape(p *problem.Problem, rng *rand.Rand) (*landscape.Landscape, error) {
	ev, err := backend.NewAnalyticQAOA(p, sycamoreProfile())
	if err != nil {
		return nil, err
	}
	grid, err := qaoaGridP1(50, 50)
	if err != nil {
		return nil, err
	}
	// Sycamore-era landscapes are visibly noisy: 5% drift, 4% shot sigma.
	return hwSynth(ev, grid, rng, 0.05, 0.04)
}

// Fig5 reproduces Figure 5: reconstruction of the three hardware
// (Sycamore-like) 50x50 landscapes at 41% sampling, reporting NRMSE plus the
// structural metrics that show the reconstructions are perceptually
// faithful.
func Fig5(cfg Config) (*Table, error) {
	n := 16
	if cfg.Quick {
		n = 12
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	probs, err := hwProblems(n, rng)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig5",
		Title:   "Hardware-landscape reconstruction at 41% sampling (Sycamore-like synthesis)",
		Headers: []string{"problem", "NRMSE", "truth variance", "recon variance", "truth VoG", "recon VoG"},
		Notes:   "synthetic stand-in for the Google dataset: analytic landscape + damping + drift + shot noise",
	}
	for _, name := range []string{"mesh", "3-regular", "sk"} {
		truth, err := hwLandscape(probs[name], rng)
		if err != nil {
			return nil, err
		}
		idx, err := core.SampleGrid(truth.Grid, 0.41, cfg.Seed+int64(len(name)), false)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(idx))
		for j, i := range idx {
			vals[j] = truth.Data[i]
		}
		recon, _, err := core.ReconstructFromSamples(truth.Grid, idx, vals, core.Options{})
		if err != nil {
			return nil, err
		}
		nr, err := landscape.NRMSE(truth.Data, recon.Data)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			name, f(nr),
			f(landscape.Variance(truth)), f(landscape.Variance(recon)),
			f(landscape.VarianceOfGradient(truth)), f(landscape.VarianceOfGradient(recon)),
		})
	}
	return t, nil
}

// Fig6 reproduces Figure 6: NRMSE versus sampling fraction on the three
// synthesized hardware landscapes.
func Fig6(cfg Config) (*Table, error) {
	n := 16
	fractions := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	if cfg.Quick {
		n = 12
		fractions = []float64{0.1, 0.3, 0.5}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 6))
	probs, err := hwProblems(n, rng)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig6",
		Title:   "Reconstruction error vs sampling fraction on Sycamore-like landscapes",
		Headers: []string{"problem", "sampling", "NRMSE"},
		Notes:   "hardware landscapes carry broadband noise, so errors sit well above the simulator's (Fig 4)",
	}
	for _, name := range []string{"mesh", "3-regular", "sk"} {
		truth, err := hwLandscape(probs[name], rng)
		if err != nil {
			return nil, err
		}
		for _, frac := range fractions {
			idx, err := core.SampleGrid(truth.Grid, frac, cfg.Seed+int64(100*frac), false)
			if err != nil {
				return nil, err
			}
			vals := make([]float64, len(idx))
			for j, i := range idx {
				vals[j] = truth.Data[i]
			}
			recon, _, err := core.ReconstructFromSamples(truth.Grid, idx, vals, core.Options{})
			if err != nil {
				return nil, err
			}
			nr, err := landscape.NRMSE(truth.Data, recon.Data)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{name, pct(frac), f(nr)})
		}
	}
	return t, nil
}

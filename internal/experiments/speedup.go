package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/landscape"
	"repro/internal/noise"
	"repro/internal/problem"
	"repro/internal/qpu"
)

// Speedup quantifies the Section 4.3 claim ("2x to 20x speedups for
// complete landscape generation") and the additional multi-QPU parallel
// speedup of Section 5.
func Speedup(cfg Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 43))
	n := 16
	if cfg.Quick {
		n = 12
	}
	p, err := problem.Random3RegularMaxCut(n, rng)
	if err != nil {
		return nil, err
	}
	ev, err := backend.NewAnalyticQAOA(p, noise.Fig4())
	if err != nil {
		return nil, err
	}
	gridB, gridG := 50, 100
	if cfg.Quick {
		gridB, gridG = 30, 60
	}
	grid, err := qaoaGridP1(gridB, gridG)
	if err != nil {
		return nil, err
	}
	truth, err := landscape.Generate(grid, ev.Evaluate, cfg.Workers)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "speedup",
		Title:   "Landscape-generation speedup vs grid search (samples saved) and parallel execution",
		Headers: []string{"configuration", "samples", "speedup", "NRMSE"},
		Notes:   "grid search = 1.0x baseline; parallel rows add virtual-time multi-QPU speedup on top",
	}
	t.Rows = append(t.Rows, []string{"grid search", fmt.Sprint(grid.Size()), "1.0x", "0"})
	for _, frac := range []float64{0.5, 0.2, 0.1, 0.05} {
		recon, stats, err := core.Reconstruct(grid, ev.Evaluate, core.Options{
			SamplingFraction: frac, Seed: cfg.Seed, Workers: cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		nr, err := landscape.NRMSE(truth.Data, recon.Data)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("oscar @ %s sampling", pct(frac)),
			fmt.Sprint(stats.Samples),
			fmt.Sprintf("%.1fx", stats.Speedup),
			f(nr),
		})
	}

	// Multi-QPU parallel execution at 5% sampling.
	idx, err := core.SampleGrid(grid, 0.05, cfg.Seed, false)
	if err != nil {
		return nil, err
	}
	for _, k := range []int{2, 4, 8} {
		devices := make([]qpu.Device, k)
		for i := range devices {
			devices[i] = qpu.Device{
				Name:    fmt.Sprintf("qpu-%d", i),
				Eval:    ev,
				Latency: qpu.LatencyModel{QueueMedian: 30, Sigma: 0.5, Exec: 3},
			}
		}
		s, err := fleet.New(fleet.Options{Seed: cfg.Seed + int64(k), FixedBatch: 1}, devices...)
		if err != nil {
			return nil, err
		}
		rep, err := s.Run(context.Background(), grid, idx)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("oscar @ 5%% on %d QPUs", k),
			fmt.Sprint(len(idx)),
			fmt.Sprintf("%.1fx over 1 QPU", rep.Speedup()),
			"-",
		})
	}
	return t, nil
}

// Eager quantifies Section 5.2: eager reconstruction drops tail-latency
// samples to cut the makespan with negligible accuracy cost.
func Eager(cfg Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 52))
	n := 16
	gridB, gridG := 40, 80
	if cfg.Quick {
		n = 12
		gridB, gridG = 30, 60
	}
	p, err := problem.Random3RegularMaxCut(n, rng)
	if err != nil {
		return nil, err
	}
	ev, err := backend.NewAnalyticQAOA(p, noise.Fig4())
	if err != nil {
		return nil, err
	}
	grid, err := qaoaGridP1(gridB, gridG)
	if err != nil {
		return nil, err
	}
	truth, err := landscape.Generate(grid, ev.Evaluate, cfg.Workers)
	if err != nil {
		return nil, err
	}
	idx, err := core.SampleGrid(grid, 0.10, cfg.Seed, false)
	if err != nil {
		return nil, err
	}
	// Heavy-tailed devices: 8% of jobs land in a 25x tail.
	lat := qpu.LatencyModel{QueueMedian: 30, Sigma: 0.4, Exec: 3, TailProb: 0.08, TailFactor: 25}
	devices := []qpu.Device{
		{Name: "qpu-a", Eval: ev, Latency: lat},
		{Name: "qpu-b", Eval: ev, Latency: lat},
		{Name: "qpu-c", Eval: ev, Latency: lat},
		{Name: "qpu-d", Eval: ev, Latency: lat},
	}
	s, err := fleet.New(fleet.Options{Seed: cfg.Seed + 520, FixedBatch: 1}, devices...)
	if err != nil {
		return nil, err
	}
	rep, err := s.Run(context.Background(), grid, idx)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "eager",
		Title:   "Eager reconstruction: drop tail-latency samples, keep accuracy",
		Headers: []string{"keep fraction", "samples used", "virtual time (s)", "time saved", "NRMSE"},
		Notes:   "4 QPUs with 8% of jobs hitting a 25x latency tail; full wait is the last row's baseline",
	}
	for _, q := range []float64{0.8, 0.9, 0.95, 1.0} {
		timeout := qpu.TimeoutForFraction(rep, q)
		kept, saved := qpu.EagerCut(rep, timeout)
		keptIdx := make([]int, len(kept))
		keptVals := make([]float64, len(kept))
		for i, r := range kept {
			keptIdx[i] = r.Index
			keptVals[i] = r.Value
		}
		recon, _, err := core.ReconstructFromSamples(grid, keptIdx, keptVals, core.Options{})
		if err != nil {
			return nil, err
		}
		nr, err := landscape.NRMSE(truth.Data, recon.Data)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			pct(q), fmt.Sprint(len(kept)),
			fmt.Sprintf("%.0f", timeout),
			fmt.Sprintf("%.0f s (%.0f%%)", saved, 100*saved/rep.Makespan),
			f(nr),
		})
	}
	return t, nil
}

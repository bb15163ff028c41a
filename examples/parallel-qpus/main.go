// Parallel QPUs: the paper's Section 5. Fan landscape samples out across a
// fleet of heterogeneous QPUs, fix the noise mismatch with the Noise
// Compensation Model, and use eager reconstruction to cut off tail latency.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	oscar "repro"
	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/noise"
	"repro/internal/qpu"
)

func main() {
	rng := rand.New(rand.NewSource(31))
	prob, err := oscar.Random3RegularMaxCut(16, rng)
	if err != nil {
		log.Fatal(err)
	}
	// Two devices with different noise: QPU-A is the reference machine.
	devA, err := oscar.NewAnalyticQAOA(prob, noise.QPU1())
	if err != nil {
		log.Fatal(err)
	}
	devB, err := oscar.NewAnalyticQAOA(prob, noise.QPU2())
	if err != nil {
		log.Fatal(err)
	}
	grid, err := oscar.QAOAGrid(1, 40, 80)
	if err != nil {
		log.Fatal(err)
	}
	truth, err := oscar.GenerateDense(grid, devA.Evaluate, 0)
	if err != nil {
		log.Fatal(err)
	}

	// Sample 10% of the grid and split it across the fleet with heavy
	// tail latency on both devices.
	idx, err := core.SampleGrid(grid, 0.10, 4, false)
	if err != nil {
		log.Fatal(err)
	}
	lat := qpu.LatencyModel{QueueMedian: 45, Sigma: 0.5, Exec: 4, TailProb: 0.07, TailFactor: 22}
	devices := []oscar.Device{
		{Name: "qpu-a", Eval: devA, Latency: lat},
		{Name: "qpu-b", Eval: devB, Latency: lat},
	}
	run := func(batch int) *qpu.RunReport {
		sched, err := oscar.NewFleet(oscar.FleetOptions{Seed: 9, FixedBatch: batch}, devices...)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := sched.Run(context.Background(), grid, idx)
		if err != nil {
			log.Fatal(err)
		}
		return rep
	}
	rep := run(1)
	fmt.Printf("fleet run: %d jobs on 2 QPUs, makespan %.0fs vs %.0fs serial (%.1fx)\n",
		len(rep.Results), rep.Makespan, rep.SerialTime, rep.Speedup())

	// Batched submission: 25 circuits per job pay one queue delay together,
	// the amortization real cloud QPUs reward.
	repB := run(25)
	fmt.Printf("batched fleet run (25/job): makespan %.0fs vs %.0fs serial (%.1fx, %.1fx over unbatched)\n",
		repB.Makespan, repB.SerialTime, repB.Speedup(), rep.Makespan/repB.Makespan)

	// Uncompensated: mix both devices' values directly.
	mixIdx := make([]int, len(rep.Results))
	mixVals := make([]float64, len(rep.Results))
	for i, r := range rep.Results {
		mixIdx[i] = r.Index
		mixVals[i] = r.Value
	}
	recon, _, err := oscar.ReconstructFromSamples(grid, mixIdx, mixVals, oscar.Options{})
	if err != nil {
		log.Fatal(err)
	}
	plain, _ := oscar.NRMSE(truth, recon)

	// NCM: train an affine map from QPU-B's values to QPU-A's on 1% of
	// the grid, then transform QPU-B's samples before reconstructing.
	trainIdx, err := core.SampleGrid(grid, 0.01, 5, false)
	if err != nil {
		log.Fatal(err)
	}
	src, err := landscape.Sample(grid, devB.Evaluate, trainIdx, 0)
	if err != nil {
		log.Fatal(err)
	}
	ref, err := landscape.Sample(grid, devA.Evaluate, trainIdx, 0)
	if err != nil {
		log.Fatal(err)
	}
	model, err := oscar.FitNCM(src, ref)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("NCM: reference ~ %.4f*source + %.4f (R2=%.5f, %d training pairs)\n",
		model.Slope, model.Intercept, model.R2, model.TrainingPairs)
	for i, r := range rep.Results {
		if r.Device == 1 { // measured on QPU-B
			mixVals[i] = model.Transform(r.Value)
		}
	}
	reconNCM, _, err := oscar.ReconstructFromSamples(grid, mixIdx, mixVals, oscar.Options{})
	if err != nil {
		log.Fatal(err)
	}
	comp, _ := oscar.NRMSE(truth, reconNCM)
	fmt.Printf("reconstruction vs QPU-A truth: uncompensated NRMSE %.4f, +NCM %.4f\n", plain, comp)

	// Eager reconstruction: stop waiting at the 90th-percentile job.
	timeout := qpu.TimeoutForFraction(rep, 0.9)
	kept, saved := qpu.EagerCut(rep, timeout)
	eIdx := make([]int, len(kept))
	eVals := make([]float64, len(kept))
	for i, r := range kept {
		eIdx[i] = r.Index
		eVals[i] = r.Value
		if r.Device == 1 {
			eVals[i] = model.Transform(r.Value)
		}
	}
	reconEager, _, err := oscar.ReconstructFromSamples(grid, eIdx, eVals, oscar.Options{})
	if err != nil {
		log.Fatal(err)
	}
	eager, _ := oscar.NRMSE(truth, reconEager)
	fmt.Printf("eager @90%%: kept %d/%d samples, saved %.0fs (%.0f%% of makespan), NRMSE %.4f\n",
		len(kept), len(rep.Results), saved, 100*saved/rep.Makespan, eager)
}

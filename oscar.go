// Package oscar is the public API of this OSCAR reproduction — compressed-
// sensing based cost-landscape reconstruction for debugging and tuning
// variational quantum algorithms (Liu, Hao, Tannu; ISCA 2023).
//
// The typical workflow is:
//
//	prob, _ := oscar.Random3RegularMaxCut(16, rng)     // pick a problem
//	eval, _ := oscar.NewAnalyticQAOA(prob, oscar.IdealNoise()) // pick a device
//	grid, _ := oscar.QAOAGrid(1, 50, 100)              // Table 1 grid
//	recon, stats, _ := oscar.Reconstruct(grid, eval.Evaluate, oscar.Options{
//		SamplingFraction: 0.05, Seed: 1,
//	})
//
// recon is the full 50x100 landscape recovered from 5% of the circuit
// executions; stats.Speedup reports the 20x saving. The sub-packages it
// re-exports implement every substrate from scratch: state-vector and
// density-matrix simulators, problem Hamiltonians and ansatzes, FFT/DCT and
// l1 solvers, classical optimizers, noise mitigation, multi-QPU scheduling,
// and the noise-compensation model.
//
// For service deployments, cmd/oscard wraps this pipeline in a long-running
// HTTP job server (internal/service) with a bounded worker pool and shared
// per-configuration execution caches; see the README's "Running as a
// service" section.
package oscar

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ansatz"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/cs"
	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/interp"
	"repro/internal/landscape"
	"repro/internal/ncm"
	"repro/internal/noise"
	"repro/internal/optimizer"
	"repro/internal/problem"
	"repro/internal/qpu"
)

// Core workflow types.
type (
	// Options configures a reconstruction (sampling fraction, seed,
	// solver settings).
	Options = core.Options
	// Stats reports reconstruction cost and solver diagnostics.
	Stats = core.Stats
	// Landscape is a dense cost landscape over a parameter grid.
	Landscape = landscape.Landscape
	// Grid is a Cartesian parameter grid.
	Grid = landscape.Grid
	// Axis is one grid dimension.
	Axis = landscape.Axis
	// EvalFunc computes a cost at a parameter vector.
	EvalFunc = landscape.EvalFunc
	// Evaluator is a named cost evaluator (a simulated QPU).
	Evaluator = backend.Evaluator
	// Problem couples a cost Hamiltonian with metadata.
	Problem = problem.Problem
	// Ansatz is a parameterized circuit family instance.
	Ansatz = ansatz.Ansatz
	// NoiseProfile describes device error rates.
	NoiseProfile = noise.Profile
	// SolverOptions configures the compressed-sensing solver.
	SolverOptions = cs.Options
	// OptimizerResult reports an optimization run.
	OptimizerResult = optimizer.Result
	// NCModel is a fitted noise-compensation model.
	NCModel = ncm.Model
	// Bicubic is an interpolated 2-D landscape surface, the paper's
	// rectangular bivariate spline: a 2-axis NDSpline with (x, y) At and
	// Gradient methods. It satisfies Interpolator (Arity 2).
	Bicubic = interp.Bicubic
	// NDSpline is an interpolated N-dimensional landscape surface — the
	// tensor-product cubic spline Interpolate fits for any axis count, from
	// the paper's 2-axis grids to the 2p axes of depth-p QAOA.
	NDSpline = interp.NDSpline
)

// Interpolator is a continuously queryable surrogate of a reconstructed
// landscape, independent of its dimensionality. NDSpline (any arity) and
// Bicubic (2 axes) both satisfy it. Beyond pointwise AtPoint/GradientAt it
// carries the allocation-free batch read path — AtPoints/GradientAtPoints
// evaluate whole batches sharded across workers, bit-identically to
// pointwise calls for every worker count. Out-of-domain queries clamp to the
// grid hull on every method: the surrogate never extrapolates beyond the
// fitted data. Gradients are exact derivatives of the interpolant: the
// inside derivative on the hull boundary, zero along axes clamped outside
// it. A fitted surrogate holds 4x its grid's values.
type Interpolator = interp.Interpolator

// Batched execution engine types. Every evaluation fan-out in the library —
// landscape scans, reconstruction sampling, optimizer stencils, ZNE sweeps,
// the QPU fleet — runs on this engine.
type (
	// BatchEvaluator computes costs for whole batches of parameter
	// vectors, with cancellation.
	BatchEvaluator = exec.BatchEvaluator
	// Engine is the chunking, cache-backed worker pool.
	Engine = exec.Engine
	// EngineOptions configures workers, chunk size, and the cache.
	EngineOptions = exec.Options
	// EvalCache memoizes executions by quantized parameter vector.
	EvalCache = exec.Cache
)

// NewEngine builds a batched execution engine around any batch evaluator.
func NewEngine(inner BatchEvaluator, opt EngineOptions) *Engine { return exec.New(inner, opt) }

// NewEvalCache builds a memoizing execution cache (quantum <= 0 selects the
// default parameter quantization). Parameter vectors with non-finite or
// out-of-range coordinates bypass the cache, and Snapshot/Restore spill the
// memoized executions to disk for warm-starts across processes.
func NewEvalCache(quantum float64) *EvalCache { return exec.NewCache(quantum) }

// Batch lifts an Evaluator into a BatchEvaluator, using its native batch
// implementation when it has one (all built-in evaluators do).
func Batch(e Evaluator) BatchEvaluator { return exec.FromEvaluator(e) }

// BatchFunc lifts a point evaluation function into a BatchEvaluator.
func BatchFunc(eval EvalFunc) BatchEvaluator { return exec.Lift(eval) }

// Reconstruct runs the OSCAR pipeline: random sampling, parallel execution,
// compressed-sensing reconstruction.
func Reconstruct(g *Grid, eval EvalFunc, opt Options) (*Landscape, *Stats, error) {
	return core.Reconstruct(g, eval, opt)
}

// ReconstructContext is Reconstruct with cancellation threaded through the
// circuit-execution phase.
func ReconstructContext(ctx context.Context, g *Grid, eval EvalFunc, opt Options) (*Landscape, *Stats, error) {
	return core.ReconstructContext(ctx, g, eval, opt)
}

// ReconstructBatch runs the OSCAR pipeline with circuit execution submitted
// through the batched engine — the entry point for native batch backends
// and cache-backed runs.
func ReconstructBatch(ctx context.Context, g *Grid, be BatchEvaluator, opt Options) (*Landscape, *Stats, error) {
	return core.ReconstructBatch(ctx, g, be, opt)
}

// ReconstructFromSamples reconstructs from already-measured values.
func ReconstructFromSamples(g *Grid, idx []int, values []float64, opt Options) (*Landscape, *Stats, error) {
	return core.ReconstructFromSamples(g, idx, values, opt)
}

// Sharded reconstruction types. The solver phase — FISTA over the 2-D DCT —
// shards its row/column transforms and vector kernels across a worker pool
// (Options.Workers / SolverOptions.Workers), bit-identically to a serial
// solve, and ReconstructMany solves whole fleets of independent landscapes
// concurrently.
type (
	// ReconJob is one independent reconstruction (grid dims, sampled
	// indices, measured values, solver options).
	ReconJob = cs.Job
	// ReconJobResult pairs a ReconJob's result with its error.
	ReconJobResult = cs.JobResult
)

// ReconstructMany solves independent reconstruction jobs concurrently with
// per-job error isolation; results are index-aligned with jobs. A canceled
// ctx stops in-flight solves and marks unfinished jobs with ctx.Err().
func ReconstructMany(ctx context.Context, jobs ...ReconJob) []ReconJobResult {
	return cs.ReconstructMany(ctx, jobs...)
}

// GenerateDense runs the full grid search OSCAR replaces (ground truth).
func GenerateDense(g *Grid, eval EvalFunc, workers int) (*Landscape, error) {
	return landscape.Generate(g, eval, workers)
}

// GenerateDenseBatch is GenerateDense through the batched engine, with
// cancellation.
func GenerateDenseBatch(ctx context.Context, g *Grid, be BatchEvaluator, workers int) (*Landscape, error) {
	return landscape.GenerateBatch(ctx, g, be, workers)
}

// NewGrid builds a parameter grid.
func NewGrid(axes ...Axis) (*Grid, error) { return landscape.NewGrid(axes...) }

// QAOAGrid builds the paper's Table 1 (beta, gamma) grid for depth-p QAOA
// with the given axis resolutions.
func QAOAGrid(p, betaN, gammaN int) (*Grid, error) {
	bMin, bMax, gMin, gMax := ansatz.QAOAGridAxes(p)
	return landscape.NewGrid(
		landscape.Axis{Name: "beta", Min: bMin, Max: bMax, N: betaN},
		landscape.Axis{Name: "gamma", Min: gMin, Max: gMax, N: gammaN},
	)
}

// QAOAGridP builds the full 2p-axis parameter grid for depth-p QAOA:
// axes beta1..betap (resolution betaN each) followed by gamma1..gammap
// (resolution gammaN each), matching the ansatz's [betas..., gammas...]
// parameter order. For p == 1 it returns exactly QAOAGrid's classic 2-axis
// (beta, gamma) grid, so existing depth-1 code can migrate without change.
// Unlike QAOAGrid — whose 2 axes stand for a landscape *slice* at any depth —
// the grid spans every circuit parameter, which is what ND reconstruction
// (cs.ReconstructND via Reconstruct) and surrogate descent need for p > 1.
func QAOAGridP(p, betaN, gammaN int) (*Grid, error) {
	if p < 1 {
		return nil, fmt.Errorf("oscar: QAOA depth %d < 1", p)
	}
	if p == 1 {
		return QAOAGrid(1, betaN, gammaN)
	}
	bMin, bMax, gMin, gMax := ansatz.QAOAGridAxes(p)
	axes := make([]Axis, 0, 2*p)
	for i := 1; i <= p; i++ {
		axes = append(axes, Axis{Name: fmt.Sprintf("beta%d", i), Min: bMin, Max: bMax, N: betaN})
	}
	for i := 1; i <= p; i++ {
		axes = append(axes, Axis{Name: fmt.Sprintf("gamma%d", i), Min: gMin, Max: gMax, N: gammaN})
	}
	return landscape.NewGrid(axes...)
}

// NRMSE is the paper's reconstruction-error metric (Equation 1).
func NRMSE(truth, recon *Landscape) (float64, error) {
	return landscape.NRMSE(truth.Data, recon.Data)
}

// Problems.

// Random3RegularMaxCut builds MaxCut on a random 3-regular graph.
func Random3RegularMaxCut(n int, rng *rand.Rand) (*Problem, error) {
	return problem.Random3RegularMaxCut(n, rng)
}

// MeshMaxCut builds MaxCut on a rows x cols mesh graph.
func MeshMaxCut(rows, cols int) (*Problem, error) { return problem.MeshMaxCut(rows, cols) }

// SKProblem builds a Sherrington-Kirkpatrick instance.
func SKProblem(n int, rng *rand.Rand) (*Problem, error) { return problem.SK(n, rng) }

// H2 returns the 2-qubit hydrogen Hamiltonian.
func H2() *Problem { return problem.H2() }

// LiH returns the 4-qubit lithium-hydride-like Hamiltonian.
func LiH() *Problem { return problem.LiH() }

// Ansatzes.

// QAOAAnsatz builds the depth-p QAOA circuit for a graph problem.
func QAOAAnsatz(p *Problem, depth int) (*Ansatz, error) { return ansatz.QAOA(p.Graph, depth) }

// TwoLocalAnsatz builds the hardware-efficient Two-local ansatz.
func TwoLocalAnsatz(n, reps int) (*Ansatz, error) { return ansatz.TwoLocal(n, reps) }

// UCCSDH2Ansatz builds the 3-parameter UCCSD-style H2 ansatz.
func UCCSDH2Ansatz() (*Ansatz, error) { return ansatz.UCCSDH2() }

// UCCSDLiHAnsatz builds the 8-parameter UCCSD-style LiH ansatz.
func UCCSDLiHAnsatz() (*Ansatz, error) { return ansatz.UCCSDLiH() }

// Evaluators (simulated QPUs).

// NewStateVector builds the exact ideal evaluator. It runs on the
// zero-allocation simulator engine: circuits re-run into pooled scratch
// states, diagonal Hamiltonians (MaxCut, SK) evaluate against the problem's
// cached energy table in one fused pass, and batch submissions reuse
// buffers across every point.
func NewStateVector(p *Problem, a *Ansatz) (Evaluator, error) { return backend.NewStateVector(p, a) }

// NewDensity builds the exact noisy evaluator (<= 13 qubits), with the same
// buffer-reuse treatment as NewStateVector applied to its 4^n matrices.
func NewDensity(p *Problem, a *Ansatz, prof NoiseProfile) (Evaluator, error) {
	return backend.NewDensity(p, a, prof)
}

// NewAnalyticQAOA builds the closed-form depth-1 QAOA evaluator.
func NewAnalyticQAOA(p *Problem, prof NoiseProfile) (*backend.AnalyticQAOA, error) {
	return backend.NewAnalyticQAOA(p, prof)
}

// WithShots wraps an evaluator with finite-shot sampling noise.
func WithShots(inner Evaluator, shots int, spread float64, seed int64) (Evaluator, error) {
	return backend.NewWithShots(inner, shots, spread, seed)
}

// Noise profiles.

// IdealNoise is the noise-free device profile.
func IdealNoise() NoiseProfile { return noise.Ideal() }

// DepolarizingNoise builds a depolarizing profile with the given one- and
// two-qubit error rates.
func DepolarizingNoise(name string, p1, p2 float64) NoiseProfile {
	return NoiseProfile{Name: name, P1: p1, P2: p2}
}

// Interpolation and optimization on reconstructed landscapes.

// Interpolate fits a continuously queryable spline surrogate to a
// reconstructed landscape of any dimensionality: the tensor-product
// NDSpline, which on a 2-axis landscape is the paper's rectangular bivariate
// spline and interpolates p>1 QAOA landscapes the same way.
func Interpolate(l *Landscape) (Interpolator, error) {
	axes := make([][]float64, len(l.Grid.Axes))
	for i, a := range l.Grid.Axes {
		axes[i] = a.Values()
	}
	return interp.Fit(axes, l.Data)
}

// InterpolatedObjective adapts an interpolated landscape into an optimizer
// objective (an instant, QPU-free cost query) for any arity.
func InterpolatedObjective(ip Interpolator) optimizer.Objective {
	return func(x []float64) (float64, error) {
		if len(x) != ip.Arity() {
			return 0, fmt.Errorf("oscar: interpolated objective needs %d parameters, got %d", ip.Arity(), len(x))
		}
		return ip.AtPoint(x), nil
	}
}

// SurrogateOptions configures OptimizeOnSurrogate.
type SurrogateOptions struct {
	// Recon configures the reconstruction phase (sampling fraction, seed,
	// workers, solver). SamplingFraction is required, as in Reconstruct.
	Recon Options
	// Method selects the descent algorithm on the surrogate: "adam"
	// (default) or "cobyla".
	Method string
	// ADAM configures the ADAM descent; zero values take the optimizer's
	// defaults, and empty Bounds default to the grid's axis ranges.
	ADAM optimizer.ADAMOptions
	// Cobyla configures the COBYLA descent when Method == "cobyla"; empty
	// Bounds default to the grid's axis ranges.
	Cobyla optimizer.CobylaOptions
	// Start optionally fixes the descent's starting point. When nil the
	// descent starts from the reconstructed landscape's minimum grid
	// point — the coarse-to-fine handoff OSCAR's Section 7 workflow uses.
	Start []float64
}

// SurrogateResult reports every artifact of a surrogate-descent run.
type SurrogateResult struct {
	// Landscape is the reconstructed coarse landscape.
	Landscape *Landscape
	// Stats carries the reconstruction's cost and solver diagnostics.
	Stats *Stats
	// Surrogate is the continuously queryable interpolant the descent ran
	// on (an NDSpline of the grid's arity).
	Surrogate Interpolator
	// Optimum is the descent's outcome; Optimum.X is the refined
	// parameter vector.
	Optimum *OptimizerResult
}

// OptimizeOnSurrogate closes the OSCAR loop for any QAOA depth: reconstruct
// a coarse landscape from a small sample of circuit executions, interpolate
// it, then descend on the interpolated surrogate — which costs zero further
// quantum evaluations — to refine the optimum to continuous parameters. The
// grid's dimensionality is unrestricted: a QAOAGridP(p, ...) grid runs the
// whole pipeline at depth p through ND reconstruction and NDSpline
// interpolation, exactly as on a classic 2-axis grid.
func OptimizeOnSurrogate(ctx context.Context, g *Grid, be BatchEvaluator, opt SurrogateOptions) (*SurrogateResult, error) {
	l, stats, err := core.ReconstructBatch(ctx, g, be, opt.Recon)
	if err != nil {
		return nil, err
	}
	ip, err := Interpolate(l)
	if err != nil {
		return nil, err
	}
	start := opt.Start
	if start == nil {
		_, argMin := l.Min()
		if argMin < 0 {
			return nil, fmt.Errorf("oscar: reconstructed landscape has no finite values")
		}
		start = l.Grid.Point(argMin)
	}
	if len(start) != ip.Arity() {
		return nil, fmt.Errorf("oscar: start point has %d parameters, grid has %d axes", len(start), ip.Arity())
	}
	bounds := make([]optimizer.Bounds, len(g.Axes))
	for i, a := range g.Axes {
		bounds[i] = optimizer.Bounds{Lo: a.Min, Hi: a.Max}
	}
	obj := InterpolatedObjective(ip)
	var res *OptimizerResult
	switch opt.Method {
	case "", "adam":
		ao := opt.ADAM
		if ao.Bounds == nil {
			ao.Bounds = bounds
		}
		res, err = optimizer.ADAM(obj, start, ao)
	case "cobyla":
		co := opt.Cobyla
		if co.Bounds == nil {
			co.Bounds = bounds
		}
		res, err = optimizer.Cobyla(obj, start, co)
	default:
		return nil, fmt.Errorf("oscar: unknown surrogate method %q", opt.Method)
	}
	if err != nil {
		return nil, err
	}
	return &SurrogateResult{Landscape: l, Stats: stats, Surrogate: ip, Optimum: res}, nil
}

// RunADAM minimizes an objective with ADAM (finite-difference gradients).
func RunADAM(f optimizer.Objective, x0 []float64, opt optimizer.ADAMOptions) (*OptimizerResult, error) {
	return optimizer.ADAM(f, x0, opt)
}

// RunADAMBatch is RunADAM with each full gradient stencil (2n probes)
// submitted to the objective as a single batch — one QPU job per step.
func RunADAMBatch(f optimizer.BatchObjective, x0 []float64, opt optimizer.ADAMOptions) (*OptimizerResult, error) {
	return optimizer.ADAMBatch(f, x0, opt)
}

// EngineObjective adapts a batch evaluator into a batch optimizer objective,
// so gradient stencils run through the engine (and its cache) as one batch.
func EngineObjective(ctx context.Context, be BatchEvaluator) optimizer.BatchObjective {
	return func(xs [][]float64) ([]float64, error) { return be.EvaluateBatch(ctx, xs) }
}

// RunCobyla minimizes an objective with the COBYLA-style trust-region
// method.
func RunCobyla(f optimizer.Objective, x0 []float64, opt optimizer.CobylaOptions) (*OptimizerResult, error) {
	return optimizer.Cobyla(f, x0, opt)
}

// FitNCM trains a noise-compensation model from paired device measurements.
func FitNCM(source, reference []float64) (*NCModel, error) { return ncm.Fit(source, reference) }

// Multi-QPU execution.

// NewExecutor builds a virtual-time multi-QPU executor.
func NewExecutor(seed int64, devices ...qpu.Device) (*qpu.Executor, error) {
	return qpu.NewExecutor(seed, devices...)
}

// Device couples an evaluator with a latency model.
type Device = qpu.Device

// DefaultLatency is a cloud-QPU-like latency model.
func DefaultLatency() qpu.LatencyModel { return qpu.DefaultLatency() }

// Fleet scheduling. The fleet scheduler dispatches landscape sampling across
// a heterogeneous device fleet, learning per-device batch sizes online from
// observed queue/execution latency ratios, and streams completed batches
// into an incremental, warm-started reconstruction with an optional
// batch-boundary eager cut. Runs are bit-reproducible for a fixed seed
// across worker counts.
type (
	// FleetScheduler dispatches sampling across devices with adaptive
	// batch sizes.
	FleetScheduler = fleet.Scheduler
	// FleetOptions configures adaptation, streaming thresholds, the eager
	// cut, and the shared execution cache.
	FleetOptions = fleet.Options
	// FleetStreamResult is the outcome of a streaming fleet run.
	FleetStreamResult = fleet.StreamResult
	// FleetProgress is the live view passed to OnProgress.
	FleetProgress = fleet.Progress
	// FleetDeviceState is one device's learned scheduling state.
	FleetDeviceState = fleet.DeviceState
	// BatchGroup records one batch submission's latency decomposition and
	// completion time.
	BatchGroup = qpu.BatchGroup
)

// NewFleet builds an adaptive fleet scheduler over the given devices.
func NewFleet(opt FleetOptions, devices ...Device) (*FleetScheduler, error) {
	return fleet.New(opt, devices...)
}

// Fault injection and risk-aware scheduling. A Scenario perturbs a device's
// latency, failure probability, or availability as a function of virtual
// time — deterministic, seeded chaos for validating schedulers against
// adversarial device behavior. Sharing one scenario instance across several
// devices correlates their disturbances. FleetOptions.RiskAware enables the
// robustness policy layer: tail-exposure batch caps, bounded retries with
// backoff, and quarantine/probation for persistently failing devices.
type (
	// Scenario perturbs a device's condition over virtual time.
	Scenario = qpu.Scenario
	// Condition is a device's effective behavior at one instant.
	Condition = qpu.Condition
	// Drift ramps execution time linearly, as between calibrations.
	Drift = qpu.Drift
	// Dropout takes a device dark for one window of virtual time.
	Dropout = qpu.Dropout
	// QuarantineEvent records one bench or re-admit transition of a
	// risk-aware run.
	QuarantineEvent = fleet.QuarantineEvent
)

// ClampAngle wraps an angle into [-pi, pi], a convenience for initial
// points produced by optimizers.
func ClampAngle(x float64) float64 {
	for x > math.Pi {
		x -= 2 * math.Pi
	}
	for x < -math.Pi {
		x += 2 * math.Pi
	}
	return x
}

package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"

	"repro/internal/ansatz"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/cs"
	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/landscape"
	"repro/internal/noise"
	"repro/internal/problem"
	"repro/internal/qpu"
)

// JobSpec is the JSON body of a reconstruction job: which problem to build,
// which simulated device to run it on, the parameter grid, and the OSCAR
// sampling/solver options. A Fleet block switches the job into fleet mode:
// sampling is dispatched across the listed virtual devices with adaptive
// batch sizing and streamed into an incremental reconstruction, and polling
// the job reports progressive partial results.
type JobSpec struct {
	Problem ProblemSpec `json:"problem"`
	Backend BackendSpec `json:"backend"`
	Grid    GridSpec    `json:"grid"`
	Options OptionsSpec `json:"options"`
	Fleet   *FleetSpec  `json:"fleet,omitempty"`

	// Wait, when true, keeps the HTTP request open until the job finishes
	// and returns the result inline; closing the connection cancels the
	// solve. When false the job runs asynchronously and is polled by id.
	Wait bool `json:"wait,omitempty"`
	// ReturnData includes the full reconstructed landscape in the result
	// (grid-size floats); summaries (min/max/stats) are always returned.
	ReturnData bool `json:"return_data,omitempty"`
	// Tag is an optional client label echoed back in job listings.
	Tag string `json:"tag,omitempty"`
}

// ProblemSpec selects a problem Hamiltonian.
type ProblemSpec struct {
	// Kind is one of "maxcut3" (random 3-regular MaxCut), "sk"
	// (Sherrington-Kirkpatrick), "mesh" (mesh MaxCut), "h2", "lih".
	Kind string `json:"kind"`
	// N is the qubit count for maxcut3/sk.
	N int `json:"n,omitempty"`
	// Seed drives random problem construction (maxcut3, sk).
	Seed int64 `json:"seed,omitempty"`
	// Rows, Cols shape the mesh problem.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
}

// NoiseSpec is a depolarizing noise profile.
type NoiseSpec struct {
	Name string  `json:"name,omitempty"`
	P1   float64 `json:"p1"`
	P2   float64 `json:"p2"`
}

// BackendSpec selects the simulated device.
type BackendSpec struct {
	// Kind is one of "analytic" (closed-form depth-1 QAOA), "statevector",
	// "density".
	Kind string `json:"kind"`
	// Ansatz is "qaoa" (default) or "twolocal"; ignored by analytic.
	Ansatz string `json:"ansatz,omitempty"`
	// Depth is the QAOA depth or TwoLocal reps (default 1).
	Depth int `json:"depth,omitempty"`
	// Noise applies a depolarizing profile (analytic damping factors or
	// density-matrix channels). Nil means ideal.
	Noise *NoiseSpec `json:"noise,omitempty"`
	// Shots, when positive, wraps the device with finite-shot sampling
	// noise. Shot-sampled jobs bypass the shared execution cache: their
	// values are stochastic, and freezing one draw would silently turn
	// noise into bias for every later job.
	Shots    int     `json:"shots,omitempty"`
	ShotSeed int64   `json:"shot_seed,omitempty"`
	Spread   float64 `json:"spread,omitempty"`
}

// AxisSpec is one explicit grid axis.
type AxisSpec struct {
	Name string  `json:"name"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	N    int     `json:"n"`
}

// GridSpec is either the QAOA shorthand (the paper's Table 1 beta/gamma
// grid, optionally at depth p) or an explicit axis list. Reconstruction is
// N-dimensional, so any axis count >= 1 is accepted as long as it matches
// the backend's parameter count.
type GridSpec struct {
	// BetaN, GammaN select the QAOA shorthand grid resolution (per axis).
	BetaN  int `json:"beta_n,omitempty"`
	GammaN int `json:"gamma_n,omitempty"`
	// P is the QAOA depth of the shorthand grid. Omitted or 1 builds the
	// classic 2-axis (beta, gamma) grid; p >= 2 builds the full 2p-axis
	// grid (beta1..betap, gamma1..gammap), each beta axis at BetaN points
	// and each gamma axis at GammaN — pair it with a backend of matching
	// depth. Negative p is rejected, as is combining p with explicit Axes.
	P int `json:"p,omitempty"`
	// Axes overrides the shorthand with explicit axes (any count >= 1;
	// the solver runs a true N-dimensional reconstruction).
	Axes []AxisSpec `json:"axes,omitempty"`
}

// SolverSpec overrides compressed-sensing solver defaults.
type SolverSpec struct {
	Method    string  `json:"method,omitempty"` // fista (default) | ista | omp
	Lambda    float64 `json:"lambda,omitempty"`
	LambdaRel float64 `json:"lambda_rel,omitempty"`
	MaxIter   int     `json:"max_iter,omitempty"`
	Tol       float64 `json:"tol,omitempty"`
}

// OptionsSpec configures the OSCAR pipeline.
type OptionsSpec struct {
	// SamplingFraction is the fraction of grid points to execute, in
	// (0, 1]. Required.
	SamplingFraction float64 `json:"sampling_fraction"`
	// Seed drives parameter sampling.
	Seed int64 `json:"seed,omitempty"`
	// Stratified switches to jittered stratified sampling.
	Stratified bool `json:"stratified,omitempty"`
	// Solver overrides solver defaults.
	Solver *SolverSpec `json:"solver,omitempty"`
}

// FleetDeviceSpec is one virtual device in a fleet job: its latency model,
// failure probability, and an optional adversarial scenario. Every device
// runs the job's backend evaluator — the fleet models where circuits run,
// not what they compute.
type FleetDeviceSpec struct {
	Name string `json:"name,omitempty"`
	// QueueMedian, Sigma, Exec, TailProb, TailFactor parameterize the
	// lognormal + heavy-tail latency model (see qpu.LatencyModel).
	// QueueMedian and Exec must be positive.
	QueueMedian float64 `json:"queue_median"`
	Sigma       float64 `json:"sigma,omitempty"`
	Exec        float64 `json:"exec,omitempty"`
	TailProb    float64 `json:"tail_prob,omitempty"`
	TailFactor  float64 `json:"tail_factor,omitempty"`
	// FailureProb is the per-submission failure probability, in [0,1).
	FailureProb float64 `json:"failure_prob,omitempty"`
	// Scenario injects an adversarial disturbance on this device alone; it
	// composes with (applies after) the fleet-level shared scenario.
	Scenario *ScenarioSpec `json:"scenario,omitempty"`
}

// ScenarioSpec selects a deterministic fault-injection scenario (see
// internal/qpu): a perturbation of a device's latency, failure probability,
// or availability as a function of virtual time. Injections are seeded and
// reproducible, so a chaos job reruns bit-identically.
type ScenarioSpec struct {
	// Kind is one of "drift", "dropout", "queue_spikes", "retry_storm".
	Kind string `json:"kind"`
	// Start is when a drift or dropout begins (virtual seconds).
	Start float64 `json:"start,omitempty"`
	// Rate is drift's fractional execution-time growth per second; Max caps
	// the resulting multiplier (0 = the qpu default of 10x).
	Rate float64 `json:"rate,omitempty"`
	Max  float64 `json:"max,omitempty"`
	// Duration is the dropout length, or each queue-spike / retry-storm
	// window's length.
	Duration float64 `json:"duration,omitempty"`
	// Spacing is the mean gap between queue-spike / retry-storm windows
	// (exponentially distributed).
	Spacing float64 `json:"spacing,omitempty"`
	// Factor multiplies queue delay inside a spike window (> 1).
	Factor float64 `json:"factor,omitempty"`
	// Prob is the failure probability inside a storm window, in (0,1].
	Prob float64 `json:"prob,omitempty"`
	// Seed drives the window stream of queue_spikes / retry_storm (0
	// derives one from the fleet seed).
	Seed int64 `json:"seed,omitempty"`
}

// FleetSpec configures fleet-mode execution of a job.
type FleetSpec struct {
	// Devices lists the virtual QPUs (at least one, at most 32).
	Devices []FleetDeviceSpec `json:"devices"`
	// Seed drives the per-device latency streams (default: the job's
	// sampling seed).
	Seed int64 `json:"seed,omitempty"`
	// Thresholds are coverage fractions in (0,1) at which interim
	// reconstructions run during streaming (default 0.5 and 0.75).
	Thresholds []float64 `json:"thresholds,omitempty"`
	// KeepFraction in (0,1) applies the batch-boundary eager cut.
	KeepFraction float64 `json:"keep_fraction,omitempty"`
	// Scenario injects one shared disturbance across every device — a
	// single scenario instance drives all of them, so window-based kinds
	// (queue_spikes, retry_storm) hit the whole fleet together: the
	// correlated case that defeats purely per-device mitigation.
	Scenario *ScenarioSpec `json:"scenario,omitempty"`
	// RiskAware enables the robustness policy layer: tail-exposure batch
	// caps, bounded retries with backoff, and quarantine/probation (see
	// fleet.Options).
	RiskAware bool `json:"risk_aware,omitempty"`
}

// specError marks a client-side job specification problem (HTTP 400).
type specError struct{ msg string }

func (e *specError) Error() string { return e.msg }

func specErrorf(format string, args ...any) error {
	return &specError{msg: fmt.Sprintf(format, args...)}
}

// builtJob is a validated, executable job: everything runJob needs except
// the server-owned cache and worker budget.
type builtJob struct {
	grid *landscape.Grid
	eval exec.BatchEvaluator
	opts core.Options
	// cacheable is false for stochastic (shot-sampled) devices.
	cacheable bool
	// configKey canonicalizes (problem, backend) so identical jobs share
	// one cache and differently-configured jobs never alias.
	configKey string
	qubits    int
	// fleetDevices and fleetOpts are set for fleet-mode jobs; the
	// scheduler itself is built per run (it owns mutable RNG streams).
	fleetDevices []qpu.Device
	fleetOpts    *fleet.Options
}

// normalize fills spec defaults in place so equivalent specs canonicalize to
// the same configKey.
func (s *JobSpec) normalize() {
	s.Problem.Kind = strings.ToLower(strings.TrimSpace(s.Problem.Kind))
	s.Backend.Kind = strings.ToLower(strings.TrimSpace(s.Backend.Kind))
	s.Backend.Ansatz = strings.ToLower(strings.TrimSpace(s.Backend.Ansatz))
	if s.Backend.Ansatz == "" {
		s.Backend.Ansatz = "qaoa"
	}
	if s.Backend.Depth == 0 {
		s.Backend.Depth = 1
	}
	if s.Backend.Noise != nil && s.Backend.Noise.P1 == 0 && s.Backend.Noise.P2 == 0 {
		s.Backend.Noise = nil
	}
	if s.Backend.Shots == 0 {
		s.Backend.ShotSeed = 0
		s.Backend.Spread = 0
	}
}

func buildProblem(ps ProblemSpec) (*problem.Problem, error) {
	var (
		p   *problem.Problem
		err error
	)
	switch ps.Kind {
	case "maxcut3":
		if ps.N <= 0 {
			return nil, specErrorf("problem: maxcut3 needs n > 0")
		}
		p, err = problem.Random3RegularMaxCut(ps.N, rand.New(rand.NewSource(ps.Seed)))
	case "sk":
		if ps.N <= 0 {
			return nil, specErrorf("problem: sk needs n > 0")
		}
		p, err = problem.SK(ps.N, rand.New(rand.NewSource(ps.Seed)))
	case "mesh":
		p, err = problem.MeshMaxCut(ps.Rows, ps.Cols)
	case "h2":
		return problem.H2(), nil
	case "lih":
		return problem.LiH(), nil
	case "":
		return nil, specErrorf("problem: missing kind")
	default:
		return nil, specErrorf("problem: unknown kind %q (want maxcut3|sk|mesh|h2|lih)", ps.Kind)
	}
	if err != nil {
		// Constructor rejections (odd n for 3-regular graphs, sk size
		// limits, degenerate meshes) are the client's parameters.
		return nil, &specError{msg: err.Error()}
	}
	return p, nil
}

func buildAnsatz(bs BackendSpec, p *problem.Problem) (*ansatz.Ansatz, error) {
	switch bs.Ansatz {
	case "qaoa":
		if p.Graph == nil {
			return nil, specErrorf("backend: qaoa ansatz needs a graph problem, got %q", p.Name)
		}
		return ansatz.QAOA(p.Graph, bs.Depth)
	case "twolocal":
		return ansatz.TwoLocal(p.N(), bs.Depth)
	default:
		return nil, specErrorf("backend: unknown ansatz %q (want qaoa|twolocal)", bs.Ansatz)
	}
}

func buildEvaluator(bs BackendSpec, p *problem.Problem, maxQubits int) (backend.Evaluator, error) {
	prof := noise.Ideal()
	if bs.Noise != nil {
		name := bs.Noise.Name
		if name == "" {
			name = "depolarizing"
		}
		prof = noise.Profile{Name: name, P1: bs.Noise.P1, P2: bs.Noise.P2}
		if err := prof.Validate(); err != nil {
			return nil, specErrorf("backend: %v", err)
		}
	}
	var (
		eval backend.Evaluator
		err  error
	)
	switch bs.Kind {
	case "analytic":
		eval, err = backend.NewAnalyticQAOA(p, prof)
	case "statevector":
		if p.N() > maxQubits {
			return nil, specErrorf("backend: %d qubits exceeds the server limit of %d", p.N(), maxQubits)
		}
		var a *ansatz.Ansatz
		if a, err = buildAnsatz(bs, p); err == nil {
			eval, err = backend.NewStateVector(p, a)
		}
	case "density":
		if p.N() > maxQubits {
			return nil, specErrorf("backend: %d qubits exceeds the server limit of %d", p.N(), maxQubits)
		}
		var a *ansatz.Ansatz
		if a, err = buildAnsatz(bs, p); err == nil {
			eval, err = backend.NewDensity(p, a, prof)
		}
	case "":
		return nil, specErrorf("backend: missing kind")
	default:
		return nil, specErrorf("backend: unknown kind %q (want analytic|statevector|density)", bs.Kind)
	}
	if err != nil {
		if _, ok := err.(*specError); ok {
			return nil, err
		}
		// Constructor errors are misconfigurations (bad depth, too many
		// qubits for density, non-graph problem): the client's fault.
		return nil, &specError{msg: err.Error()}
	}
	if bs.Shots > 0 {
		eval, err = backend.NewWithShots(eval, bs.Shots, bs.Spread, bs.ShotSeed)
		if err != nil {
			return nil, &specError{msg: err.Error()}
		}
	}
	return eval, nil
}

func buildGrid(gs GridSpec, maxPoints int) (*landscape.Grid, error) {
	if gs.P < 0 {
		return nil, specErrorf("grid: p must be >= 1, got %d", gs.P)
	}
	var axes []landscape.Axis
	if len(gs.Axes) > 0 {
		if gs.BetaN != 0 || gs.GammaN != 0 {
			return nil, specErrorf("grid: give either beta_n/gamma_n or axes, not both")
		}
		if gs.P != 0 {
			return nil, specErrorf("grid: p is the QAOA-shorthand depth; give either p or axes, not both")
		}
		for _, a := range gs.Axes {
			if !isFinite(a.Min) || !isFinite(a.Max) {
				return nil, specErrorf("grid: axis %q has non-finite bounds", a.Name)
			}
			axes = append(axes, landscape.Axis{Name: a.Name, Min: a.Min, Max: a.Max, N: a.N})
		}
	} else {
		if gs.BetaN < 2 || gs.GammaN < 2 {
			return nil, specErrorf("grid: beta_n and gamma_n must be >= 2 (or give explicit axes)")
		}
		p := gs.P
		if p == 0 {
			p = 1
		}
		// Each of the 2p axes at least doubles the point count: reject a
		// depth past the limit before building its axes.
		if p > 31 || 1<<(2*p) > maxPoints {
			return nil, specErrorf("grid: more than the maximum %d points", maxPoints)
		}
		bMin, bMax, gMin, gMax := ansatz.QAOAGridAxes(p)
		if p == 1 {
			axes = []landscape.Axis{
				{Name: "beta", Min: bMin, Max: bMax, N: gs.BetaN},
				{Name: "gamma", Min: gMin, Max: gMax, N: gs.GammaN},
			}
		} else {
			for i := 1; i <= p; i++ {
				axes = append(axes, landscape.Axis{Name: fmt.Sprintf("beta%d", i), Min: bMin, Max: bMax, N: gs.BetaN})
			}
			for i := 1; i <= p; i++ {
				axes = append(axes, landscape.Axis{Name: fmt.Sprintf("gamma%d", i), Min: gMin, Max: gMax, N: gs.GammaN})
			}
		}
	}
	// Reject oversized grids before allocating anything: the axis counts
	// multiply, so check with overflow care.
	points := 1
	for _, a := range axes {
		if a.N < 2 {
			return nil, specErrorf("grid: axis %q needs n >= 2, got %d", a.Name, a.N)
		}
		if points > maxPoints/a.N {
			return nil, specErrorf("grid: more than the maximum %d points", maxPoints)
		}
		points *= a.N
	}
	g, err := landscape.NewGrid(axes...)
	if err != nil {
		return nil, &specError{msg: err.Error()}
	}
	return g, nil
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func buildSolver(ss *SolverSpec) (cs.Options, error) {
	opt := cs.DefaultOptions()
	if ss == nil {
		return opt, nil
	}
	switch strings.ToLower(ss.Method) {
	case "", "fista":
		opt.Method = cs.FISTA
	case "ista":
		opt.Method = cs.ISTA
	case "omp":
		opt.Method = cs.OMP
	default:
		return opt, specErrorf("solver: unknown method %q (want fista|ista|omp)", ss.Method)
	}
	if ss.Lambda < 0 || ss.LambdaRel < 0 || ss.Tol < 0 || ss.MaxIter < 0 {
		return opt, specErrorf("solver: negative solver parameters")
	}
	if ss.Lambda > 0 {
		opt.Lambda = ss.Lambda
	}
	if ss.LambdaRel > 0 {
		opt.LambdaRel = ss.LambdaRel
	}
	if ss.MaxIter > 0 {
		opt.MaxIter = ss.MaxIter
	}
	if ss.Tol > 0 {
		opt.Tol = ss.Tol
	}
	return opt, nil
}

// maxFleetDevices bounds the device list of a fleet job.
const maxFleetDevices = 32

// buildScenario validates a ScenarioSpec and instantiates the qpu scenario.
// where prefixes error messages ("fleet" or the device). defaultSeed seeds
// window-based scenarios when the spec leaves Seed zero.
func buildScenario(ss *ScenarioSpec, where string, defaultSeed int64) (qpu.Scenario, error) {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"start", ss.Start}, {"rate", ss.Rate}, {"max", ss.Max},
		{"duration", ss.Duration}, {"spacing", ss.Spacing},
		{"factor", ss.Factor}, {"prob", ss.Prob},
	} {
		if !isFinite(p.v) || p.v < 0 {
			return nil, specErrorf("%s: scenario %s %g is not a non-negative number", where, p.name, p.v)
		}
	}
	seed := ss.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	switch strings.ToLower(ss.Kind) {
	case "drift":
		if ss.Rate <= 0 {
			return nil, specErrorf("%s: drift scenario needs rate > 0", where)
		}
		return qpu.Drift{Start: ss.Start, Rate: ss.Rate, Max: ss.Max}, nil
	case "dropout":
		if ss.Duration <= 0 {
			return nil, specErrorf("%s: dropout scenario needs duration > 0", where)
		}
		return qpu.Dropout{Start: ss.Start, Duration: ss.Duration}, nil
	case "queue_spikes":
		if ss.Spacing <= 0 || ss.Duration <= 0 {
			return nil, specErrorf("%s: queue_spikes scenario needs spacing > 0 and duration > 0", where)
		}
		if ss.Factor <= 1 {
			return nil, specErrorf("%s: queue_spikes scenario needs factor > 1, got %g", where, ss.Factor)
		}
		return qpu.NewQueueSpikes(seed, ss.Spacing, ss.Duration, ss.Factor), nil
	case "retry_storm":
		if ss.Spacing <= 0 || ss.Duration <= 0 {
			return nil, specErrorf("%s: retry_storm scenario needs spacing > 0 and duration > 0", where)
		}
		if ss.Prob <= 0 || ss.Prob > 1 {
			return nil, specErrorf("%s: retry_storm scenario needs prob in (0,1], got %g", where, ss.Prob)
		}
		return qpu.NewRetryStorm(seed, ss.Spacing, ss.Duration, ss.Prob), nil
	case "":
		return nil, specErrorf("%s: scenario missing kind", where)
	default:
		return nil, specErrorf("%s: unknown scenario kind %q (want drift|dropout|queue_spikes|retry_storm)", where, ss.Kind)
	}
}

// buildFleet validates a FleetSpec and assembles the device list and
// scheduler options (sans the server-owned cache and progress hook).
func buildFleet(fs *FleetSpec, eval backend.Evaluator, samplingSeed int64) ([]qpu.Device, *fleet.Options, error) {
	if len(fs.Devices) == 0 {
		return nil, nil, specErrorf("fleet: needs at least one device")
	}
	if len(fs.Devices) > maxFleetDevices {
		return nil, nil, specErrorf("fleet: %d devices exceeds the limit of %d", len(fs.Devices), maxFleetDevices)
	}
	seed := fs.Seed
	if seed == 0 {
		seed = samplingSeed
	}
	// One shared instance drives every device, which is what makes the
	// disturbances correlated; per-device scenarios compose on top of it.
	var shared qpu.Scenario
	if fs.Scenario != nil {
		var err error
		if shared, err = buildScenario(fs.Scenario, "fleet", seed+1789); err != nil {
			return nil, nil, err
		}
	}
	devices := make([]qpu.Device, len(fs.Devices))
	seen := make(map[string]struct{}, len(fs.Devices))
	for i, ds := range fs.Devices {
		name := ds.Name
		if name == "" {
			name = fmt.Sprintf("qpu-%d", i)
		}
		// Names key the result's batch_sizes/jobs_per_device maps and the
		// /metrics gauges; duplicates would silently collapse entries.
		if _, dup := seen[name]; dup {
			return nil, nil, specErrorf("fleet: duplicate device name %q", name)
		}
		seen[name] = struct{}{}
		// Reject degenerate latency models and failure probabilities at
		// submission: a zero queue or exec time silently models a free
		// device, and a failure probability of 1 can never complete a job.
		if !isFinite(ds.QueueMedian) || ds.QueueMedian <= 0 {
			return nil, nil, specErrorf("fleet: device %q needs queue_median > 0, got %g", name, ds.QueueMedian)
		}
		if !isFinite(ds.Exec) || ds.Exec <= 0 {
			return nil, nil, specErrorf("fleet: device %q needs exec > 0, got %g", name, ds.Exec)
		}
		if !isFinite(ds.FailureProb) || ds.FailureProb < 0 || ds.FailureProb >= 1 {
			return nil, nil, specErrorf("fleet: device %q failure_prob %g out of [0,1)", name, ds.FailureProb)
		}
		scenario := shared
		if ds.Scenario != nil {
			own, err := buildScenario(ds.Scenario, fmt.Sprintf("fleet: device %q", name), seed+1789+int64(i+1))
			if err != nil {
				return nil, nil, err
			}
			if scenario != nil {
				scenario = qpu.Compose(shared, own)
			} else {
				scenario = own
			}
		}
		devices[i] = qpu.Device{
			Name: name,
			Eval: eval,
			Latency: qpu.LatencyModel{
				QueueMedian: ds.QueueMedian,
				Sigma:       ds.Sigma,
				Exec:        ds.Exec,
				TailProb:    ds.TailProb,
				TailFactor:  ds.TailFactor,
			},
			FailureProb: ds.FailureProb,
			Scenario:    scenario,
		}
	}
	thresholds := fs.Thresholds
	if thresholds == nil {
		thresholds = []float64{0.5, 0.75}
	}
	opts := &fleet.Options{
		Seed:         seed,
		Thresholds:   thresholds,
		KeepFraction: fs.KeepFraction,
		RiskAware:    fs.RiskAware,
	}
	// Dry-build a scheduler so every option and latency-model rejection
	// surfaces at submission as a 400, not at run time.
	if _, err := fleet.New(*opts, devices...); err != nil {
		return nil, nil, &specError{msg: err.Error()}
	}
	return devices, opts, nil
}

// decodeSpec reads one job spec, rejecting unknown fields. Defaults are
// applied and the spec validated afterwards, by buildJob.
func decodeSpec(r io.Reader) (*JobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	spec := new(JobSpec)
	return spec, dec.Decode(spec)
}

// buildJob validates a spec against the server limits and assembles the
// executable job. All validation errors are *specError (HTTP 400).
func buildJob(spec *JobSpec, cfg Config) (*builtJob, error) {
	spec.normalize()
	prob, err := buildProblem(spec.Problem)
	if err != nil {
		return nil, err
	}
	eval, err := buildEvaluator(spec.Backend, prob, cfg.MaxQubits)
	if err != nil {
		return nil, err
	}
	grid, err := buildGrid(spec.Grid, cfg.MaxGridPoints)
	if err != nil {
		return nil, err
	}
	if want := eval.NumParams(); len(grid.Axes) != want {
		return nil, specErrorf("grid: %d axes but backend %q expects %d parameters",
			len(grid.Axes), eval.Name(), want)
	}
	if f := spec.Options.SamplingFraction; f <= 0 || f > 1 || math.IsNaN(f) {
		return nil, specErrorf("options: sampling_fraction %g out of (0,1]", f)
	}
	solver, err := buildSolver(spec.Options.Solver)
	if err != nil {
		return nil, err
	}
	key, err := json.Marshal(struct {
		Problem ProblemSpec `json:"problem"`
		Backend BackendSpec `json:"backend"`
	}{spec.Problem, spec.Backend})
	if err != nil {
		return nil, err
	}
	built := &builtJob{
		grid: grid,
		eval: exec.FromEvaluator(eval),
		opts: core.Options{
			SamplingFraction: spec.Options.SamplingFraction,
			Seed:             spec.Options.Seed,
			Stratified:       spec.Options.Stratified,
			Solver:           solver,
		},
		cacheable: spec.Backend.Shots == 0,
		configKey: string(key),
		qubits:    prob.N(),
	}
	if spec.Fleet != nil {
		built.fleetDevices, built.fleetOpts, err = buildFleet(spec.Fleet, eval, spec.Options.Seed)
		if err != nil {
			return nil, err
		}
	}
	return built, nil
}

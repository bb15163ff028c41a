// Package backend provides cost-function evaluators: the bridge between a
// (problem, ansatz, noise profile, shot budget) configuration and the
// scalar-valued cost function whose landscape OSCAR reconstructs. Evaluators
// stand in for QPUs; the qpu package adds queuing/latency behavior on top.
package backend

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ansatz"
	"repro/internal/noise"
	"repro/internal/pauli"
	"repro/internal/problem"
	"repro/internal/qaoa"
	"repro/internal/qsim"
	"repro/internal/shard"
)

// Evaluator computes the VQA cost at a parameter vector. Implementations
// must be safe for concurrent use.
type Evaluator interface {
	// Name identifies the evaluator in experiment output.
	Name() string
	// NumParams reports the expected parameter arity.
	NumParams() int
	// Evaluate returns the cost <H> at params.
	Evaluate(params []float64) (float64, error)
}

// batchEvaluator mirrors exec.BatchEvaluator structurally (backend cannot
// import exec — exec imports backend) so wrappers can forward whole batches
// to an inner evaluator's native batch path.
type batchEvaluator interface {
	EvaluateBatch(ctx context.Context, params [][]float64) ([]float64, error)
}

// evaluateBatch runs a batch on e, using its native batch implementation
// when present and otherwise looping with ctx checks.
func evaluateBatch(ctx context.Context, e Evaluator, params [][]float64) ([]float64, error) {
	if b, ok := e.(batchEvaluator); ok {
		return b.EvaluateBatch(ctx, params)
	}
	return evalPointwise(ctx, e.Evaluate, params)
}

// evalPointwise is the shared batch fallback: evaluate each point in order,
// checking ctx between points.
func evalPointwise(ctx context.Context, eval func([]float64) (float64, error), params [][]float64) ([]float64, error) {
	out := make([]float64, len(params))
	for i, p := range params {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		v, err := eval(p)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// shardRange runs fn over contiguous shards of [0, n) on a shard.Group,
// split on the same fixed i*n/w boundaries as shard.ForRange, adding the
// error and cancellation handling batch evaluation needs: fn owns [lo, hi)
// exclusively, must honor ctx, and the first error or panic cancels the
// remaining shards and is returned. Serial budgets run fn inline.
func shardRange(ctx context.Context, workers, n int, fn func(ctx context.Context, lo, hi int) error) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers <= 1 || n <= 1 {
		return fn(ctx, 0, n)
	}
	if workers > n {
		workers = n
	}
	g, cctx := shard.WithContext(ctx)
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		g.Go(func() error { return fn(cctx, lo, hi) })
	}
	return g.Wait()
}

// StateVector is the exact (infinite-shot) ideal evaluator. It re-runs the
// ansatz circuit into pooled scratch states (zero allocations per point in
// steady state) and, for diagonal Hamiltonians (MaxCut, SK), evaluates the
// cost as one fused |amp|^2 * E pass over the problem's precomputed energy
// table instead of one full-state pass per Hamiltonian term.
//
// The circuit itself is run through qsim's diagonal-fusion pass at
// construction (see Circuit.FuseDiagonals): every QAOA cost layer becomes
// one O(2^n) phase-table sweep instead of one kernel sweep per edge, and —
// because FuseDiagonals is memoized on the circuit and the pass interns
// tables by content — all evaluators sharing the ansatz, all p layers, and
// every gamma on a landscape grid share the same table.
//
// When the fused circuit and the energy table are both symmetric under
// flipping every bit (QAOA on MaxCut or SK), points run on qsim's half-state
// path: 2^(n-1) amplitudes per scratch state, bit-identical energies.
type StateVector struct {
	name    string
	prob    *problem.Problem
	ans     *ansatz.Ansatz
	circ    *qsim.Circuit    // diagonal-fused ansatz circuit
	diag    []float64        // cached diagonal energy table; nil for off-diagonal H
	half    *qsim.HalfEnergy // flip-symmetric half-state path; nil runs the full state
	workers int
	pool    sync.Pool // *qsim.State scratch, one live per concurrent shard
	poolN   int       // qubits per scratch state: n, or n-1 on the half path
}

// NewStateVector builds an exact evaluator for an ansatz on a problem.
func NewStateVector(p *problem.Problem, a *ansatz.Ansatz) (*StateVector, error) {
	if p.N() != a.Circuit.N() {
		return nil, fmt.Errorf("backend: %d-qubit ansatz for %d-qubit problem", a.Circuit.N(), p.N())
	}
	e := &StateVector{
		name:    fmt.Sprintf("sv(%s,%s)", p.Name, a.Name),
		prob:    p,
		ans:     a,
		circ:    a.Circuit.FuseDiagonals(),
		workers: 1,
	}
	if p.Hamiltonian.IsDiagonal() {
		diag, err := p.DiagonalTable()
		if err != nil {
			return nil, err
		}
		e.diag = diag
		e.half, _ = qsim.NewHalfEnergy(e.circ, diag)
	}
	e.poolN = a.Circuit.N()
	if e.half != nil {
		e.poolN = e.half.N()
	}
	e.pool.New = func() any { return qsim.NewState(e.poolN) }
	return e, nil
}

// Name implements Evaluator.
func (e *StateVector) Name() string { return e.name }

// NumParams implements Evaluator.
func (e *StateVector) NumParams() int { return e.ans.NumParams }

// SetWorkers sets the worker budget for direct EvaluateBatch calls
// (0 = GOMAXPROCS; the constructor default of 1 runs points serially, which
// is right when an exec.Engine already fans chunks out across workers).
// Large batches shard deterministically across points; batches smaller than
// the budget instead shard each point's gate kernels over their amplitude
// ranges. Both layouts are bit-identical to a serial run. Returns e.
func (e *StateVector) SetWorkers(w int) *StateVector {
	e.workers = w
	return e
}

// resolveWorkers maps the configured budget onto a batch of n points,
// returning the point-level and kernel-level worker counts. Batches smaller
// than the budget hand the whole budget to amplitude-level kernel sharding
// instead — but only when the evaluator's states are big enough for that to
// engage (kernelShardable); otherwise the budget stays at the point level,
// clamped to the batch.
func resolveWorkers(configured, n int, kernelShardable bool) (points, kernels int) {
	w := configured
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if n >= w || !kernelShardable {
		if w > n && n > 0 {
			w = n
		}
		return w, 1
	}
	return 1, w
}

// evaluateInto runs the circuit into the reused scratch state and measures
// the cost, allocating nothing.
func (e *StateVector) evaluateInto(s *qsim.State, params []float64) (float64, error) {
	if e.half != nil {
		return e.half.Energy(s, params)
	}
	if err := qsim.RunInto(s, e.circ, params); err != nil {
		return 0, err
	}
	if e.diag != nil {
		return s.ExpectationDiagonal(e.diag)
	}
	return s.Expectation(e.prob.Hamiltonian)
}

// Evaluate implements Evaluator.
func (e *StateVector) Evaluate(params []float64) (float64, error) {
	s := e.pool.Get().(*qsim.State)
	defer e.pool.Put(s)
	return e.evaluateInto(s.SetWorkers(1), params)
}

// EvaluateBatch implements exec.BatchEvaluator natively: deterministic
// contiguous shards across the batch, one pooled scratch state per shard,
// ctx checked between points. Values are bit-identical to point-at-a-time
// Evaluate for every worker count.
func (e *StateVector) EvaluateBatch(ctx context.Context, params [][]float64) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]float64, len(params))
	pw, kw := resolveWorkers(e.workers, len(params), qsim.KernelShardable(e.poolN))
	err := shardRange(ctx, pw, len(params), func(ctx context.Context, lo, hi int) error {
		s := e.pool.Get().(*qsim.State)
		defer e.pool.Put(s)
		s.SetWorkers(kw)
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			v, err := e.evaluateInto(s, params[i])
			if err != nil {
				return err
			}
			out[i] = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Density is the exact noisy evaluator: density-matrix simulation with
// per-gate depolarizing channels and readout error. Cost is 4^n, so it is
// reserved for small problems (n <= 13); larger noisy landscapes use the
// analytic damping model. Like StateVector, it re-runs circuits into pooled
// density matrices whose 4^n buffers (state plus channel scratch) are reused
// across every point, and evaluates diagonal Hamiltonians against the
// problem's cached energy table.
type Density struct {
	name    string
	prob    *problem.Problem
	ans     *ansatz.Ansatz
	circ    *qsim.Circuit // ansatz circuit, fused only when gate noise is off
	profile noise.Profile
	hook    func(d *qsim.DensityMatrix, g qsim.Gate) error
	diag    []float64 // cached diagonal energy table; nil for off-diagonal H
	workers int
	pool    sync.Pool // *qsim.DensityMatrix scratch
}

// NewDensity builds an exact noisy evaluator.
//
// Diagonal fusion applies only when the profile's gate-error rates are zero:
// the depolarizing channels are defined per physical gate, so collapsing a
// cost layer would change the noise model. Readout error attaches at
// measurement and does not block fusion.
func NewDensity(p *problem.Problem, a *ansatz.Ansatz, prof noise.Profile) (*Density, error) {
	if p.N() != a.Circuit.N() {
		return nil, fmt.Errorf("backend: %d-qubit ansatz for %d-qubit problem", a.Circuit.N(), p.N())
	}
	if p.N() > 13 {
		return nil, fmt.Errorf("backend: density-matrix evaluator limited to 13 qubits, got %d", p.N())
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	e := &Density{
		name:    fmt.Sprintf("dm(%s,%s,%s)", p.Name, a.Name, prof.Name),
		prob:    p,
		ans:     a,
		circ:    a.Circuit,
		profile: prof,
		workers: 1,
	}
	if prof.P1 == 0 && prof.P2 == 0 {
		e.circ = a.Circuit.FuseDiagonals()
	}
	if p.Hamiltonian.IsDiagonal() {
		diag, err := p.DiagonalTable()
		if err != nil {
			return nil, err
		}
		e.diag = diag
	}
	e.hook = func(d *qsim.DensityMatrix, g qsim.Gate) error {
		switch len(g.Qubits) {
		case 1:
			return d.Depolarize1Q(g.Qubits[0], prof.P1)
		case 2:
			return d.Depolarize2Q(g.Qubits[0], g.Qubits[1], prof.P2)
		default:
			// Pauli rotations: depolarize every touched qubit.
			for q := 0; q < g.Pauli.N(); q++ {
				if g.Pauli.At(q) != pauli.I {
					if err := d.Depolarize1Q(q, prof.P1); err != nil {
						return err
					}
				}
			}
			return nil
		}
	}
	n := a.Circuit.N()
	e.pool.New = func() any { return qsim.NewDensityMatrix(n) }
	return e, nil
}

// Name implements Evaluator.
func (e *Density) Name() string { return e.name }

// NumParams implements Evaluator.
func (e *Density) NumParams() int { return e.ans.NumParams }

// Profile returns the evaluator's noise profile.
func (e *Density) Profile() noise.Profile { return e.profile }

// SetWorkers sets the worker budget for direct EvaluateBatch calls
// (0 = GOMAXPROCS, constructor default 1); see StateVector.SetWorkers.
func (e *Density) SetWorkers(w int) *Density {
	e.workers = w
	return e
}

// evaluateInto runs the noisy circuit into the reused density matrix and
// measures the cost.
func (e *Density) evaluateInto(dm *qsim.DensityMatrix, params []float64) (float64, error) {
	prof := e.profile
	if err := qsim.RunDensityInto(dm, e.circ, params, e.hook); err != nil {
		return 0, err
	}
	if prof.Readout01 == 0 && prof.Readout10 == 0 {
		if e.diag != nil {
			return dm.ExpectationDiagonal(e.diag)
		}
		return dm.Expectation(e.prob.Hamiltonian)
	}
	if e.diag != nil {
		probs, err := qsim.ApplyReadoutError(dm.Probabilities(), e.prob.N(), prof.Readout01, prof.Readout10)
		if err != nil {
			return 0, err
		}
		return qsim.ExpectationFromDistributionTable(e.diag, probs)
	}
	// Off-diagonal Hamiltonians: apply the standard per-qubit Z damping of
	// the confusion matrix to each term's expectation.
	ro := 1 - prof.Readout01 - prof.Readout10
	var total float64
	for _, t := range e.prob.Hamiltonian.Terms() {
		v, err := dm.ExpectationPauli(t.P)
		if err != nil {
			return 0, err
		}
		total += t.Coeff * v * math.Pow(ro, float64(t.P.Weight()))
	}
	return total, nil
}

// Evaluate implements Evaluator.
func (e *Density) Evaluate(params []float64) (float64, error) {
	dm := e.pool.Get().(*qsim.DensityMatrix)
	defer e.pool.Put(dm)
	return e.evaluateInto(dm, params)
}

// EvaluateBatch implements exec.BatchEvaluator natively. Density-matrix
// evaluations are the heaviest per-point cost in the repo (4^n state), so
// mid-batch cancellation matters most here: ctx is checked between points
// in every shard.
func (e *Density) EvaluateBatch(ctx context.Context, params [][]float64) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]float64, len(params))
	// Density matrices have no amplitude-level sharding, so the budget
	// always applies at the point level.
	pw, _ := resolveWorkers(e.workers, len(params), false)
	err := shardRange(ctx, pw, len(params), func(ctx context.Context, lo, hi int) error {
		dm := e.pool.Get().(*qsim.DensityMatrix)
		defer e.pool.Put(dm)
		for i := lo; i < hi; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			v, err := e.evaluateInto(dm, params[i])
			if err != nil {
				return err
			}
			out[i] = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AnalyticQAOA evaluates depth-1 QAOA cut costs through the closed-form
// engine, optionally with analytic depolarizing damping. It makes the
// paper's 16-30 qubit landscapes cheap.
type AnalyticQAOA struct {
	name   string
	engine *qaoa.Engine
	damp   []float64 // nil for ideal

	// gammaCache memoizes the beta-independent factors per gamma for the
	// batch path: grid batches revisit each gamma once per beta row, so
	// the O(|E|*n) neighbor products are paid once per gamma instead of
	// once per point. Keys are float bits; the size cap keeps pathological
	// workloads (optimizers wandering through fresh gammas) bounded.
	gammaCache sync.Map
	gammaLen   atomic.Int64
}

// maxGammaEntries bounds the gamma-factor cache (a Table 1 grid needs 100).
const maxGammaEntries = 4096

// NewAnalyticQAOA builds the analytic evaluator for a cut problem. The
// profile's depolarizing rates are folded into per-edge damping factors;
// pass noise.Ideal() for exact ideal expectations.
func NewAnalyticQAOA(p *problem.Problem, prof noise.Profile) (*AnalyticQAOA, error) {
	if p.Graph == nil {
		return nil, fmt.Errorf("backend: analytic evaluator needs a graph problem")
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	en, err := qaoa.NewEngine(p.Graph)
	if err != nil {
		return nil, err
	}
	var damp []float64
	if !prof.IsIdeal() {
		damp = noise.EdgeDampingFactors(p.Graph, prof)
	}
	return &AnalyticQAOA{
		name:   fmt.Sprintf("analytic(%s,%s)", p.Name, prof.Name),
		engine: en,
		damp:   damp,
	}, nil
}

// Name implements Evaluator.
func (e *AnalyticQAOA) Name() string { return e.name }

// NumParams implements Evaluator: depth-1 QAOA has (beta, gamma).
func (e *AnalyticQAOA) NumParams() int { return 2 }

// Evaluate implements Evaluator. params = [beta, gamma].
func (e *AnalyticQAOA) Evaluate(params []float64) (float64, error) {
	if len(params) < 2 {
		return 0, fmt.Errorf("backend: analytic QAOA needs [beta, gamma], got %d params", len(params))
	}
	return e.engine.Cost(params[0], params[1], e.damp), nil
}

// gammaFactors returns the memoized beta-independent factors at gamma.
func (e *AnalyticQAOA) gammaFactors(gamma float64) *qaoa.GammaFactors {
	key := math.Float64bits(gamma)
	if v, ok := e.gammaCache.Load(key); ok {
		return v.(*qaoa.GammaFactors)
	}
	gf := e.engine.Gamma(gamma)
	if e.gammaLen.Load() < maxGammaEntries {
		if _, loaded := e.gammaCache.LoadOrStore(key, gf); !loaded {
			e.gammaLen.Add(1)
		}
	}
	return gf
}

// EvaluateBatch implements exec.BatchEvaluator natively: the per-gamma
// neighbor products are computed once and shared across every beta in the
// batch (and across batches), so a grid scan costs O(|E|) per point instead
// of O(|E|*n) — the fast path for the paper's 16-30 qubit landscape sweeps.
// Values are bit-identical to Evaluate.
func (e *AnalyticQAOA) EvaluateBatch(ctx context.Context, params [][]float64) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]float64, len(params))
	for i, p := range params {
		if len(p) < 2 {
			return nil, fmt.Errorf("backend: analytic QAOA needs [beta, gamma], got %d params", len(p))
		}
		out[i] = e.engine.CostAt(p[0], e.gammaFactors(p[1]), e.damp)
	}
	return out, nil
}

// WithShots wraps an evaluator with finite-shot sampling noise: Gaussian
// noise with standard deviation spread/sqrt(shots), the leading-order
// statistics of averaging `shots` measurement outcomes. spread should be the
// per-shot standard deviation scale of the cost observable (callers can use
// ShotSpread for Hamiltonians).
//
// Sampling is seeded, thread-safe, and lock-free. Point-at-a-time Evaluate
// calls draw from per-call RNG streams derived from (seed, call number) via
// an atomic counter, so parallel samplers never serialize on a shared lock.
// EvaluateBatch instead derives each point's stream from (seed, epoch,
// params): within an epoch the noise is a pure function of the point, which
// makes batched landscapes bit-reproducible across worker counts and
// chunkings and keeps the memoizing execution cache semantically sound —
// but it also means re-running the same batch returns identical values.
// Callers that repeat sweeps to average shot noise must call Resample
// between sweeps to advance the epoch (and must not reuse a cache across
// epochs). The two paths use different streams: for the same seed, Evaluate
// and EvaluateBatch produce different (equally distributed) noise.
type WithShots struct {
	inner  Evaluator
	shots  int
	spread float64
	seed   int64
	calls  atomic.Uint64
	epoch  atomic.Uint64
}

// NewWithShots wraps inner with shot noise. See the WithShots type comment
// for the determinism contract of the point and batch paths.
func NewWithShots(inner Evaluator, shots int, spread float64, seed int64) (*WithShots, error) {
	if shots <= 0 {
		return nil, fmt.Errorf("backend: shots must be positive, got %d", shots)
	}
	if spread < 0 {
		return nil, fmt.Errorf("backend: negative spread %g", spread)
	}
	return &WithShots{
		inner:  inner,
		shots:  shots,
		spread: spread,
		seed:   seed,
	}, nil
}

// Name implements Evaluator.
func (e *WithShots) Name() string { return fmt.Sprintf("%s@%dshots", e.inner.Name(), e.shots) }

// NumParams implements Evaluator.
func (e *WithShots) NumParams() int { return e.inner.NumParams() }

// splitmix64 is the SplitMix64 finalizer, used to whiten derived seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// noiseAt draws one standard normal from the stream derived from e.seed and
// a stream discriminator, via Box-Muller on two splitmix64 outputs — a few
// integer mixes per draw, so the lock-free path stays cheaper than the
// evaluation it decorates.
func (e *WithShots) noiseAt(stream uint64) float64 {
	s := splitmix64(uint64(e.seed) ^ splitmix64(stream))
	// Uniforms in (0,1]: the +1 keeps u1 away from log(0).
	u1 := float64(splitmix64(s)>>11+1) / (1 << 53)
	u2 := float64(splitmix64(s+0x9e3779b97f4a7c15)>>11) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// paramStream hashes a parameter vector into a stream discriminator.
func paramStream(params []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range params {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Evaluate implements Evaluator: independent noise per call, lock-free.
func (e *WithShots) Evaluate(params []float64) (float64, error) {
	v, err := e.inner.Evaluate(params)
	if err != nil {
		return 0, err
	}
	g := e.noiseAt(e.calls.Add(1))
	return v + g*e.spread/math.Sqrt(float64(e.shots)), nil
}

// Resample advances the batch noise epoch: subsequent EvaluateBatch calls
// draw fresh (still deterministic) noise for every point. Use it between
// repeated sweeps that average shot noise.
func (e *WithShots) Resample() { e.epoch.Add(1) }

// EvaluateBatch implements exec.BatchEvaluator: the inner evaluator runs the
// whole batch (natively when it can), then each point receives noise from
// its (epoch, params)-derived stream — deterministic however the batch is
// chunked; call Resample to redraw.
func (e *WithShots) EvaluateBatch(ctx context.Context, params [][]float64) ([]float64, error) {
	vs, err := evaluateBatch(ctx, e.inner, params)
	if err != nil {
		return nil, err
	}
	scale := e.spread / math.Sqrt(float64(e.shots))
	ep := splitmix64(e.epoch.Load())
	for i, p := range params {
		vs[i] += e.noiseAt(ep^paramStream(p)) * scale
	}
	return vs, nil
}

// ShotSpread estimates the per-shot standard deviation scale of a
// Hamiltonian: the root-sum-square of non-identity coefficients, the
// worst-case single-shot variance of a Pauli-sum estimate.
func ShotSpread(h *pauli.Hamiltonian) float64 {
	var s float64
	for _, t := range h.Terms() {
		if t.P.Weight() > 0 {
			s += t.Coeff * t.Coeff
		}
	}
	return math.Sqrt(s)
}

// Counting wraps an evaluator and counts queries — used to reproduce the
// QPU-query accounting of Table 6. The counter is a single atomic, so heavy
// parallel sampling never contends on a lock.
//
// Count reports *submitted* evaluations: a point counts when Evaluate is
// called and a batch counts all its points when the batch job is submitted,
// whether or not execution completes — the same budget a QPU queue charges.
// Both entry points therefore agree for identical submitted work.
type Counting struct {
	inner Evaluator
	n     atomic.Int64
}

// NewCounting wraps inner with a query counter.
func NewCounting(inner Evaluator) *Counting { return &Counting{inner: inner} }

// Name implements Evaluator.
func (e *Counting) Name() string { return e.inner.Name() }

// NumParams implements Evaluator.
func (e *Counting) NumParams() int { return e.inner.NumParams() }

// Evaluate implements Evaluator.
func (e *Counting) Evaluate(params []float64) (float64, error) {
	e.n.Add(1)
	return e.inner.Evaluate(params)
}

// EvaluateBatch implements exec.BatchEvaluator: one atomic add for the whole
// batch, forwarding to the inner evaluator's native batch path when present.
func (e *Counting) EvaluateBatch(ctx context.Context, params [][]float64) ([]float64, error) {
	e.n.Add(int64(len(params)))
	return evaluateBatch(ctx, e.inner, params)
}

// Count returns the number of submitted evaluations so far (batch points
// included; see the type comment for the submission semantics).
func (e *Counting) Count() int { return int(e.n.Load()) }

// Reset zeroes the counter.
func (e *Counting) Reset() { e.n.Store(0) }

// Func adapts a plain function into an Evaluator.
type Func struct {
	Label  string
	Params int
	F      func(params []float64) (float64, error)
	// BatchF optionally provides a native batch implementation.
	BatchF func(ctx context.Context, params [][]float64) ([]float64, error)
}

// Name implements Evaluator.
func (e *Func) Name() string { return e.Label }

// NumParams implements Evaluator.
func (e *Func) NumParams() int { return e.Params }

// Evaluate implements Evaluator.
func (e *Func) Evaluate(params []float64) (float64, error) { return e.F(params) }

// EvaluateBatch implements exec.BatchEvaluator, preferring BatchF.
func (e *Func) EvaluateBatch(ctx context.Context, params [][]float64) ([]float64, error) {
	if e.BatchF != nil {
		return e.BatchF(ctx, params)
	}
	return evalPointwise(ctx, e.F, params)
}

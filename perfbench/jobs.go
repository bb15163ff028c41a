package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/ansatz"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/noise"
	"repro/internal/problem"
	"repro/internal/service"
)

// jobWorkload describes one job workload: the job every op submits (only
// the seeds change from op to op), how oscard is started, and the per-op
// correctness thresholds.
type jobWorkload struct {
	name     string
	qubits   int
	depth    int
	grid     service.GridSpec
	fraction float64
	fleet    bool
	// jobWorkers is oscard's -job-workers (0 = one per CPU).
	jobWorkers int
	// samples is the number of circuits every job must report.
	samples int
	// metricOps is how many leading timed ops nrmse (and the fleet's
	// virtual makespan) are reported over, and after how many peak RSS is
	// read; the timed phase always runs at least this many, so these
	// figures depend on the seed, not on how fast the machine was.
	metricOps int
	// spotChecks, when positive, takes the dense truth behind nrmse from
	// the p=1 analytic evaluator after checking it against the statevector
	// backend on this many points the job never sampled.
	spotChecks int
	// maxNRMSE fails an op whose reconstruction error exceeds it.
	maxNRMSE float64
}

var svCold = &jobWorkload{
	name:       "sv-cold",
	qubits:     16,
	depth:      1,
	grid:       service.GridSpec{BetaN: 50, GammaN: 100},
	fraction:   0.1,
	samples:    500,
	metricOps:  8,
	spotChecks: 16,
	maxNRMSE:   0.1,
}

var fleetP2 = &jobWorkload{
	name:       "fleet-p2",
	qubits:     10,
	depth:      2,
	grid:       service.GridSpec{BetaN: 8, GammaN: 8, P: 2},
	fraction:   0.2,
	fleet:      true,
	jobWorkers: 1,
	samples:    819,
	metricOps:  12,
	maxNRMSE:   0.25,
}

// fleetDevices is the 3-device fleet of fleet-p2: one device with a heavy
// latency tail, one slow device, and one that fails submissions at random
// and goes dark for a while.
func fleetDevices() []service.FleetDeviceSpec {
	return []service.FleetDeviceSpec{
		{Name: "tail", QueueMedian: 20, Sigma: 0.5, Exec: 0.5, TailProb: 0.1, TailFactor: 10},
		{Name: "slow", QueueMedian: 60, Sigma: 0.3, Exec: 2},
		{Name: "flaky", QueueMedian: 15, Sigma: 0.5, Exec: 0.6, FailureProb: 0.15,
			Scenario: &service.ScenarioSpec{Kind: "dropout", Start: 60, Duration: 240}},
	}
}

func (w *jobWorkload) serverArgs(nproc int) []string {
	workers := w.jobWorkers
	if workers == 0 {
		workers = nproc
	}
	return []string{"-job-workers", fmt.Sprint(workers), "-jobs", "1"}
}

// jobOp is one job of the op list.
type jobOp struct {
	spec service.JobSpec
	body []byte
}

// jobOps generates the workload's op list from the seed: a warm-up job and
// count timed jobs, every one on its own problem seed so oscard's execution
// cache never serves a point.
func (w *jobWorkload) jobOps(seed int64, count int) (warm jobOp, ops []jobOp) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(len(w.name))))
	base := 1 + rng.Int63n(1<<40)
	mk := func(i int) jobOp {
		spec := service.JobSpec{
			Problem: service.ProblemSpec{Kind: "maxcut3", N: w.qubits, Seed: base + int64(i)},
			Backend: service.BackendSpec{Kind: "statevector", Ansatz: "qaoa", Depth: w.depth},
			Grid:    w.grid,
			Options: service.OptionsSpec{SamplingFraction: w.fraction, Seed: 1 + rng.Int63n(1<<31)},
			Wait:    true,
		}
		if w.fleet {
			spec.Fleet = &service.FleetSpec{Devices: fleetDevices(), Seed: 1 + rng.Int63n(1<<31), RiskAware: true}
		}
		body, err := json.Marshal(spec)
		if err != nil {
			panic(err)
		}
		return jobOp{spec: spec, body: body}
	}
	warm = mk(0)
	ops = make([]jobOp, count)
	for i := range ops {
		ops[i] = mk(i + 1)
	}
	return warm, ops
}

// jobReply is the part of oscard's job answer the benchmark checks.
type jobReply struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		GridSize         int      `json:"grid_size"`
		Samples          int      `json:"samples"`
		SolverIterations int      `json:"solver_iterations"`
		Min              *float64 `json:"min"`
		Max              *float64 `json:"max"`
		CacheHits        int64    `json:"cache_hits"`
		ArtifactID       string   `json:"artifact_id"`
		Fleet            *struct {
			Makespan         float64           `json:"makespan_s"`
			Retries          int               `json:"retries"`
			Batches          int               `json:"batches"`
			Solves           int               `json:"solves"`
			QuarantineEvents []json.RawMessage `json:"quarantine_events"`
		} `json:"fleet"`
	} `json:"result"`
}

// checkJob is the per-op gate on a served job: a failed check makes the op
// failed, however fast it was.
func (w *jobWorkload) checkJob(status int, r *jobReply) error {
	switch {
	case status != 200:
		return fmt.Errorf("HTTP %d: %s", status, r.Error)
	case r.State != "done":
		return fmt.Errorf("state %q: %s", r.State, r.Error)
	case r.Result == nil:
		return errors.New("no result")
	}
	res := r.Result
	switch {
	case res.Samples != w.samples:
		return fmt.Errorf("%d samples, want %d", res.Samples, w.samples)
	case res.CacheHits != 0:
		return fmt.Errorf("%d execution-cache hits on a fresh problem", res.CacheHits)
	case res.Min == nil || res.Max == nil || math.IsInf(*res.Min, 0) || math.IsInf(*res.Max, 0) || *res.Min > *res.Max:
		return errors.New("reconstruction has no finite min/max")
	case res.ArtifactID == "":
		return errors.New("no artifact published")
	case w.fleet && res.Fleet == nil:
		return errors.New("fleet job without a fleet summary")
	}
	return nil
}

// submit runs one op against oscard and gates its reply.
func (w *jobWorkload) submit(s *server, op jobOp) (*jobReply, error) {
	var r jobReply
	status, err := s.post("/jobs", op.body, &r)
	if err != nil {
		return nil, err
	}
	return &r, w.checkJob(status, &r)
}

// jobParts is the in-process twin of what oscard builds for a job spec.
type jobParts struct {
	grid *landscape.Grid
	prob *problem.Problem
	ans  *ansatz.Ansatz
	sv   *backend.StateVector
}

func buildParts(spec *service.JobSpec) (*jobParts, error) {
	prob, err := problem.Random3RegularMaxCut(spec.Problem.N, rand.New(rand.NewSource(spec.Problem.Seed)))
	if err != nil {
		return nil, err
	}
	ans, err := ansatz.QAOA(prob.Graph, spec.Backend.Depth)
	if err != nil {
		return nil, err
	}
	sv, err := backend.NewStateVector(prob, ans)
	if err != nil {
		return nil, err
	}
	grid, err := qaoaGrid(spec.Grid)
	if err != nil {
		return nil, err
	}
	return &jobParts{grid: grid, prob: prob, ans: ans, sv: sv}, nil
}

// qaoaGrid builds the QAOA shorthand grid exactly as oscard does: (beta,
// gamma) at p=1, beta1..betap then gamma1..gammap above.
func qaoaGrid(gs service.GridSpec) (*landscape.Grid, error) {
	p := max(gs.P, 1)
	bMin, bMax, gMin, gMax := ansatz.QAOAGridAxes(p)
	if p == 1 {
		return landscape.NewGrid(
			landscape.Axis{Name: "beta", Min: bMin, Max: bMax, N: gs.BetaN},
			landscape.Axis{Name: "gamma", Min: gMin, Max: gMax, N: gs.GammaN})
	}
	var axes []landscape.Axis
	for i := 1; i <= p; i++ {
		axes = append(axes, landscape.Axis{Name: fmt.Sprintf("beta%d", i), Min: bMin, Max: bMax, N: gs.BetaN})
	}
	for i := 1; i <= p; i++ {
		axes = append(axes, landscape.Axis{Name: fmt.Sprintf("gamma%d", i), Min: gMin, Max: gMax, N: gs.GammaN})
	}
	return landscape.NewGrid(axes...)
}

// nrmse measures a served reconstruction on the dense grid against the
// backend evaluated directly in this process. At p=1 the dense truth comes
// from the closed-form analytic evaluator, which must agree with the
// statevector backend on spotChecks seeded points the job never sampled;
// deeper circuits run the statevector backend on every grid point.
func (w *jobWorkload) nrmse(s *server, op jobOp, artifactID string, nproc int) (float64, error) {
	var grid struct {
		Data []*float64 `json:"data"`
	}
	if status, err := s.get("/landscapes/"+artifactID+"/grid", &grid); err != nil || status != 200 {
		return 0, fmt.Errorf("fetching artifact %s: HTTP %d %v", artifactID, status, err)
	}
	parts, err := buildParts(&op.spec)
	if err != nil {
		return 0, err
	}
	if len(grid.Data) != parts.grid.Size() {
		return 0, fmt.Errorf("artifact has %d values, grid %d", len(grid.Data), parts.grid.Size())
	}
	recon := make([]float64, len(grid.Data))
	for i, v := range grid.Data {
		if v == nil {
			return 0, fmt.Errorf("artifact value %d is not finite", i)
		}
		recon[i] = *v
	}
	ctx := context.Background()
	sv := parts.sv.SetWorkers(nproc)
	if w.spotChecks == 0 {
		truth, err := sv.EvaluateBatch(ctx, parts.grid.AllPoints())
		if err != nil {
			return 0, err
		}
		return landscape.NRMSE(truth, recon)
	}
	analytic, err := backend.NewAnalyticQAOA(parts.prob, noise.Ideal())
	if err != nil {
		return 0, err
	}
	truth, err := analytic.EvaluateBatch(ctx, parts.grid.AllPoints())
	if err != nil {
		return 0, err
	}
	sampled, err := core.SampleGrid(parts.grid, op.spec.Options.SamplingFraction, op.spec.Options.Seed, false)
	if err != nil {
		return 0, err
	}
	taken := make(map[int]bool, len(sampled))
	for _, i := range sampled {
		taken[i] = true
	}
	rng := rand.New(rand.NewSource(op.spec.Problem.Seed))
	var idx []int
	for len(idx) < w.spotChecks {
		if i := rng.Intn(parts.grid.Size()); !taken[i] {
			taken[i] = true
			idx = append(idx, i)
		}
	}
	direct, err := sv.EvaluateBatch(ctx, parts.grid.Points(idx))
	if err != nil {
		return 0, err
	}
	for k, i := range idx {
		if math.Abs(direct[k]-truth[i]) > 1e-9*(1+math.Abs(direct[k])) {
			return 0, fmt.Errorf("analytic truth %v disagrees with the statevector backend %v at grid point %d", truth[i], direct[k], i)
		}
	}
	return landscape.NRMSE(truth, recon)
}

// servedOp is one timed op as the client saw it.
type servedOp struct {
	op      jobOp
	latency time.Duration
	reply   *jobReply
	err     error
}

// setupJobServer boots oscard boots times, each time up to the end of one
// discarded warm-up job, and keeps the last server running. It returns the
// set-up time of each boot and the warm-up replies with their gate errors;
// only a warm-up that got no reply at all aborts the run.
func (w *jobWorkload) setupJobServer(c *runConfig, warm jobOp, boots int, extra ...string) (*server, []float64, []*jobReply, []error, error) {
	var setups []float64
	var replies []*jobReply
	var gates []error
	for k := 0; k < boots; k++ {
		t0 := time.Now()
		s, _, err := startServer(c.oscard, c.workdir, append(w.serverArgs(c.nproc), extra...)...)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		r, err := w.submit(s, warm)
		setups = append(setups, time.Since(t0).Seconds())
		if r == nil {
			s.stop()
			return nil, nil, nil, nil, fmt.Errorf("warm-up job: %w", err)
		}
		replies = append(replies, r)
		gates = append(gates, err)
		if k == boots-1 {
			return s, setups, replies, gates, nil
		}
		s.stop()
	}
	return nil, nil, nil, nil, errors.New("no boots")
}

// checkWarmUps fails the run for every warm-up job that failed its gate and
// reports whether all of them passed.
func checkWarmUps(res *result, gates []error) bool {
	ok := true
	for _, err := range gates {
		res.check(err == nil, fmt.Sprintf("warm-up job: %v", err))
		ok = ok && err == nil
	}
	return ok
}

// serveOps runs ops in a closed loop until d has passed and at least minOps
// have run. With several servers every op runs on each of them in turn,
// starting with a different server on alternate ops, so a drift in machine
// speed hits every server alike; out[k] holds server k's ops.
func (w *jobWorkload) serveOps(servers []*server, ops []jobOp, d time.Duration, minOps int) [][]servedOp {
	out := make([][]servedOp, len(servers))
	t0 := time.Now()
	for i := 0; i < len(ops) && (time.Since(t0) < d || i < minOps); i++ {
		for j := range servers {
			k := (i + j) % len(servers)
			ts := time.Now()
			r, err := w.submit(servers[k], ops[i])
			out[k] = append(out[k], servedOp{op: ops[i], latency: time.Since(ts), reply: r, err: err})
		}
	}
	return out
}

// run is an untraced run of a job workload.
func (w *jobWorkload) run(c *runConfig) (*result, error) {
	warm, ops := w.jobOps(c.seed, maxJobOps)
	s, setups, warmReplies, warmGates, err := w.setupJobServer(c, warm, setupBoots)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	before, err := s.procStat()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	served := w.serveOps([]*server{s}, ops[:w.metricOps], 0, w.metricOps)[0]
	// oscard keeps one execution cache per problem, so its footprint grows
	// with every job: peak RSS is read after a fixed number of them.
	mid, err := s.procStat()
	if err != nil {
		return nil, err
	}
	served = append(served, w.serveOps([]*server{s}, ops[w.metricOps:], c.duration-time.Since(t0), 0)[0]...)
	after, err := s.procStat()
	if err != nil {
		return nil, err
	}

	res := newResult()
	warmOK := checkWarmUps(res, warmGates)
	var lat, errs, makespans []float64
	for i, op := range served {
		res.Attempted++
		lat = append(lat, ms(op.latency))
		err := op.err
		if err == nil {
			var e float64
			if e, err = w.nrmse(s, op.op, op.reply.Result.ArtifactID, c.nproc); err == nil && i < w.metricOps {
				// An inaccurate op still reports its error here.
				errs = append(errs, e)
				if w.fleet {
					makespans = append(makespans, op.reply.Result.Fleet.Makespan)
				}
			}
			if err == nil && !(e <= w.maxNRMSE) {
				err = fmt.Errorf("nrmse %.4g above %.4g", e, w.maxNRMSE)
			}
		}
		if err != nil {
			res.fail(fmt.Sprintf("op %d: %v", i, err))
		}
	}
	if w.fleet && warmOK {
		// A fleet run is virtual-time deterministic: the same warm-up job on
		// every fresh server must land at the same makespan.
		for _, r := range warmReplies[1:] {
			res.check(r.Result.Fleet.Makespan == warmReplies[0].Result.Fleet.Makespan,
				fmt.Sprintf("virtual makespan differs across boots: %v vs %v",
					r.Result.Fleet.Makespan, warmReplies[0].Result.Fleet.Makespan))
		}
		c.note("virtual_makespan_s", median(makespans), "s")
	}
	res.set("setup_s", median(setups), "s")
	res.set("op_p50_ms", median(lat), "ms")
	res.set("cpu_ms_per_op", (after.cpuMS-before.cpuMS)/float64(len(served)), "ms")
	res.set("peak_rss_mb", mid.peakMB, "MB")
	res.set("nrmse", mean(errs), "1")
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

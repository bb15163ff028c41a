package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/cs"
	"repro/internal/dct"
	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/interp"
	"repro/internal/landscape"
	"repro/internal/obs"
	"repro/internal/qpu"
	"repro/internal/qsim"
	"repro/internal/service"
)

// The traced run reports these per-layer metrics on every workload. A layer
// a workload never calls reads 0: it cost that workload nothing.
var perLayer = []struct{ name, unit string }{
	{"backend.points", "count"},
	{"backend.us_per_point", "us"},
	{"qsim.us_per_circuit", "us"},
	{"qsim.bytes_per_point", "B"},
	{"exec.batch_ms", "ms"},
	{"exec.overhead_ms", "ms"},
	{"exec.cache_hit_ratio", "1"},
	{"core.sample_ms", "ms"},
	{"cs.solve_ms", "ms"},
	{"cs.solves", "count"},
	{"cs.iterations", "count"},
	{"cs.ms_per_iter", "ms"},
	{"dct.us_per_transform", "us"},
	{"dct.transforms_per_solve", "count"},
	{"dct.share_of_solve", "1"},
	{"fleet.plan_ms", "ms"},
	{"fleet.batches", "count"},
	{"fleet.retries", "count"},
	{"fleet.quarantines", "count"},
	{"fleet.useful_ratio", "1"},
	{"qpu.virtual_queue_s", "s"},
	{"qpu.virtual_exec_s", "s"},
	{"virtual_makespan_s", "s"},
	{"landscape.artifact_save_ms", "ms"},
	{"landscape.artifact_load_ms", "ms"},
	{"interp.fit_ms", "ms"},
	{"interp.eval_us_per_op", "us"},
	{"interp.grad_us_per_op", "us"},
	{"service.validate_ms", "ms"},
	{"service.queue_ms", "ms"},
	{"service.publish_ms", "ms"},
	{"service.http_ms", "ms"},
	{"service.total_ms", "ms"},
	{"service.lru_hit_ratio", "1"},
	{"unattributed_pct", "%"},
	{"obs.overhead_pct", "%"},
	{"span_diff.exec_pct", "%"},
	{"span_diff.cs_pct", "%"},
	{"span_diff.fleet_plan_pct", "%"},
	{"span_diff.publish_pct", "%"},
}

// layerResult copies per-layer figures into res with their units; a layer
// with no figure reads 0.
func layerResult(res *result, vals map[string]float64) *result {
	for _, m := range perLayer {
		res.set(m.name, vals[m.name], m.unit)
	}
	return res
}

// replayOps is how many served ops a traced run replays in process.
const replayOps = 3

// timedBatch wraps a backend so a replay can see how long the engine spends
// inside it: busy sums every call (across concurrent workers), first is the
// start of the earliest call.
type timedBatch struct {
	inner  *backend.StateVector
	mu     sync.Mutex
	busy   time.Duration
	points int
	first  time.Time
}

func (t *timedBatch) Name() string   { return t.inner.Name() }
func (t *timedBatch) NumParams() int { return t.inner.NumParams() }

func (t *timedBatch) Evaluate(p []float64) (float64, error) {
	v, err := t.EvaluateBatch(context.Background(), [][]float64{p})
	if err != nil {
		return 0, err
	}
	return v[0], nil
}

func (t *timedBatch) EvaluateBatch(ctx context.Context, params [][]float64) ([]float64, error) {
	t0 := time.Now()
	v, err := t.inner.EvaluateBatch(ctx, params)
	d := time.Since(t0)
	t.mu.Lock()
	if t.first.IsZero() || t0.Before(t.first) {
		t.first = t0
	}
	t.busy += d
	t.points += len(params)
	t.mu.Unlock()
	return v, err
}

// configKey is oscard's cache and artifact fingerprint for a job spec (the
// benchmark only submits specs that are already in normalized form).
func configKey(spec *service.JobSpec) string {
	key, err := json.Marshal(struct {
		Problem service.ProblemSpec `json:"problem"`
		Backend service.BackendSpec `json:"backend"`
	}{spec.Problem, spec.Backend})
	if err != nil {
		panic(err)
	}
	return string(key)
}

// spanSums is what oscard's own span tree says about one job.
type spanSums struct {
	total   float64            // root "job" span
	byName  map[string]float64 // summed durations of every span name
	service map[string]float64 // direct children of the root
}

func fetchSpans(s *server, jobID string) (*spanSums, error) {
	var body struct {
		Trace *obs.TraceTree `json:"trace"`
	}
	if status, err := s.get("/jobs/"+jobID+"/trace", &body); err != nil || status != 200 || body.Trace == nil {
		return nil, fmt.Errorf("trace of %s: HTTP %d %v", jobID, status, err)
	}
	out := &spanSums{byName: map[string]float64{}, service: map[string]float64{}}
	var walk func(n *obs.SpanNode)
	walk = func(n *obs.SpanNode) {
		out.byName[n.Name] += n.DurMS
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, root := range body.Trace.Spans {
		if root.Name == "job" {
			out.total += root.DurMS
			for _, ch := range root.Children {
				out.service[ch.Name] += ch.DurMS
			}
		}
		walk(root)
	}
	return out, nil
}

// opLayers is the outside-in breakdown of one replayed job.
type opLayers struct {
	vals      map[string]float64 // per-layer figures of this op
	replayMS  float64            // wall time of the replayed pipeline
	inner     float64            // sum of the layer calls timed inside it
	publishMS float64            // artifact wrap + content hash
	id        string
	makespan  float64
}

// transformCount derives the exact number of DCT transforms a finished
// solve performed: one adjoint for the penalty scale, two per iteration, two
// per debias step and two to finish. The debias steps are found by re-running
// the solve without debias and repeating the debias pass on its coefficients
// with the same public DCT plan; the repeat must reproduce the solver's
// coefficients bit for bit, or the count is reported as unknown (-1).
func transformCount(ctx context.Context, dims, idx []int, y []float64, opt cs.Options, res *cs.Result) (int, error) {
	plain := opt.WithDefaults()
	if !plain.Debias || plain.Method == cs.OMP {
		return 2*res.Iterations + 3, nil
	}
	plain.Debias = false
	pre, err := cs.ReconstructNDContext(ctx, dims, idx, y, plain)
	if err != nil {
		return 0, err
	}
	steps, coeffs := debiasSteps(dims, idx, y, pre.Coeffs, plain.Workers)
	if pre.Iterations != res.Iterations || hashFloats(coeffs) != hashFloats(res.Coeffs) {
		return -1, nil
	}
	return 2*res.Iterations + 2*steps + 3, nil
}

// debiasSteps repeats the solver's least-squares polish on s (copied) and
// returns how many forward+adjoint steps it took and the polished
// coefficients.
func debiasSteps(dims, idx []int, y, s0 []float64, workers int) (int, []float64) {
	plan := dct.NewPlanNDWorkers(dims, workers)
	s := append([]float64(nil), s0...)
	grid := make([]float64, plan.Size())
	var support []int
	for i, v := range s {
		if v != 0 {
			support = append(support, i)
		}
	}
	if len(support) == 0 || len(support) > len(idx) {
		return 0, s
	}
	grad := make([]float64, len(s))
	resid := make([]float64, len(idx))
	for it := 0; it < 50; it++ {
		plan.Inverse(grid, s)
		for j, gi := range idx {
			resid[j] = grid[gi] - y[j]
		}
		clear(grid)
		for j, gi := range idx {
			grid[gi] = resid[j]
		}
		plan.Forward(grad, grid)
		var gnorm float64
		for _, i := range support {
			gnorm += grad[i] * grad[i]
		}
		if gnorm < 1e-24 {
			return it + 1, s
		}
		for _, i := range support {
			s[i] -= grad[i]
		}
	}
	return 50, s
}

// dctMicros times forward and inverse transforms on the job's grid with the
// solver's worker count, outside any solve.
func dctMicros(dims []int, workers int) float64 {
	plan := dct.NewPlanNDWorkers(dims, workers)
	a := make([]float64, plan.Size())
	b := make([]float64, plan.Size())
	rng := rand.New(rand.NewSource(1))
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	const reps = 128
	plan.Forward(b, a) // untimed warm-up
	t0 := time.Now()
	for i := 0; i < reps/2; i++ {
		plan.Forward(b, a)
		plan.Inverse(a, b)
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / reps
}

// qsimMicros times the fused circuit alone on a single-threaded state for a
// sample of the job's points, and computes the bytes one point streams: the
// 2^n complex128 amplitudes swept once to reset the state, once per fused
// gate and once for the expectation value.
func qsimMicros(parts *jobParts, points [][]float64) (us, bytesPerPoint float64, err error) {
	circ := parts.ans.Circuit.FuseDiagonals()
	st := qsim.NewState(circ.N()).SetWorkers(1)
	n := min(len(points), 32)
	// One untimed run builds the fused circuit's lazily compiled phase
	// tables.
	if err := qsim.RunInto(st, circ, points[0]); err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	for _, p := range points[:n] {
		if err := qsim.RunInto(st, circ, p); err != nil {
			return 0, 0, err
		}
	}
	us = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
	bytesPerPoint = math.Ldexp(16, circ.N()) * float64(circ.Len()+2)
	return us, bytesPerPoint, nil
}

// replayJob re-executes one served job through the public entry points of
// each layer, timing every call from outside.
func (w *jobWorkload) replayJob(op jobOp, nproc int, workdir string) (*opLayers, error) {
	ctx := context.Background()
	parts, err := buildParts(&op.spec)
	if err != nil {
		return nil, err
	}
	workers := w.jobWorkers
	if workers == 0 {
		workers = nproc
	}
	solver := cs.DefaultOptions()
	solver.Workers = workers
	cache := exec.NewCache(0)
	tb := &timedBatch{inner: parts.sv}
	v := map[string]float64{}
	out := &opLayers{vals: v}
	opt := op.spec.Options
	dims := parts.grid.Dims()
	// solves lists every solve of the op with its options, for the
	// transform count derived after the timed replay.
	type solve struct {
		idx  []int
		vals []float64
		opt  cs.Options
		res  *cs.Result
	}
	var solves []solve
	timedSolve := func(idx []int, vals []float64, opt cs.Options) (*cs.Result, error) {
		ts := time.Now()
		res, err := cs.ReconstructNDContext(ctx, dims, idx, vals, opt)
		if err != nil {
			return nil, err
		}
		v["cs.solve_ms"] += ms(time.Since(ts))
		v["cs.iterations"] += float64(res.Iterations)
		v["cs.solves"]++
		solves = append(solves, solve{idx, vals, opt, res})
		return res, nil
	}

	t0 := time.Now()
	idx, err := core.SampleGrid(parts.grid, opt.SamplingFraction, opt.Seed, false)
	if err != nil {
		return nil, err
	}
	v["core.sample_ms"] = ms(time.Since(t0))

	var recon *landscape.Landscape
	var fleetRes *fleet.StreamResult
	if !w.fleet {
		ts := time.Now()
		en := exec.New(tb, exec.Options{Workers: workers, Cache: cache})
		vals, err := en.EvaluateBatch(ctx, parts.grid.Points(idx))
		if err != nil {
			return nil, err
		}
		v["exec.batch_ms"] = ms(time.Since(ts))
		// Backend time per worker: the engine runs workers chunks at once.
		v["exec.overhead_ms"] = v["exec.batch_ms"] - ms(tb.busy)/float64(workers)
		v["exec.cache_hit_ratio"] = ratio(float64(cache.Hits()), float64(cache.Hits()+cache.Misses()))
		res, err := timedSolve(idx, vals, solver)
		if err != nil {
			return nil, err
		}
		recon = &landscape.Landscape{Grid: parts.grid, Data: res.X}
		out.inner = v["core.sample_ms"] + v["exec.batch_ms"] + v["cs.solve_ms"]
	} else {
		fs := op.spec.Fleet
		sch, err := fleet.New(fleet.Options{Seed: fs.Seed, Thresholds: []float64{0.5, 0.75}, RiskAware: true,
			Workers: workers, Cache: cache}, fleetDevicesFor(fs, tb)...)
		if err != nil {
			return nil, err
		}
		// The stream samples the grid itself; t0 restarts so the sampling
		// timed above is not counted twice.
		t0 = time.Now()
		sres, err := sch.ReconstructStream(ctx, parts.grid, core.Options{
			SamplingFraction: opt.SamplingFraction, Seed: opt.Seed, Solver: cs.DefaultOptions(), Workers: workers})
		if err != nil {
			return nil, err
		}
		// Planning is everything before the first circuit batch reaches a
		// device, less the sampling.
		v["fleet.plan_ms"] = ms(tb.first.Sub(t0)) - v["core.sample_ms"]
		rep := sres.Report
		v["fleet.batches"] = float64(len(rep.Batches))
		v["fleet.retries"] = float64(rep.Retries)
		v["fleet.quarantines"] = float64(len(sres.Quarantines))
		v["fleet.useful_ratio"] = ratio(float64(len(rep.Batches)), float64(len(rep.Batches)+rep.Retries))
		cached := 0
		for _, b := range rep.Batches {
			v["qpu.virtual_queue_s"] += b.Queue
			v["qpu.virtual_exec_s"] += b.Exec
			if b.Device < 0 {
				cached += b.Size
			}
		}
		v["exec.cache_hit_ratio"] = ratio(float64(cached), float64(len(idx)))
		v["virtual_makespan_s"] = rep.Makespan
		out.makespan = rep.Makespan
		recon = sres.Landscape
		out.inner = ms(tb.first.Sub(t0)) + ms(tb.busy)
		fleetRes = sres
	}
	ts := time.Now()
	art := landscape.NewArtifact(recon)
	art.Fingerprint = configKey(&op.spec)
	out.id = art.ID()
	out.publishMS = ms(time.Since(ts))
	out.replayMS = ms(time.Since(t0))
	out.inner += out.publishMS
	v["backend.points"] = float64(tb.points)
	v["backend.us_per_point"] = ratio(float64(tb.busy.Nanoseconds())/1e3, float64(tb.points))

	// Layers timed outside the served pipeline.
	path := filepath.Join(workdir, "replay.landscape")
	ts = time.Now()
	if err := landscape.SaveArtifactFile(path, art); err != nil {
		return nil, err
	}
	v["landscape.artifact_save_ms"] = ms(time.Since(ts))
	ts = time.Now()
	if _, err := landscape.LoadArtifactFile(path); err != nil {
		return nil, err
	}
	v["landscape.artifact_load_ms"] = ms(time.Since(ts))
	if err := os.Remove(path); err != nil {
		return nil, err
	}

	if fleetRes != nil {
		// The stream's solves overlap its circuit batches, so they are
		// replayed outside it: the same appends in virtual-completion order,
		// an interim solve wherever the stream made one, each warm-started
		// from the one before.
		sets, err := streamSolves(fleetRes.Report, fleetRes.Partials)
		if err != nil {
			return nil, err
		}
		var warm []float64
		for _, set := range sets {
			s := solver
			s.Warm = warm
			res, err := timedSolve(set.idx, set.vals, s)
			if err != nil {
				return nil, err
			}
			warm = res.Coeffs
		}
		if hashFloats(solves[len(solves)-1].res.X) != hashFloats(recon.Data) {
			return nil, errors.New("replayed final solve differs from the stream's reconstruction")
		}
		out.inner += v["cs.solve_ms"]
	}
	var transforms float64
	for _, sv := range solves {
		t, err := transformCount(ctx, dims, sv.idx, sv.vals, sv.opt, sv.res)
		if err != nil {
			return nil, err
		}
		if t < 0 {
			transforms = -1
			break
		}
		transforms += float64(t) / float64(len(solves))
	}
	v["dct.transforms_per_solve"] = transforms
	v["cs.ms_per_iter"] = ratio(v["cs.solve_ms"], v["cs.iterations"])
	v["dct.us_per_transform"] = dctMicros(dims, workers)
	if transforms > 0 {
		v["dct.share_of_solve"] = transforms * v["cs.solves"] * v["dct.us_per_transform"] / 1e3 / v["cs.solve_ms"]
	}
	v["qsim.us_per_circuit"], v["qsim.bytes_per_point"], err = qsimMicros(parts, parts.grid.Points(idx))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sampleSet is the samples one solve ran on.
type sampleSet struct {
	idx  []int
	vals []float64
}

// streamSolves rebuilds the sample sets of a stream's solves from its report:
// results arrive grouped by batch in virtual-completion order, and an interim
// solve ran once the samples fed reached each partial's count.
func streamSolves(rep *qpu.RunReport, partials []fleet.Partial) ([]sampleSet, error) {
	var sets []sampleSet
	var cur sampleSet
	pos := 0
	for _, b := range rep.Batches {
		if pos+b.Size > len(rep.Results) {
			return nil, fmt.Errorf("report has %d results for its batches", len(rep.Results))
		}
		for _, r := range rep.Results[pos : pos+b.Size] {
			cur.idx = append(cur.idx, r.Index)
			cur.vals = append(cur.vals, r.Value)
		}
		pos += b.Size
		if len(sets) < len(partials) && len(cur.idx) == partials[len(sets)].Samples {
			sets = append(sets, sampleSet{slices.Clone(cur.idx), slices.Clone(cur.vals)})
		}
	}
	if len(sets) != len(partials) {
		return nil, fmt.Errorf("matched %d of %d interim solves", len(sets), len(partials))
	}
	return append(sets, cur), nil
}

// fleetDevicesFor builds a fleet job's devices the way oscard does, every
// one running eval.
func fleetDevicesFor(fs *service.FleetSpec, eval *timedBatch) []qpu.Device {
	devices := make([]qpu.Device, len(fs.Devices))
	for i, ds := range fs.Devices {
		d := qpu.Device{
			Name: ds.Name,
			Eval: eval,
			Latency: qpu.LatencyModel{QueueMedian: ds.QueueMedian, Sigma: ds.Sigma, Exec: ds.Exec,
				TailProb: ds.TailProb, TailFactor: ds.TailFactor},
			FailureProb: ds.FailureProb,
		}
		// fleet-p2 uses dropout scenarios only.
		if sc := ds.Scenario; sc != nil {
			d.Scenario = qpu.Dropout{Start: sc.Start, Duration: sc.Duration}
		}
		devices[i] = d
	}
	return devices
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// traced is the per-layer run of a job workload: served ops on a traced
// oscard, the same ops on an oscard started with -no-trace, and an
// in-process replay of the first served ops.
func (w *jobWorkload) traced(c *runConfig) (*result, error) {
	warm, ops := w.jobOps(c.seed, maxJobOps)
	res := newResult()
	s, _, _, gates, err := w.setupJobServer(c, warm, 1)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	sp, _, _, plainGates, err := w.setupJobServer(c, warm, 1, "-no-trace")
	if err != nil {
		return nil, err
	}
	defer sp.stop()
	checkWarmUps(res, append(gates, plainGates...))
	both := w.serveOps([]*server{s, sp}, ops, c.duration, replayOps)
	served, plain := both[0], both[1]
	spans := make([]*spanSums, min(len(served), replayOps))
	for i := range spans {
		if served[i].err == nil {
			if spans[i], err = fetchSpans(s, served[i].reply.ID); err != nil {
				return nil, err
			}
		}
	}
	s.stop()
	sp.stop()

	var lat, plainLat []float64
	for i, op := range append(served, plain...) {
		res.Attempted++
		if op.err != nil {
			res.fail(fmt.Sprintf("op %d: %v", i, op.err))
		}
		if i < len(served) {
			lat = append(lat, ms(op.latency))
		} else {
			plainLat = append(plainLat, ms(op.latency))
		}
	}

	v := map[string]float64{}
	perOp := map[string][]float64{}
	var servedMS, replayMS, innerMS float64
	diffs := map[string][2]float64{}
	for i := range spans {
		op := served[i]
		if op.err != nil {
			continue
		}
		l, err := w.replayJob(op.op, c.nproc, c.workdir)
		if err != nil {
			return nil, fmt.Errorf("replaying op %d: %w", i, err)
		}
		r := op.reply.Result
		res.check(l.id == r.ArtifactID, fmt.Sprintf("op %d: replay published %s, oscard %s", i, l.id, r.ArtifactID))
		if w.fleet {
			res.check(l.makespan == r.Fleet.Makespan, fmt.Sprintf("op %d: replay makespan %v, oscard %v", i, l.makespan, r.Fleet.Makespan))
		}
		for k, x := range l.vals {
			perOp[k] = append(perOp[k], x)
		}
		sp := spans[i]
		perOp["service.validate_ms"] = append(perOp["service.validate_ms"], sp.service["validate"])
		perOp["service.queue_ms"] = append(perOp["service.queue_ms"], sp.service["queue"])
		perOp["service.publish_ms"] = append(perOp["service.publish_ms"], sp.byName["publish"])
		perOp["service.http_ms"] = append(perOp["service.http_ms"], ms(op.latency)-sp.total)
		perOp["service.total_ms"] = append(perOp["service.total_ms"], ms(op.latency)-l.replayMS)
		servedMS += ms(op.latency)
		replayMS += l.replayMS
		innerMS += l.inner
		add := func(name string, outside, inside float64) {
			d := diffs[name]
			diffs[name] = [2]float64{d[0] + outside, d[1] + inside}
		}
		if w.fleet {
			add("span_diff.exec_pct", l.vals["backend.points"]*l.vals["backend.us_per_point"]/1e3, sp.byName["fleet.batch"])
			add("span_diff.fleet_plan_pct", l.vals["fleet.plan_ms"], sp.byName["fleet.plan"])
		} else {
			add("span_diff.exec_pct", l.vals["exec.batch_ms"], sp.byName["exec.batch"])
		}
		add("span_diff.cs_pct", l.vals["cs.solve_ms"], sp.byName["cs.solve"])
		add("span_diff.publish_pct", l.publishMS, sp.byName["publish"])
	}
	if servedMS == 0 {
		return nil, fmt.Errorf("no served op could be replayed")
	}
	// Means, not medians, so the layers of the replayed ops add up.
	for k, xs := range perOp {
		v[k] = mean(xs)
	}
	for k, d := range diffs {
		v[k] = 100 * ratio(d[0]-d[1], d[1])
	}
	v["unattributed_pct"] = 100 * (replayMS - innerMS) / servedMS
	v["obs.overhead_pct"] = 100 * (median(lat) - median(plainLat)) / median(plainLat)
	c.note("traced op_p50_ms", median(lat), "ms")
	c.note("replayed share of served latency", 100*replayMS/servedMS, "%")
	return layerResult(res, v), nil
}

// traced is the per-layer run of query-lru.
func (q *queryWorkload) traced(c *runConfig) (*result, error) {
	p, err := q.plan(c)
	if err != nil {
		return nil, err
	}
	v := map[string]float64{}
	var saves, loads []float64
	arts := make([]*landscape.Artifact, len(p.arts))
	for i, a := range p.arts {
		saves = append(saves, a.saveMS)
		ts := time.Now()
		if arts[i], err = landscape.LoadArtifactFile(a.path); err != nil {
			return nil, err
		}
		loads = append(loads, ms(time.Since(ts)))
	}
	v["landscape.artifact_save_ms"] = median(saves)
	v["landscape.artifact_load_ms"] = median(loads)

	s, _, err := q.boot(c, 1)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	sp, _, err := q.boot(c, 1, "-no-trace")
	if err != nil {
		return nil, err
	}
	defer sp.stop()
	m0, err := s.scrape()
	if err != nil {
		return nil, err
	}
	both := q.serve([]*server{s, sp}, p, c.duration, 0)
	served, plain := both[0], both[1]
	m1, err := s.scrape()
	if err != nil {
		return nil, err
	}
	s.stop()
	sp.stop()

	res := newResult()
	if err := q.verify(p, append(served, plain...), res); err != nil {
		return nil, err
	}
	var lat, plainLat []float64
	var servedMS float64
	for _, sq := range served {
		lat = append(lat, ms(sq.latency))
		servedMS += ms(sq.latency)
	}
	for _, sq := range plain {
		plainLat = append(plainLat, ms(sq.latency))
	}

	// Replay the served sequence through an in-process LRU of the same
	// capacity and policy as oscard's.
	type entry struct {
		ip   interp.Interpolator
		used int
	}
	lru := map[int]*entry{}
	var fits, evals, grads []float64
	var replayMS, innerMS float64
	for i, sq := range served {
		t0 := time.Now()
		var inner float64
		e := lru[sq.op.art]
		if e == nil {
			ts := time.Now()
			ip, err := fitArtifact(arts[sq.op.art], q.workers)
			if err != nil {
				return nil, err
			}
			d := ms(time.Since(ts))
			fits = append(fits, d)
			inner += d
			e = &entry{ip: ip, used: i + 1}
			lru[sq.op.art] = e
			if len(lru) > q.lru {
				oldest, k := math.MaxInt, -1
				for a, x := range lru {
					if x.used < oldest {
						oldest, k = x.used, a
					}
				}
				delete(lru, k)
			}
		}
		e.used = i + 1
		pts := p.points[sq.op.body]
		vals := make([]float64, len(pts))
		ts := time.Now()
		if err := e.ip.AtPoints(vals, pts); err != nil {
			return nil, err
		}
		d := float64(time.Since(ts).Nanoseconds()) / 1e3
		evals = append(evals, d)
		inner += d / 1e3
		if sq.op.grad {
			g := make([][]float64, len(pts))
			for k := range g {
				g[k] = make([]float64, 2)
			}
			ts := time.Now()
			if err := e.ip.GradientAtPoints(g, pts); err != nil {
				return nil, err
			}
			d := float64(time.Since(ts).Nanoseconds()) / 1e3
			grads = append(grads, d)
			inner += d / 1e3
		}
		replayMS += ms(time.Since(t0))
		innerMS += inner
	}
	v["interp.fit_ms"] = mean(fits)
	v["interp.eval_us_per_op"] = mean(evals)
	v["interp.grad_us_per_op"] = mean(grads)
	queryMS, n := stageDelta(m0, m1, "query")
	res.check(int(n) == len(served), fmt.Sprintf("/metrics counted %v queries, client sent %d", n, len(served)))
	v["service.http_ms"] = servedMS/float64(len(served)) - queryMS
	hits := m1["oscard_artifact_lru_hits_total"] - m0["oscard_artifact_lru_hits_total"]
	misses := m1["oscard_artifact_lru_misses_total"] - m0["oscard_artifact_lru_misses_total"]
	v["service.lru_hit_ratio"] = ratio(hits, hits+misses)
	v["service.total_ms"] = (servedMS - replayMS) / float64(len(served))
	v["unattributed_pct"] = 100 * (replayMS - innerMS) / servedMS
	v["obs.overhead_pct"] = 100 * (median(lat) - median(plainLat)) / median(plainLat)
	c.note("replayed share of served latency", 100*replayMS/servedMS, "%")
	c.note("replay lru_hit_ratio", 1-float64(len(fits))/float64(len(served)), "1")
	return layerResult(res, v), nil
}

package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/cs"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/landscape"
	"repro/internal/noise"
	"repro/internal/problem"
	"repro/internal/service"
)

// queryWorkload is query-lru: surrogate queries against stored landscape
// artifacts, with no backend or solver on the op path.
type queryWorkload struct {
	artifacts int // stored landscapes
	lru       int // oscard's -artifact-lru
	bodies    int // distinct point sets the queries draw from
	points    int // points per query
	gradEvery int // every gradEvery-th query also asks for gradients
	zipfS     float64
	// workers is oscard's -job-workers, the interpolators' worker budget.
	workers int
	grid    service.GridSpec
	maxOps  int
	boots   int
}

var queryLRU = &queryWorkload{
	artifacts: 16,
	lru:       8,
	bodies:    32,
	points:    512,
	gradEvery: 4,
	zipfS:     1.1,
	workers:   1,
	grid:      service.GridSpec{BetaN: 32, GammaN: 64},
	maxOps:    200_000,
	boots:     15,
}

// storedArtifact is one landscape written for oscard to serve.
type storedArtifact struct {
	art   *landscape.Artifact
	path  string
	nrmse float64
	// saveMS is the time to wrap and write the artifact file.
	saveMS float64
}

// buildArtifacts writes the workload's seeded landscapes into dir: each is
// a 10% compressed-sensing reconstruction (stratified sampling) of a random
// 3-regular MaxCut QAOA landscape on 10, 12, 14 or 16 qubits, annotated with
// its NRMSE against the dense analytic truth.
func (q *queryWorkload) buildArtifacts(seed int64, dir string, nproc int) ([]storedArtifact, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	type recipe struct {
		n                int
		probSeed, sample int64
	}
	rng := rand.New(rand.NewSource(seed*7_368_787 + 11))
	recipes := make([]recipe, q.artifacts)
	for i := range recipes {
		recipes[i] = recipe{n: 10 + 2*(i%4), probSeed: 1 + rng.Int63n(1<<40), sample: 1 + rng.Int63n(1<<31)}
	}
	out := make([]storedArtifact, q.artifacts)
	errs := make([]error, q.artifacts)
	var wg sync.WaitGroup
	sem := make(chan struct{}, nproc)
	for i, r := range recipes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i], errs[i] = q.buildArtifact(i, r.n, r.probSeed, r.sample, dir)
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

func (q *queryWorkload) buildArtifact(i, n int, probSeed, sampleSeed int64, dir string) (storedArtifact, error) {
	g, err := qaoaGrid(q.grid)
	if err != nil {
		return storedArtifact{}, err
	}
	prob, err := problem.Random3RegularMaxCut(n, rand.New(rand.NewSource(probSeed)))
	if err != nil {
		return storedArtifact{}, err
	}
	eval, err := backend.NewAnalyticQAOA(prob, noise.Ideal())
	if err != nil {
		return storedArtifact{}, err
	}
	truth, err := exec.FromEvaluator(eval).EvaluateBatch(context.Background(), g.AllPoints())
	if err != nil {
		return storedArtifact{}, err
	}
	idx, err := core.SampleGrid(g, 0.1, sampleSeed, true)
	if err != nil {
		return storedArtifact{}, err
	}
	vals := make([]float64, len(idx))
	for k, gi := range idx {
		vals[k] = truth[gi]
	}
	rec, err := cs.ReconstructND(g.Dims(), idx, vals, cs.Options{Workers: 1})
	if err != nil {
		return storedArtifact{}, err
	}
	e, err := landscape.NRMSE(truth, rec.X)
	if err != nil {
		return storedArtifact{}, err
	}
	t0 := time.Now()
	a := landscape.NewArtifact(&landscape.Landscape{Grid: g, Data: rec.X})
	a.Fingerprint = fmt.Sprintf(`{"problem":"maxcut3","n":%d,"seed":%d,"backend":"analytic"}`, n, probSeed)
	a.Solver = landscape.SolverMeta{Method: "fista", SamplingFraction: 0.1, Seed: sampleSeed,
		Iterations: rec.Iterations, Residual: rec.Residual, Sparsity: rec.Sparsity}
	a.NRMSE = e
	a.CreatedAt = time.Unix(1_700_000_000+int64(i), 0).UTC()
	path := filepath.Join(dir, a.ID()+".landscape")
	if err := landscape.SaveArtifactFile(path, a); err != nil {
		return storedArtifact{}, err
	}
	return storedArtifact{art: a, path: path, nrmse: e, saveMS: ms(time.Since(t0))}, nil
}

// queryOp is one query of the op list.
type queryOp struct {
	art, body int
	grad      bool
}

// queryPlan is the generated input of a query-lru run.
type queryPlan struct {
	arts   []storedArtifact
	points [][][]float64 // per body
	bodies [][2][]byte   // per body: without, with gradients
	ops    []queryOp
}

func (q *queryWorkload) plan(c *runConfig) (*queryPlan, error) {
	arts, err := q.buildArtifacts(c.seed, filepath.Join(c.workdir, "artifacts"), c.nproc)
	if err != nil {
		return nil, err
	}
	p := &queryPlan{arts: arts}
	rng := rand.New(rand.NewSource(c.seed*15_485_863 + 5))
	bMin, bMax, gMin, gMax := arts[0].art.Axes[0].Min, arts[0].art.Axes[0].Max, arts[0].art.Axes[1].Min, arts[0].art.Axes[1].Max
	for range q.bodies {
		pts := make([][]float64, q.points)
		for i := range pts {
			pts[i] = []float64{bMin + (bMax-bMin)*rng.Float64(), gMin + (gMax-gMin)*rng.Float64()}
		}
		var enc [2][]byte
		for g, grad := range []bool{false, true} {
			if enc[g], err = json.Marshal(struct {
				Points    [][]float64 `json:"points"`
				Gradients bool        `json:"gradients,omitempty"`
			}{pts, grad}); err != nil {
				return nil, err
			}
		}
		p.points = append(p.points, pts)
		p.bodies = append(p.bodies, enc)
	}
	zipf := rand.NewZipf(rng, q.zipfS, 1, uint64(q.artifacts-1))
	perm := rng.Perm(q.artifacts)
	p.ops = make([]queryOp, q.maxOps)
	for i := range p.ops {
		p.ops[i] = queryOp{art: perm[zipf.Uint64()], body: rng.Intn(q.bodies), grad: i%q.gradEvery == q.gradEvery-1}
	}
	return p, nil
}

// queryReply is oscard's answer to a query.
type queryReply struct {
	Count     int         `json:"count"`
	Values    []float64   `json:"values"`
	Gradients [][]float64 `json:"gradients"`
}

func (r *queryReply) hash() uint64 {
	return hashFloats(append([][]float64{r.Values}, r.Gradients...)...)
}

// checkQuery is the per-op gate on a served query: HTTP 200, one value
// (and one gradient, when asked) per point, and every number bitwise equal
// to the in-process evaluation, whose fingerprint is want.
func checkQuery(sq servedQuery, points int, want uint64) error {
	switch {
	case sq.err != nil:
		return sq.err
	case sq.status != 200:
		return fmt.Errorf("HTTP %d", sq.status)
	case sq.count != points:
		return fmt.Errorf("%d values for %d points", sq.count, points)
	case sq.op.grad && sq.grads != points:
		return fmt.Errorf("%d gradients for %d points", sq.grads, points)
	case !sq.op.grad && sq.grads != 0:
		return errors.New("gradients nobody asked for")
	case sq.hash != want:
		return errors.New("answer differs bitwise from the in-process interpolator")
	}
	return nil
}

// servedQuery is one timed query as the client saw it; the answer itself
// is kept only as its fingerprint.
type servedQuery struct {
	op      queryOp
	latency time.Duration
	status  int
	err     error
	count   int
	grads   int
	hash    uint64
}

func newServedQuery(op queryOp, lat time.Duration, status int, err error, r *queryReply) servedQuery {
	return servedQuery{op: op, latency: lat, status: status, err: err,
		count: len(r.Values), grads: len(r.Gradients), hash: r.hash()}
}

func (q *queryWorkload) serverArgs(c *runConfig) []string {
	return []string{"-artifact-dir", filepath.Join(c.workdir, "artifacts"),
		"-artifact-lru", fmt.Sprint(q.lru), "-job-workers", fmt.Sprint(q.workers)}
}

// boot starts oscard boots times (set-up ends when /healthz answers, by
// which time every artifact is loaded) and keeps the last one running.
func (q *queryWorkload) boot(c *runConfig, boots int, extra ...string) (*server, []float64, error) {
	var setups []float64
	for k := 0; k < boots; k++ {
		s, d, err := startServer(c.oscard, c.workdir, append(q.serverArgs(c), extra...)...)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if k == boots-1 {
			return s, setups, nil
		}
		s.stop()
	}
	return nil, nil, errors.New("no boots")
}

// serve runs the op list in a closed loop for d (and at least minOps ops).
// With several servers every query goes to each of them in turn, as in
// jobWorkload.serveOps; out[k] holds server k's queries.
func (q *queryWorkload) serve(servers []*server, p *queryPlan, d time.Duration, minOps int) [][]servedQuery {
	out := make([][]servedQuery, len(servers))
	for k := range out {
		out[k] = make([]servedQuery, 0, 16384)
	}
	t0 := time.Now()
	for i := 0; i < len(p.ops) && (time.Since(t0) < d || i < minOps); i++ {
		op := p.ops[i]
		g := 0
		if op.grad {
			g = 1
		}
		for j := range servers {
			k := (i + j) % len(servers)
			var r queryReply
			ts := time.Now()
			status, err := servers[k].post("/landscapes/"+p.arts[op.art].art.ID()+"/query", p.bodies[op.body][g], &r)
			lat := time.Since(ts)
			out[k] = append(out[k], newServedQuery(op, lat, status, err, &r))
		}
	}
	return out
}

// verify gates every served query against the in-process interpolator fitted
// on the same artifact file.
func (q *queryWorkload) verify(p *queryPlan, served []servedQuery, res *result) error {
	ips := make([]interp.Interpolator, len(p.arts))
	want := map[queryOp]uint64{}
	for i, sq := range served {
		res.Attempted++
		h, ok := want[sq.op]
		if !ok && sq.err == nil {
			a := sq.op.art
			if ips[a] == nil {
				loaded, err := landscape.LoadArtifactFile(p.arts[a].path)
				if err != nil {
					return err
				}
				if ips[a], err = fitArtifact(loaded, q.workers); err != nil {
					return err
				}
			}
			h = evalQuery(ips[a], p.points[sq.op.body], sq.op.grad).hash()
			want[sq.op] = h
		}
		if err := checkQuery(sq, q.points, h); err != nil {
			res.fail(fmt.Sprintf("query %d: %v", i, err))
		}
	}
	return nil
}

// fitArtifact fits the surrogate the way oscard does for /landscapes
// queries.
func fitArtifact(a *landscape.Artifact, workers int) (interp.Interpolator, error) {
	l, err := a.Landscape()
	if err != nil {
		return nil, err
	}
	axes := make([][]float64, len(l.Grid.Axes))
	for i, ax := range l.Grid.Axes {
		axes[i] = ax.Values()
	}
	ip, err := interp.Fit(axes, l.Data)
	if err != nil {
		return nil, err
	}
	switch t := ip.(type) {
	case *interp.Bicubic:
		t.SetWorkers(workers)
	case *interp.NDSpline:
		t.SetWorkers(workers)
	}
	return ip, nil
}

// evalQuery answers a query in process.
func evalQuery(ip interp.Interpolator, pts [][]float64, grad bool) *queryReply {
	r := &queryReply{Count: len(pts), Values: make([]float64, len(pts))}
	if err := ip.AtPoints(r.Values, pts); err != nil {
		panic(err)
	}
	if grad {
		r.Gradients = make([][]float64, len(pts))
		for i := range r.Gradients {
			r.Gradients[i] = make([]float64, ip.Arity())
		}
		if err := ip.GradientAtPoints(r.Gradients, pts); err != nil {
			panic(err)
		}
	}
	return r
}

// run is an untraced query-lru run.
func (q *queryWorkload) run(c *runConfig) (*result, error) {
	p, err := q.plan(c)
	if err != nil {
		return nil, err
	}
	s, setups, err := q.boot(c, q.boots)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	before, err := s.procStat()
	if err != nil {
		return nil, err
	}
	served := q.serve([]*server{s}, p, c.duration, 0)[0]
	after, err := s.procStat()
	if err != nil {
		return nil, err
	}
	res := newResult()
	if err := q.verify(p, served, res); err != nil {
		return nil, err
	}
	lat := make([]float64, len(served))
	for i, sq := range served {
		lat[i] = ms(sq.latency)
	}
	errs := make([]float64, len(p.arts))
	for i, a := range p.arts {
		errs[i] = a.nrmse
	}
	if p99, ok := percentile(lat, 99, 10); ok {
		c.note("op_p99_ms", p99, "ms")
	} else {
		fmt.Printf("op_p99_ms omitted: fewer than 10 of %d samples lie beyond it\n", len(lat))
	}
	res.set("setup_s", median(setups), "s")
	res.set("op_p50_ms", median(lat), "ms")
	res.set("cpu_ms_per_op", (after.cpuMS-before.cpuMS)/float64(len(served)), "ms")
	res.set("peak_rss_mb", after.peakMB, "MB")
	res.set("nrmse", mean(errs), "1")
	return res, nil
}

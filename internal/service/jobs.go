package service

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/landscape"
	"repro/internal/obs"
	"repro/internal/shard"
)

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Job is one reconstruction request flowing through the server. All mutable
// fields are guarded by the server mutex.
type Job struct {
	id    string
	tag   string
	spec  *JobSpec
	built *builtJob
	cache *exec.Cache // nil for uncacheable (shot-sampled) jobs

	state      JobState
	errMsg     string
	httpStatus int // status a Wait submission reports; 0 while unfinished

	submitted time.Time
	started   time.Time
	finished  time.Time

	cancel context.CancelFunc
	done   chan struct{}

	result *JobResult
	// progress carries a fleet job's latest streaming state while it runs
	// (nil for non-fleet jobs); GET /jobs/{id} reports it, so clients see
	// partial results before completion.
	progress *FleetProgress

	// trace collects the job's spans (nil with tracing disabled); root is
	// its top-level "job" span, open from submission until finishJob.
	trace *obs.Tracer
	root  *obs.Span
}

// FleetProgress is the progressive partial-result view of a running fleet
// job.
type FleetProgress struct {
	// SamplesDone / SamplesTotal count measurements merged into the
	// streaming reconstruction.
	SamplesDone  int `json:"samples_done"`
	SamplesTotal int `json:"samples_total"`
	// VirtualTime is the fleet's simulated clock at the latest merged
	// batch.
	VirtualTime float64 `json:"virtual_time_s"`
	// Solves counts completed interim reconstructions; Residual is the
	// latest one's residual.
	Solves   int       `json:"solves"`
	Residual jsonFloat `json:"residual"`
	// Devices maps device names to their learned batch sizes.
	Devices map[string]int `json:"batch_sizes"`
	// Retries counts failed dispatches that were retried or re-dispatched;
	// QuarantineEvents counts quarantine transitions (bench + re-admit).
	Retries          int `json:"retries"`
	QuarantineEvents int `json:"quarantine_events"`
	// Quarantined lists the devices benched as of the latest merged batch.
	Quarantined []string `json:"quarantined,omitempty"`
	// states is the run's per-device learned state (tail estimates,
	// failure rates) at the end of planning; /metrics exports it.
	states []fleet.DeviceState
}

// FleetQuarantineEvent is one quarantine transition of a fleet run: a device
// benched after crossing a failure threshold, or re-admitted after a probe.
type FleetQuarantineEvent struct {
	Device string    `json:"device"`
	Time   jsonFloat `json:"time_s"`
	Reason string    `json:"reason"`
}

// FleetDeviceState is one device's learned scheduling state at the end of a
// fleet run: batch size, tail estimates, and failure/quarantine counters.
type FleetDeviceState struct {
	Name        string    `json:"name"`
	BatchSize   int       `json:"batch_size"`
	Jobs        int       `json:"jobs"`
	Batches     int       `json:"batches"`
	TailProb    jsonFloat `json:"tail_prob"`
	TailMag     jsonFloat `json:"tail_mag"`
	FailRate    jsonFloat `json:"fail_rate"`
	Fails       int       `json:"fails"`
	Quarantined bool      `json:"quarantined"`
	Quarantines int       `json:"quarantines"`
}

// FleetResult summarizes fleet execution in a finished job's result.
type FleetResult struct {
	Makespan   jsonFloat      `json:"makespan_s"`
	SerialTime jsonFloat      `json:"serial_time_s"`
	Speedup    jsonFloat      `json:"speedup"`
	Retries    int            `json:"retries"`
	Batches    int            `json:"batches"`
	CacheHits  int            `json:"cache_served"`
	Timeout    jsonFloat      `json:"timeout_s"`
	Saved      jsonFloat      `json:"saved_s"`
	Solves     int            `json:"solves"`
	BatchSizes map[string]int `json:"batch_sizes"`
	PerDevice  map[string]int `json:"jobs_per_device"`
	// QuarantineEvents lists the run's quarantine transitions in time
	// order; Devices the per-device learned state (tail estimates,
	// failure counters). Both empty for non-risk-aware runs.
	QuarantineEvents []FleetQuarantineEvent `json:"quarantine_events,omitempty"`
	Devices          []FleetDeviceState     `json:"devices,omitempty"`
}

// JobResult is the outcome of a finished job.
type JobResult struct {
	GridSize         int     `json:"grid_size"`
	Samples          int     `json:"samples"`
	Speedup          float64 `json:"speedup"`
	SolverIterations int     `json:"solver_iterations"`
	Residual         float64 `json:"residual"`
	Sparsity         int     `json:"sparsity"`

	// Min/Max summarize the reconstructed landscape (NaN-tolerant; the
	// Arg indices are -1 — and the values encode as JSON null — if the
	// reconstruction has no finite values).
	Min      jsonFloat `json:"min"`
	ArgMin   int       `json:"arg_min"`
	MinPoint []float64 `json:"min_point,omitempty"`
	Max      jsonFloat `json:"max"`
	ArgMax   int       `json:"arg_max"`
	MaxPoint []float64 `json:"max_point,omitempty"`

	// Data is the full reconstructed landscape (return_data only);
	// non-finite entries encode as JSON null.
	Data jsonFloats `json:"data,omitempty"`

	// CacheHits/CacheMisses are the engine cache counters consumed by this
	// job's execution phase (best-effort under concurrency: concurrent
	// jobs on one cache interleave their accounting).
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`

	// ArtifactID names the landscape artifact this job published — query it
	// via GET/POST /landscapes/{id}/... without rerunning anything. Empty
	// only if publication failed.
	ArtifactID string `json:"artifact_id,omitempty"`

	// Fleet summarizes fleet-mode execution (nil for plain jobs).
	Fleet *FleetResult `json:"fleet,omitempty"`
}

// runJob drives a job to completion: wait for a worker slot, execute, and
// record the outcome. queue is the job's open queue span; the run span
// starts the instant it ends. It never panics: a panic anywhere below it — on
// the job goroutine or on any shard worker, however deeply nested — arrives
// as one *shard.PanicError and fails the job with a 500.
func (s *Server) runJob(ctx context.Context, j *Job, queue *obs.Span) {
	defer s.wg.Done()
	// Release the job's context resources once it finishes; without this,
	// every completed async job would stay registered as a live child of
	// the server's base context for the process lifetime. CancelFuncs are
	// idempotent, so a later DELETE on the finished job stays safe.
	defer j.cancel()
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		queue.SetError(ctx.Err())
		s.finishJob(j, nil, ctx.Err(), queue)
		return
	}
	rspan := queue.Next("run")
	ctx = obs.ContextWithSpan(ctx, rspan)
	s.mu.Lock()
	if j.state == StateQueued {
		j.state = StateRunning
		j.started = time.Now()
	}
	s.mu.Unlock()
	var res *JobResult
	err := shard.Try(func() (err error) { res, err = s.execute(ctx, j); return err })
	var pe *shard.PanicError
	if errors.As(err, &pe) {
		s.panics.Add(1)
		rspan.SetAttr("stack", string(pe.Stack))
		s.log.Error("job panicked", "trace_id", j.trace.ID(), "job_id", j.id,
			"error", err.Error(), "stack", string(pe.Stack))
	}
	rspan.SetError(err)
	s.finishJob(j, res, err, rspan)
}

// execute runs the OSCAR pipeline for a job.
func (s *Server) execute(ctx context.Context, j *Job) (*JobResult, error) {
	opt := j.built.opts
	opt.Workers = s.cfg.JobWorkers
	var h0, m0 int64
	if j.cache != nil {
		h0, m0 = j.cache.Hits(), j.cache.Misses()
	}
	if j.built.fleetOpts != nil {
		return s.executeFleet(ctx, j, opt, h0, m0)
	}
	opt.Cache = j.cache
	recon, stats, err := core.ReconstructBatch(ctx, j.built.grid, j.built.eval, opt)
	if err != nil {
		return nil, err
	}
	return s.buildResult(ctx, j, recon, stats, h0, m0), nil
}

// executeFleet runs a fleet-mode job: sampling dispatched across the virtual
// device fleet, streamed into the incremental reconstruction, with progress
// published for GET polling.
func (s *Server) executeFleet(ctx context.Context, j *Job, opt core.Options, h0, m0 int64) (*JobResult, error) {
	names := make([]string, len(j.built.fleetDevices))
	for i, d := range j.built.fleetDevices {
		names[i] = d.Name
	}
	fopt := *j.built.fleetOpts
	fopt.Workers = s.cfg.JobWorkers
	fopt.Cache = j.cache
	fopt.OnProgress = func(p fleet.Progress) {
		sizes := make(map[string]int, len(p.BatchSizes))
		for i, b := range p.BatchSizes {
			if i < len(names) {
				sizes[names[i]] = b
			}
		}
		var quarantined []string
		for i, q := range p.Quarantined {
			if q && i < len(names) {
				quarantined = append(quarantined, names[i])
			}
		}
		s.mu.Lock()
		j.progress = &FleetProgress{
			SamplesDone:      p.SamplesDone,
			SamplesTotal:     p.SamplesTotal,
			VirtualTime:      p.VirtualTime,
			Solves:           p.Solves,
			Residual:         jsonFloat(p.Residual),
			Devices:          sizes,
			Retries:          p.Retries,
			QuarantineEvents: p.QuarantineEvents,
			Quarantined:      quarantined,
			states:           p.States,
		}
		s.mu.Unlock()
	}
	sch, err := fleet.New(fopt, j.built.fleetDevices...)
	if err != nil {
		return nil, err
	}
	sres, err := sch.ReconstructStream(ctx, j.built.grid, opt)
	if err != nil {
		return nil, err
	}
	s.fleetRetries.Add(int64(sres.Report.Retries))
	s.fleetQuarantines.Add(int64(len(sres.Quarantines)))
	res := s.buildResult(ctx, j, sres.Landscape, sres.Stats, h0, m0)
	sizes := make(map[string]int, len(names))
	for i, b := range sres.BatchSizes {
		if i < len(names) {
			sizes[names[i]] = b
		}
	}
	perDevice := make(map[string]int, len(names))
	cacheServed := 0
	for _, r := range sres.Report.Results {
		if r.Device < 0 {
			cacheServed++
		} else if r.Device < len(names) {
			perDevice[names[r.Device]]++
		}
	}
	events := make([]FleetQuarantineEvent, 0, len(sres.Quarantines))
	for _, ev := range sres.Quarantines {
		events = append(events, FleetQuarantineEvent{
			Device: ev.Name, Time: jsonFloat(ev.Time), Reason: ev.Reason,
		})
	}
	var states []FleetDeviceState
	if j.built.fleetOpts.RiskAware {
		states = make([]FleetDeviceState, 0, len(sres.DeviceStates))
		for _, ds := range sres.DeviceStates {
			states = append(states, FleetDeviceState{
				Name:        ds.Name,
				BatchSize:   ds.BatchSize,
				Jobs:        ds.Jobs,
				Batches:     ds.Batches,
				TailProb:    jsonFloat(ds.TailProb),
				TailMag:     jsonFloat(ds.TailMag),
				FailRate:    jsonFloat(ds.FailRate),
				Fails:       ds.Fails,
				Quarantined: ds.Quarantined,
				Quarantines: ds.Quarantines,
			})
		}
	}
	res.Fleet = &FleetResult{
		Makespan:         jsonFloat(sres.Report.Makespan),
		SerialTime:       jsonFloat(sres.Report.SerialTime),
		Speedup:          jsonFloat(sres.Report.Speedup()),
		Retries:          sres.Report.Retries,
		Batches:          len(sres.Report.Batches),
		CacheHits:        cacheServed,
		Timeout:          jsonFloat(sres.Timeout),
		Saved:            jsonFloat(sres.Saved),
		Solves:           len(sres.Partials) + 1,
		BatchSizes:       sizes,
		PerDevice:        perDevice,
		QuarantineEvents: events,
		Devices:          states,
	}
	return res, nil
}

func (s *Server) buildResult(ctx context.Context, j *Job, recon *landscape.Landscape, stats *core.Stats, h0, m0 int64) *JobResult {
	res := &JobResult{
		GridSize:         stats.GridSize,
		Samples:          stats.Samples,
		Speedup:          stats.Speedup,
		SolverIterations: stats.SolverIterations,
		Residual:         stats.Residual,
		Sparsity:         stats.Sparsity,
	}
	var minV, maxV float64
	minV, res.ArgMin = recon.Min()
	maxV, res.ArgMax = recon.Max()
	res.Min, res.Max = jsonFloat(minV), jsonFloat(maxV)
	if res.ArgMin >= 0 {
		res.MinPoint = recon.Grid.Point(res.ArgMin)
	}
	if res.ArgMax >= 0 {
		res.MaxPoint = recon.Grid.Point(res.ArgMax)
	}
	if j.spec.ReturnData {
		res.Data = recon.Data
	}
	if j.cache != nil {
		res.CacheHits = j.cache.Hits() - h0
		res.CacheMisses = j.cache.Misses() - m0
	}
	// Publish the reconstruction as a landscape artifact so /landscapes can
	// serve it after the job is gone (and across restarts when the store is
	// disk-backed). A publish failure never fails the job — the result above
	// is already correct — it only counts against the store.
	art := landscape.NewArtifact(recon)
	art.Fingerprint = j.built.configKey
	art.Solver = landscape.SolverMeta{
		Method:           solverMethodName(j.spec.Options.Solver),
		SamplingFraction: j.spec.Options.SamplingFraction,
		Seed:             j.spec.Options.Seed,
		Iterations:       stats.SolverIterations,
		Residual:         stats.Residual,
		Sparsity:         stats.Sparsity,
	}
	art.CreatedAt = time.Now()
	pspan, _ := obs.Start(ctx, "publish")
	id, err := s.artifacts.publish(art)
	pspan.SetAttr("artifact_id", id)
	pspan.SetError(err)
	pspan.End()
	if err != nil {
		s.artifacts.publishErrors.Add(1)
	}
	res.ArtifactID = id
	return res
}

// solverMethodName canonicalizes the spec's solver method for artifact
// provenance (the default is FISTA, matching buildSolver).
func solverMethodName(ss *SolverSpec) string {
	if ss == nil || ss.Method == "" {
		return "fista"
	}
	return strings.ToLower(ss.Method)
}

// finishJob records a job outcome exactly once, ends the last stage span
// and the job's root span at the same instant (open spans deeper down stay
// serializable: snapshots render them with a provisional end), and emits
// the structured completion line.
func (s *Server) finishJob(j *Job, res *JobResult, err error, stage *obs.Span) {
	s.mu.Lock()
	if j.state == StateDone || j.state == StateFailed || j.state == StateCanceled {
		s.mu.Unlock()
		stage.End()
		return
	}
	j.finished = time.Now()
	// Progress is a streaming view; a finished job (including failed or
	// canceled fleet jobs) must stop reporting it on GET and /metrics.
	j.progress = nil
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
		j.httpStatus = http.StatusOK
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = StateCanceled
		j.errMsg = err.Error()
		// Non-standard but unambiguous "client closed request".
		j.httpStatus = 499
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		var pe *shard.PanicError
		if errors.As(err, &pe) {
			j.httpStatus = http.StatusInternalServerError
		} else {
			// Non-panic runtime failures trace back to the job
			// parameters (solver/evaluator rejected them).
			j.httpStatus = http.StatusUnprocessableEntity
		}
	}
	close(j.done)
	state, errMsg := j.state, j.errMsg
	queueMS, runMS := j.view(j.finished).QueueMS, j.view(j.finished).RunMS
	s.mu.Unlock()

	// The job is final past this point: no other goroutine writes its trace
	// again, so ending the root and draining the drop counter race nothing.
	j.root.SetAttr("state", string(state))
	if errMsg != "" {
		j.root.SetAttr("error", errMsg)
	}
	j.root.EndWith(stage)
	if d := j.trace.Dropped(); d > 0 {
		s.droppedSpans.Add(d)
	}
	attrs := []any{
		"trace_id", j.trace.ID(), "job_id", j.id, "state", string(state),
		"queue_ms", queueMS, "run_ms", runMS,
	}
	if errMsg != "" {
		attrs = append(attrs, "error", errMsg)
	}
	if state == StateDone {
		s.log.Info("job finished", attrs...)
	} else {
		s.log.Warn("job finished", attrs...)
	}
}

// jobJSON is the wire form of a job.
type jobJSON struct {
	ID        string    `json:"id"`
	Tag       string    `json:"tag,omitempty"`
	State     JobState  `json:"state"`
	Error     string    `json:"error,omitempty"`
	Submitted time.Time `json:"submitted"`
	QueueMS   int64     `json:"queue_ms"`
	RunMS     int64     `json:"run_ms"`
	// Progress reports a running fleet job's streaming state — partial
	// results before the job finishes.
	Progress *FleetProgress `json:"progress,omitempty"`
	Result   *JobResult     `json:"result,omitempty"`
}

// view renders a job under the server lock.
func (j *Job) view(now time.Time) jobJSON {
	v := jobJSON{
		ID:        j.id,
		Tag:       j.tag,
		State:     j.state,
		Error:     j.errMsg,
		Submitted: j.submitted,
	}
	switch {
	case j.started.IsZero():
		// Still queued: everything so far is queue time.
		end := now
		if !j.finished.IsZero() {
			end = j.finished
		}
		v.QueueMS = end.Sub(j.submitted).Milliseconds()
	default:
		v.QueueMS = j.started.Sub(j.submitted).Milliseconds()
		end := now
		if !j.finished.IsZero() {
			end = j.finished
		}
		v.RunMS = end.Sub(j.started).Milliseconds()
	}
	v.Result = j.result
	if j.result == nil {
		v.Progress = j.progress
	}
	return v
}

// Package service exposes the OSCAR engine as a long-running HTTP job
// server: clients POST reconstruction jobs (problem spec, device, grid,
// solver options as JSON), the server runs them through a shared execution
// engine with a bounded worker pool, and identical device configurations
// share one memoizing execution cache across requests — the service-level
// deployment the ROADMAP calls for.
//
// Endpoints:
//
//	POST   /jobs      submit a job; "wait": true streams the result on the
//	                  open connection (disconnecting cancels the solve),
//	                  otherwise returns 202 with the job id to poll
//	GET    /jobs      list jobs (newest last)
//	GET    /jobs/{id} poll one job (state, timings, result when done)
//	DELETE /jobs/{id} cancel a queued or running job
//	GET    /stats     cache hit/miss/size per device configuration,
//	                  job counts by state, the last 32 jobs with their
//	                  timings, recovered panics, fleet retry and
//	                  quarantine totals, artifact-store counters
//	GET    /metrics   Prometheus text-format export: job states, cache
//	                  counters, fleet retry/quarantine counters, learned
//	                  batch-size and tail-estimate gauges, artifact-store
//	                  counters, per-stage latency histograms
//	GET    /healthz   liveness probe
//
//	GET    /landscapes             list published landscape artifacts
//	GET    /landscapes/{id}        one artifact's metadata
//	GET    /landscapes/{id}/grid   the artifact's dense grid data
//	POST   /landscapes/{id}/query  batch-evaluate the fitted surrogate
//	                               (values and optional gradients; never
//	                               touches a backend)
//
// /stats and /metrics render one snapshot of the server state, read under
// one acquisition of the server lock, so every counter they share agrees.
//
// Every finished reconstruction publishes its landscape into a
// content-addressed artifact store (disk-backed when Config.ArtifactDir is
// set, so artifacts survive restarts) and reports the artifact id in its
// result. The query endpoint evaluates batches on a fitted spline surrogate
// served from a bounded LRU: hot artifacts never refit, evicted ones refit
// on demand with bit-identical results.
//
// Jobs carrying a "fleet" block run in fleet mode: sampling is dispatched
// across a list of virtual devices with adaptive batch sizing
// (internal/fleet) and streamed into an incremental reconstruction; polling
// such a job while it runs returns progressive partial results. Fleet jobs
// accept deterministic fault-injection scenarios (calibration drift,
// dropouts, correlated queue spikes and retry storms) per device or shared
// across the fleet, and a risk-aware scheduling mode that caps batch sizes
// by learned tail exposure, retries failures with backoff, and quarantines
// persistently failing devices.
//
// Every job runs under its own context.Context: client disconnects (for
// wait-mode submissions), DELETE, and server shutdown all cancel the solve
// through the engine's existing cancellation plumbing. A shard.Try boundary
// around each job and each request converts internal panics — on the job
// goroutine or on any shard worker below it — into HTTP errors instead of
// process death.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/shard"
)

// Config bounds the server.
type Config struct {
	// MaxConcurrent bounds reconstruction jobs running at once (further
	// submissions queue). Default 8.
	MaxConcurrent int
	// JobWorkers is the per-job worker budget for the execution engine and
	// the sharded solver (0 = GOMAXPROCS).
	JobWorkers int
	// MaxGridPoints rejects grids larger than this at submission (413-free
	// simplicity: it is a 400). Default 1<<20.
	MaxGridPoints int
	// MaxQubits rejects statevector/density jobs beyond this size.
	// Default 20.
	MaxQubits int
	// Quantum is the cache parameter quantization step (0 = engine
	// default).
	Quantum float64
	// MaxJobsKept bounds the finished-job history; the oldest finished
	// jobs are evicted first. Default 512.
	MaxJobsKept int
	// MaxBodyBytes bounds request bodies. Default 1<<20.
	MaxBodyBytes int64
	// ArtifactDir, when set, persists published landscape artifacts there so
	// they survive restarts. Empty keeps them in memory only.
	ArtifactDir string
	// ArtifactLRU bounds the fitted interpolators kept hot for the
	// /landscapes query path (artifacts beyond it refit on demand,
	// bit-identically). Default 32.
	ArtifactLRU int
	// MaxQueryPoints bounds one /landscapes query batch. Default 1<<16.
	MaxQueryPoints int
	// Logger receives the server's structured log lines (every one carries
	// trace_id/job_id where applicable). Nil uses slog.Default().
	Logger *slog.Logger
	// DisableTracing turns off per-job tracing entirely: jobs run with a
	// nil tracer (the zero-cost fast path) and GET /jobs/{id}/trace answers
	// 404.
	DisableTracing bool
	// MaxTraceSpans caps recorded spans per job trace; starts beyond it are
	// counted as dropped, not recorded. 0 = obs.DefaultMaxSpans.
	MaxTraceSpans int
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.JobWorkers < 0 {
		c.JobWorkers = 1
	}
	if c.MaxGridPoints <= 0 {
		c.MaxGridPoints = 1 << 20
	}
	if c.MaxQubits <= 0 {
		c.MaxQubits = 20
	}
	if c.Quantum <= 0 {
		c.Quantum = exec.DefaultQuantum
	}
	if c.MaxJobsKept <= 0 {
		c.MaxJobsKept = 512
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.ArtifactLRU <= 0 {
		c.ArtifactLRU = 32
	}
	if c.MaxQueryPoints <= 0 {
		c.MaxQueryPoints = 1 << 16
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the reconstruction job service.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	sem   chan struct{}
	start time.Time

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for listing and eviction
	seq    int64
	caches map[string]*exec.Cache

	// artifacts is the landscape-as-a-service store: finished
	// reconstructions publish into it and /landscapes serves out of it.
	artifacts *artifactStore

	// log is the structured logger; metrics holds the per-stage latency
	// histograms fed by span completions (the tracer OnEnd hook).
	log     *slog.Logger
	metrics *obs.Registry

	panics atomic.Int64
	// fleetRetries and fleetQuarantines accumulate over finished fleet
	// jobs: failed dispatches that were retried or re-dispatched, and
	// quarantine transitions (bench + re-admit).
	fleetRetries     atomic.Int64
	fleetQuarantines atomic.Int64
	// droppedSpans accumulates span starts rejected by per-job caps, over
	// finished jobs.
	droppedSpans atomic.Int64
}

// New builds a server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		sem:        make(chan struct{}, cfg.MaxConcurrent),
		start:      time.Now(),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		caches:     make(map[string]*exec.Cache),
		artifacts:  newArtifactStore(cfg.ArtifactDir, cfg.ArtifactLRU, cfg.JobWorkers),
		log:        cfg.Logger,
		metrics:    obs.NewRegistry(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /landscapes", s.handleArtifactList)
	mux.HandleFunc("GET /landscapes/{id}", s.handleArtifactGet)
	mux.HandleFunc("GET /landscapes/{id}/grid", s.handleArtifactGrid)
	mux.HandleFunc("POST /landscapes/{id}/query", s.handleArtifactQuery)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler with a request-level panic boundary: a
// handler panic answers 500 (best effort) and logs its stack instead of
// killing the connection handler goroutine with a stack dump.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if err := shard.Try(func() error { s.mux.ServeHTTP(w, r); return nil }); err != nil {
		s.panics.Add(1)
		s.log.Error("request panicked", "method", r.Method, "path", r.URL.Path,
			"error", err.Error(), "stack", string(err.(*shard.PanicError).Stack))
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": err.Error()})
	}
}

// Close cancels every in-flight job and waits for them to drain. The server
// keeps answering requests (new submissions fail fast with canceled jobs);
// callers shut the HTTP listener down separately.
func (s *Server) Close() {
	s.baseCancel()
	s.wg.Wait()
}

// Drain waits up to timeout for in-flight jobs to finish naturally, then
// cancels the stragglers — the graceful half of shutdown.
func (s *Server) Drain(timeout time.Duration) {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
	}
	s.Close()
}

// cacheFor returns the shared cache for a device configuration, creating it
// on first use.
func (s *Server) cacheFor(configKey string) *exec.Cache {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.caches[configKey]
	if !ok {
		c = exec.NewCache(s.cfg.Quantum)
		s.caches[configKey] = c
	}
	return c
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "malformed job: " + err.Error()})
		return
	}
	// The trace starts before validation so rejected submissions are
	// measured too (their tracer is simply discarded with the request).
	tr := s.newTracer()
	root := tr.Start("job")
	vspan := root.Child("validate")
	built, err := buildJob(spec, s.cfg)
	vspan.SetError(err)
	vspan.End()
	if err != nil {
		root.End()
		status := http.StatusBadRequest
		var se *specError
		if !errors.As(err, &se) {
			status = http.StatusInternalServerError
		}
		s.log.Warn("job rejected", "trace_id", tr.ID(), "error", err.Error())
		writeJSON(w, status, map[string]any{"error": err.Error()})
		return
	}

	j := &Job{
		tag:       spec.Tag,
		spec:      spec,
		built:     built,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
		trace:     tr,
		root:      root,
	}
	if built.cacheable {
		j.cache = s.cacheFor(built.configKey)
	}

	// Wait-mode jobs live on the request context (client disconnect
	// cancels the solve); async jobs live on the server context (DELETE
	// cancels). Both die on shutdown.
	parent := s.baseCtx
	if spec.Wait {
		parent = r.Context()
	}
	ctx, cancel := context.WithCancel(parent)
	j.cancel = cancel
	if spec.Wait {
		stop := context.AfterFunc(s.baseCtx, cancel)
		defer stop()
	}
	// The root span rides the job context: every layer below picks it up
	// via obs.Start and attaches its stage spans to this job's trace.
	ctx = obs.ContextWithSpan(ctx, root)

	s.mu.Lock()
	s.seq++
	j.id = fmt.Sprintf("j%06d", s.seq)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	s.mu.Unlock()
	root.SetAttr("job_id", j.id)
	s.log.Info("job submitted",
		"trace_id", tr.ID(), "job_id", j.id, "tag", j.tag,
		"wait", spec.Wait, "fleet", built.fleetOpts != nil,
		"grid_points", built.grid.Size())

	s.wg.Add(1)
	if !spec.Wait {
		go s.runJob(ctx, j)
		writeJSON(w, http.StatusAccepted, map[string]any{"id": j.id, "state": StateQueued})
		return
	}
	s.runJob(ctx, j)
	s.mu.Lock()
	status := j.httpStatus
	view := j.view(time.Now())
	s.mu.Unlock()
	if status == 0 {
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, view)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var view jobJSON
	if ok {
		view = j.view(time.Now())
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	s.mu.Lock()
	views := make([]jobJSON, 0, len(s.order))
	for _, id := range s.order {
		v := s.jobs[id].view(now)
		v.Result = nil // summaries only; poll the job for its result
		views = append(views, v)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var cancel context.CancelFunc
	if ok {
		cancel = j.cancel
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown job"})
		return
	}
	cancel()
	// Wait for the job to acknowledge so the response reflects its final
	// state (cancellation stops the solve between engine chunks / solver
	// iterations, so this is prompt).
	select {
	case <-j.done:
	case <-time.After(5 * time.Second):
	}
	s.mu.Lock()
	view := j.view(time.Now())
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

// evictLocked trims finished jobs beyond MaxJobsKept, oldest first. Unfinished
// jobs are never evicted.
func (s *Server) evictLocked() {
	excess := len(s.order) - s.cfg.MaxJobsKept
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		finished := j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
		if excess > 0 && finished {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// jsonFloat is a float64 whose JSON form is null when non-finite —
// encoding/json rejects NaN/±Inf outright, which would otherwise turn a
// response carrying the documented NaN sentinel into an empty body.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (v jsonFloat) MarshalJSON() ([]byte, error) {
	f := float64(v)
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, f, 'g', -1, 64), nil
}

// jsonFloats is a float64 slice encoding non-finite entries as null.
type jsonFloats []float64

// MarshalJSON implements json.Marshaler.
func (d jsonFloats) MarshalJSON() ([]byte, error) {
	return appendFloats(make([]byte, 0, 2+16*len(d)), d), nil
}

// appendFloats appends d as a JSON array, non-finite entries as null.
func appendFloats(buf []byte, d []float64) []byte {
	buf = append(buf, '[')
	for i, v := range d {
		if i > 0 {
			buf = append(buf, ',')
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			buf = append(buf, "null"...)
		} else {
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
		}
	}
	return append(buf, ']')
}

// marshalJSON encodes v as every response body is encoded: HTML characters
// left unescaped, with a trailing newline.
func marshalJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Encode before writing the header: an encoding failure after
	// WriteHeader could only produce a truncated 200.
	body, err := marshalJSON(v)
	if err != nil {
		status = http.StatusInternalServerError
		body = fmt.Appendf(nil, "{\"error\":%q}\n", "encoding response: "+err.Error())
	}
	writeBody(w, status, body)
}

// writeBody writes an encoded JSON response.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

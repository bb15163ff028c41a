package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/obs"
	"repro/internal/shard"
)

// smallJob is a fast analytic reconstruction: 8-qubit 3-regular MaxCut on a
// 12x14 Table-1-style grid, 25% sampling.
func smallJob() string {
	return `{
		"problem": {"kind": "maxcut3", "n": 8, "seed": 7},
		"backend": {"kind": "analytic"},
		"grid": {"beta_n": 12, "gamma_n": 14},
		"options": {"sampling_fraction": 0.25, "seed": 1},
		"wait": true
	}`
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func do(t testing.TB, s *Server, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	out := map[string]any{}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: non-JSON response %q", method, path, rec.Body.String())
	}
	return rec, out
}

func TestSubmitWaitHappyPath(t *testing.T) {
	s := newTestServer(t, Config{})
	rec, out := do(t, s, "POST", "/jobs", smallJob())
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, out)
	}
	if out["state"] != string(StateDone) {
		t.Fatalf("state %v", out["state"])
	}
	res, _ := out["result"].(map[string]any)
	if res == nil {
		t.Fatalf("no result: %v", out)
	}
	if got := res["grid_size"].(float64); got != 12*14 {
		t.Fatalf("grid_size %v", got)
	}
	if got := res["samples"].(float64); got != 42 {
		t.Fatalf("samples %v", got)
	}
	if res["arg_min"].(float64) < 0 {
		t.Fatal("no finite minimum in reconstruction")
	}
	// First run on a fresh cache: all misses.
	if res["cache_hits"].(float64) != 0 || res["cache_misses"].(float64) != 42 {
		t.Fatalf("cache accounting %v/%v", res["cache_hits"], res["cache_misses"])
	}
}

// TestP2JobEndToEnd runs a depth-2 QAOA job through the grid shorthand's new
// "p" field: 4 parameter axes, a true 4-D reconstruction, and ND-clean
// min/max points with one coordinate per axis.
func TestP2JobEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{
		"problem": {"kind": "maxcut3", "n": 8, "seed": 7},
		"backend": {"kind": "statevector", "ansatz": "qaoa", "depth": 2},
		"grid": {"beta_n": 5, "gamma_n": 5, "p": 2},
		"options": {"sampling_fraction": 0.3, "seed": 1},
		"wait": true
	}`
	rec, out := do(t, s, "POST", "/jobs", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, out)
	}
	if out["state"] != string(StateDone) {
		t.Fatalf("state %v (%v)", out["state"], out["error"])
	}
	res, _ := out["result"].(map[string]any)
	if res == nil {
		t.Fatalf("no result: %v", out)
	}
	if got := res["grid_size"].(float64); got != 5*5*5*5 {
		t.Fatalf("grid_size %v, want 625", got)
	}
	for _, key := range []string{"min_point", "max_point"} {
		pt, _ := res[key].([]any)
		if len(pt) != 4 {
			t.Fatalf("%s = %v, want 4 coordinates (one per depth-2 axis)", key, res[key])
		}
		for i, c := range pt {
			v := c.(float64)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s[%d] = %v", key, i, v)
			}
		}
	}
}

func TestSecondIdenticalJobHitsCache(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "POST", "/jobs", smallJob())
	_, out := do(t, s, "POST", "/jobs", smallJob())
	res := out["result"].(map[string]any)
	if hits := res["cache_hits"].(float64); hits != 42 {
		t.Fatalf("second identical job hit %v of 42", hits)
	}
	if misses := res["cache_misses"].(float64); misses != 0 {
		t.Fatalf("second identical job missed %v times", misses)
	}
	// The shared cache shows up on /stats with one config.
	_, stats := do(t, s, "GET", "/stats", "")
	cache := stats["cache"].(map[string]any)
	configs := cache["configs"].([]any)
	if len(configs) != 1 {
		t.Fatalf("%d cache configs, want 1 (identical jobs must share)", len(configs))
	}
	if cache["total_hits"].(float64) != 42 {
		t.Fatalf("total hits %v", cache["total_hits"])
	}
}

func TestDifferentConfigsDoNotShareCache(t *testing.T) {
	s := newTestServer(t, Config{})
	do(t, s, "POST", "/jobs", smallJob())
	// Same grid and options, different problem seed: separate cache.
	other := strings.Replace(smallJob(), `"seed": 7`, `"seed": 8`, 1)
	_, out := do(t, s, "POST", "/jobs", other)
	res := out["result"].(map[string]any)
	if hits := res["cache_hits"].(float64); hits != 0 {
		t.Fatalf("differently-configured job stole %v cache hits", hits)
	}
	_, stats := do(t, s, "GET", "/stats", "")
	configs := stats["cache"].(map[string]any)["configs"].([]any)
	if len(configs) != 2 {
		t.Fatalf("%d cache configs, want 2", len(configs))
	}
}

func TestMalformedJSON(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, body := range []string{
		"{not json",
		`{"problem": {"kind": "maxcut3"}, "unknown_field": 1}`,
		`[]`,
		"",
	} {
		rec, out := do(t, s, "POST", "/jobs", body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, rec.Code)
		}
		if out["error"] == nil {
			t.Fatalf("body %q: no error message", body)
		}
	}
}

// badSpecCases are job specs validation must answer with 400; they also
// seed FuzzJobSpec.
var badSpecCases = map[string]string{
	"unknown problem":         `{"problem":{"kind":"nope"},"backend":{"kind":"analytic"},"grid":{"beta_n":4,"gamma_n":4},"options":{"sampling_fraction":0.5}}`,
	"oversized grid":          `{"problem":{"kind":"maxcut3","n":8},"backend":{"kind":"analytic"},"grid":{"beta_n":50,"gamma_n":50},"options":{"sampling_fraction":0.1}}`,
	"too many qubits":         `{"problem":{"kind":"maxcut3","n":14},"backend":{"kind":"statevector"},"grid":{"beta_n":4,"gamma_n":4},"options":{"sampling_fraction":0.5}}`,
	"bad fraction":            `{"problem":{"kind":"maxcut3","n":8},"backend":{"kind":"analytic"},"grid":{"beta_n":4,"gamma_n":4},"options":{"sampling_fraction":1.5}}`,
	"arity mismatch":          `{"problem":{"kind":"maxcut3","n":8},"backend":{"kind":"statevector","depth":2},"grid":{"beta_n":4,"gamma_n":4},"options":{"sampling_fraction":0.5}}`,
	"1 axis, 2-param backend": `{"problem":{"kind":"maxcut3","n":8},"backend":{"kind":"analytic"},"grid":{"axes":[{"name":"x","min":0,"max":1,"n":4}]},"options":{"sampling_fraction":0.5}}`,
	"negative p":              `{"problem":{"kind":"maxcut3","n":8},"backend":{"kind":"analytic"},"grid":{"beta_n":4,"gamma_n":4,"p":-1},"options":{"sampling_fraction":0.5}}`,
	"p with explicit axes":    `{"problem":{"kind":"maxcut3","n":8},"backend":{"kind":"analytic"},"grid":{"p":2,"axes":[{"name":"x","min":0,"max":1,"n":4},{"name":"y","min":0,"max":1,"n":4}]},"options":{"sampling_fraction":0.5}}`,
	"p=2 vs depth-1 backend":  `{"problem":{"kind":"maxcut3","n":8},"backend":{"kind":"analytic"},"grid":{"beta_n":4,"gamma_n":4,"p":2},"options":{"sampling_fraction":0.5}}`,
	"density too big":         `{"problem":{"kind":"sk","n":14},"backend":{"kind":"density"},"grid":{"beta_n":4,"gamma_n":4},"options":{"sampling_fraction":0.5}}`,
	"non-graph qaoa":          `{"problem":{"kind":"h2"},"backend":{"kind":"analytic"},"grid":{"beta_n":4,"gamma_n":4},"options":{"sampling_fraction":0.5}}`,
	"odd maxcut3 n":           `{"problem":{"kind":"maxcut3","n":5},"backend":{"kind":"analytic"},"grid":{"beta_n":4,"gamma_n":4},"options":{"sampling_fraction":0.5}}`,
	"degenerate mesh":         `{"problem":{"kind":"mesh","rows":0,"cols":0},"backend":{"kind":"analytic"},"grid":{"beta_n":4,"gamma_n":4},"options":{"sampling_fraction":0.5}}`,
	// Huge sizes must be rejected before anything of that size is built.
	"huge p":       `{"problem":{"kind":"maxcut3","n":8},"backend":{"kind":"analytic"},"grid":{"beta_n":2,"gamma_n":2,"p":1000000000},"options":{"sampling_fraction":0.5}}`,
	"huge sk":      `{"problem":{"kind":"sk","n":1000000000},"backend":{"kind":"analytic"},"grid":{"beta_n":4,"gamma_n":4},"options":{"sampling_fraction":0.5}}`,
	"huge maxcut3": `{"problem":{"kind":"maxcut3","n":1000000000},"backend":{"kind":"analytic"},"grid":{"beta_n":4,"gamma_n":4},"options":{"sampling_fraction":0.5}}`,
	"huge mesh":    `{"problem":{"kind":"mesh","rows":100000,"cols":100000},"backend":{"kind":"analytic"},"grid":{"beta_n":4,"gamma_n":4},"options":{"sampling_fraction":0.5}}`,
}

func TestBadSpecs(t *testing.T) {
	s := newTestServer(t, Config{MaxGridPoints: 1000, MaxQubits: 12})
	for name, body := range badSpecCases {
		rec, out := do(t, s, "POST", "/jobs", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%v), want 400", name, rec.Code, out["error"])
		}
	}
}

func TestConcurrentJobsShareCache(t *testing.T) {
	s := newTestServer(t, Config{MaxConcurrent: 8})
	// 8 concurrent jobs, same device config, different sampling seeds (so
	// they overlap but do not duplicate work exactly).
	ids := make([]string, 8)
	for i := range ids {
		body := strings.Replace(smallJob(), `"wait": true`, `"wait": false`, 1)
		body = strings.Replace(body, `"seed": 1`, fmt.Sprintf(`"seed": %d`, i), 1)
		rec, out := do(t, s, "POST", "/jobs", body)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d: status %d %v", i, rec.Code, out)
		}
		ids[i] = out["id"].(string)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range ids {
		for {
			_, out := do(t, s, "GET", "/jobs/"+id, "")
			if out["state"] == string(StateDone) {
				break
			}
			if out["state"] == string(StateFailed) || out["state"] == string(StateCanceled) {
				t.Fatalf("job %s: %v (%v)", id, out["state"], out["error"])
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %v", id, out["state"])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	_, stats := do(t, s, "GET", "/stats", "")
	cache := stats["cache"].(map[string]any)
	if n := len(cache["configs"].([]any)); n != 1 {
		t.Fatalf("%d cache configs, want 1 shared across all jobs", n)
	}
	// 8 jobs x 42 samples over a 168-point grid must overlap: the shared
	// cache cannot have executed more than the grid size.
	if l := cache["total_len"].(float64); l > 168 {
		t.Fatalf("cache len %v exceeds grid size", l)
	}
	if hits := cache["total_hits"].(float64); hits == 0 {
		t.Fatal("8 overlapping jobs recorded zero cache hits")
	}
}

func TestClientDisconnectCancelsSolve(t *testing.T) {
	s := newTestServer(t, Config{})
	// A slow job: 20-qubit (the default MaxQubits) statevector over a
	// 30x30 grid, fully sampled, which runs far longer than the 30 ms before
	// the client walks away.
	body := `{
		"problem": {"kind": "maxcut3", "n": 20, "seed": 3},
		"backend": {"kind": "statevector"},
		"grid": {"beta_n": 30, "gamma_n": 30},
		"options": {"sampling_fraction": 1.0},
		"wait": true
	}`
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel() // the client walks away mid-solve
	}()
	req := httptest.NewRequest("POST", "/jobs", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	start := time.Now()
	s.ServeHTTP(rec, req)
	elapsed := time.Since(start)
	if elapsed > 10*time.Second {
		t.Fatalf("disconnected solve ran %v before noticing", elapsed)
	}
	if rec.Code != 499 {
		t.Fatalf("status %d, want 499", rec.Code)
	}
	// The job is recorded as canceled, not failed or done.
	_, list := do(t, s, "GET", "/jobs", "")
	jobs := list["jobs"].([]any)
	if len(jobs) != 1 {
		t.Fatalf("%d jobs", len(jobs))
	}
	if st := jobs[0].(map[string]any)["state"]; st != string(StateCanceled) {
		t.Fatalf("job state %v, want canceled", st)
	}
}

func TestDeleteCancelsAsyncJob(t *testing.T) {
	s := newTestServer(t, Config{})
	// The slow job of TestClientDisconnectCancelsSolve: it must still be
	// running when the DELETE lands.
	body := `{
		"problem": {"kind": "maxcut3", "n": 20, "seed": 3},
		"backend": {"kind": "statevector"},
		"grid": {"beta_n": 30, "gamma_n": 30},
		"options": {"sampling_fraction": 1.0}
	}`
	rec, out := do(t, s, "POST", "/jobs", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", rec.Code, out)
	}
	id := out["id"].(string)
	time.Sleep(20 * time.Millisecond) // let it start
	_, out = do(t, s, "DELETE", "/jobs/"+id, "")
	if st := out["state"]; st != string(StateCanceled) {
		t.Fatalf("state after DELETE: %v (%v)", st, out["error"])
	}
}

func TestUnknownJob(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec, _ := do(t, s, "GET", "/jobs/zzz", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("GET unknown: %d", rec.Code)
	}
	if rec, _ := do(t, s, "DELETE", "/jobs/zzz", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("DELETE unknown: %d", rec.Code)
	}
}

// TestJobPanicIsContained injects panics through test-only evaluators (no
// spec can build one) at three depths — directly in the evaluator, in a
// nested shard.ForRange shard the evaluator starts, and on one device of a
// fleet job — under several engine worker budgets, and checks each becomes
// one failed job with a 500, a closed run span carrying the error and the
// panicking frame's stack, one ERROR log line, one count in the panics
// counter, and a server that keeps serving.
func TestJobPanicIsContained(t *testing.T) {
	cases := []struct {
		name, job string
		inject    func(*builtJob)
		frame     string // a function the recorded stack must contain
	}{
		{"evaluator", smallJob(), func(b *builtJob) { b.eval = panicEvaluator{} },
			"panicEvaluator.EvaluateBatch"},
		{"nested-shard", smallJob(), func(b *builtJob) { b.eval = nestedPanicEvaluator{} },
			"panicInKernelShard"},
		{"fleet-device", fleetJob(""), func(b *builtJob) {
			b.fleetDevices[1].Eval = panicDevice{b.fleetDevices[1].Eval}
		}, "panicDevice.Evaluate"},
	}
	for _, workers := range []int{1, 2, 8} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				var logs bytes.Buffer
				s := newTestServer(t, Config{
					JobWorkers: workers,
					Logger:     slog.New(slog.NewTextHandler(&logs, nil)),
				})
				j := newInjectedJob(t, s, c.job, c.inject)
				s.runJob(obs.ContextWithSpan(context.Background(), j.root), j, j.root.Child("queue"))

				s.mu.Lock()
				state, status, msg := j.state, j.httpStatus, j.errMsg
				s.mu.Unlock()
				if state != StateFailed {
					t.Fatalf("state %v (%q), want failed", state, msg)
				}
				if status != http.StatusInternalServerError {
					t.Fatalf("status %d, want 500", status)
				}
				if !strings.Contains(msg, "internal panic") {
					t.Fatalf("error %q", msg)
				}
				run := findSpan(j.trace.Snapshot().Spans, "run")
				if run == nil || run.Open {
					t.Fatalf("run span missing or left open: %+v", run)
				}
				if e, _ := run.Attrs["error"].(string); !strings.Contains(e, "internal panic") {
					t.Fatalf("run span error attr %q", e)
				}
				if st, _ := run.Attrs["stack"].(string); !strings.Contains(st, c.frame) {
					t.Fatalf("run span stack lacks %s:\n%s", c.frame, st)
				}
				line := logs.String()
				if strings.Count(line, "level=ERROR") != 1 ||
					!strings.Contains(line, "trace_id="+j.trace.ID()) ||
					!strings.Contains(line, "job_id="+j.id) || !strings.Contains(line, c.frame) {
					t.Fatalf("want one ERROR line with trace_id, job_id and stack, got:\n%s", line)
				}
				if got := s.panics.Load(); got != 1 {
					t.Fatalf("panics counter %d, want 1", got)
				}
				// The server still serves requests afterwards.
				if rec, _ := do(t, s, "GET", "/healthz", ""); rec.Code != http.StatusOK {
					t.Fatalf("healthz after panic: %d", rec.Code)
				}
				if _, stats := do(t, s, "GET", "/stats", ""); stats["panics"].(float64) != 1 {
					t.Fatalf("/stats panics %v, want 1", stats["panics"])
				}
			})
		}
	}
}

// newInjectedJob builds and registers a job from spec the way handleSubmit
// does, with a trace, after inject has swapped in a test-only evaluator.
func newInjectedJob(t *testing.T, s *Server, spec string, inject func(*builtJob)) *Job {
	t.Helper()
	js := new(JobSpec)
	if err := json.Unmarshal([]byte(spec), js); err != nil {
		t.Fatal(err)
	}
	built, err := buildJob(js, s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	inject(built)
	tr := s.newTracer()
	j := &Job{
		id:        "jpanic",
		spec:      js,
		built:     built,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
		trace:     tr,
		root:      tr.Start("job"),
		cancel:    func() {},
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	s.wg.Add(1)
	return j
}

type panicEvaluator struct{}

func (panicEvaluator) EvaluateBatch(ctx context.Context, params [][]float64) ([]float64, error) {
	panic("qsim blew up")
}

// nestedPanicEvaluator fans every batch out over two kernel shards, the
// second of which panics — a panic one goroutine below the engine worker.
type nestedPanicEvaluator struct{}

func (nestedPanicEvaluator) EvaluateBatch(ctx context.Context, params [][]float64) ([]float64, error) {
	shard.ForRange(2, 2, func(slot, _, _ int) {
		if slot == 1 {
			panicInKernelShard()
		}
	})
	return make([]float64, len(params)), nil
}

func panicInKernelShard() { panic("kernel shard blew up") }

// panicDevice is a fleet device whose circuit evaluations panic.
type panicDevice struct{ backend.Evaluator }

func (panicDevice) Evaluate([]float64) (float64, error) { panic("device blew up") }

func TestSnapshotRestoreAcrossRestart(t *testing.T) {
	cfg := Config{}
	a := newTestServer(t, cfg)
	do(t, a, "POST", "/jobs", smallJob())

	var buf bytes.Buffer
	if err := a.SnapshotCaches(&buf); err != nil {
		t.Fatal(err)
	}

	b := newTestServer(t, cfg)
	if err := b.RestoreCaches(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if n := b.CacheEntries(); n != 42 {
		t.Fatalf("restored %d entries, want 42", n)
	}
	_, out := do(t, b, "POST", "/jobs", smallJob())
	res := out["result"].(map[string]any)
	if hits := res["cache_hits"].(float64); hits != 42 {
		t.Fatalf("warm-started server hit %v of 42", hits)
	}
}

func TestCacheFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.gob")
	a := newTestServer(t, Config{})
	do(t, a, "POST", "/jobs", smallJob())
	if err := a.SaveCacheFile(path); err != nil {
		t.Fatal(err)
	}

	b := newTestServer(t, Config{})
	if err := b.LoadCacheFile(path); err != nil {
		t.Fatal(err)
	}
	_, out := do(t, b, "POST", "/jobs", smallJob())
	if hits := out["result"].(map[string]any)["cache_hits"].(float64); hits != 42 {
		t.Fatalf("file warm-start hit %v of 42", hits)
	}

	// Missing file is a clean no-op; quantum mismatch is an error.
	c := newTestServer(t, Config{})
	if err := c.LoadCacheFile(filepath.Join(t.TempDir(), "absent.gob")); err != nil {
		t.Fatalf("missing file: %v", err)
	}
	d := newTestServer(t, Config{Quantum: 1e-3})
	if err := d.LoadCacheFile(path); err == nil {
		t.Fatal("want error loading archive with mismatched quantum")
	}
}

func TestShotJobsBypassCache(t *testing.T) {
	s := newTestServer(t, Config{})
	body := strings.Replace(smallJob(), `"kind": "analytic"`, `"kind": "analytic", "shots": 1000, "shot_seed": 5`, 1)
	_, out := do(t, s, "POST", "/jobs", body)
	if out["state"] != string(StateDone) {
		t.Fatalf("shot job: %v (%v)", out["state"], out["error"])
	}
	_, stats := do(t, s, "GET", "/stats", "")
	if n := len(stats["cache"].(map[string]any)["configs"].([]any)); n != 0 {
		t.Fatalf("stochastic job created %d caches", n)
	}
}

func TestStatsShape(t *testing.T) {
	s := newTestServer(t, Config{})
	// A fresh server lists no jobs as an empty array, not null.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if !strings.Contains(rec.Body.String(), `"recent":[]`) {
		t.Fatalf("fresh /stats: %s", rec.Body.String())
	}
	do(t, s, "POST", "/jobs", smallJob())
	_, stats := do(t, s, "GET", "/stats", "")
	jobs := stats["jobs"].(map[string]any)
	if jobs["total"].(float64) != 1 {
		t.Fatalf("jobs.total %v", jobs["total"])
	}
	recent := jobs["recent"].([]any)
	if len(recent) != 1 {
		t.Fatalf("recent %d", len(recent))
	}
	j := recent[0].(map[string]any)
	if j["state"] != string(StateDone) || j["run_ms"] == nil {
		t.Fatalf("recent job %v", j)
	}
	if stats["panics"].(float64) != 0 {
		t.Fatalf("panics %v", stats["panics"])
	}
}

// TestNonFiniteResultEncodes pins the JSON encoding of the NaN/Inf
// sentinels: encoding/json rejects non-finite float64s, so without the
// jsonFloat wrappers an all-NaN result would serialize to an empty body.
func TestNonFiniteResultEncodes(t *testing.T) {
	res := &JobResult{
		Min:    jsonFloat(math.NaN()),
		ArgMin: -1,
		Max:    jsonFloat(math.Inf(1)),
		ArgMax: -1,
		Data:   jsonFloats{1.5, math.NaN(), math.Inf(-1)},
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, jobJSON{ID: "x", State: StateDone, Result: res})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("non-finite result produced invalid JSON %q: %v", rec.Body.String(), err)
	}
	r := out["result"].(map[string]any)
	if r["min"] != nil || r["max"] != nil {
		t.Fatalf("non-finite extrema encoded as %v/%v, want null", r["min"], r["max"])
	}
	data := r["data"].([]any)
	if data[0].(float64) != 1.5 || data[1] != nil || data[2] != nil {
		t.Fatalf("data encoded as %v", data)
	}
}

// TestWriteJSONEncodeFailure: an unencodable value answers a 500 error
// document, never a truncated 200.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]any{"bad": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out["error"] == nil {
		t.Fatalf("body %q", rec.Body.String())
	}
}

func TestJobEviction(t *testing.T) {
	s := newTestServer(t, Config{MaxJobsKept: 3})
	for i := 0; i < 5; i++ {
		do(t, s, "POST", "/jobs", smallJob())
	}
	_, list := do(t, s, "GET", "/jobs", "")
	if n := len(list["jobs"].([]any)); n > 3 {
		t.Fatalf("%d jobs kept, want <= 3", n)
	}
}

package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

// fleetJob is a fast fleet-mode job: three heterogeneous virtual devices
// over the analytic backend, streaming thresholds, wait mode.
func fleetJob(extra string) string {
	return `{
		"problem": {"kind": "maxcut3", "n": 8, "seed": 7},
		"backend": {"kind": "analytic"},
		"grid": {"beta_n": 12, "gamma_n": 14},
		"options": {"sampling_fraction": 0.5, "seed": 3},
		"fleet": {
			"devices": [
				{"name": "hiq", "queue_median": 120, "sigma": 0.5, "exec": 1},
				{"name": "mid", "queue_median": 30, "sigma": 0.5, "exec": 5},
				{"name": "slow", "queue_median": 10, "sigma": 0.5, "exec": 12}
			]` + extra + `
		},
		"wait": true
	}`
}

func TestFleetJobHappyPath(t *testing.T) {
	s := newTestServer(t, Config{})
	rec, out := do(t, s, "POST", "/jobs", fleetJob(""))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, out)
	}
	if out["state"] != string(StateDone) {
		t.Fatalf("state %v error %v", out["state"], out["error"])
	}
	res, _ := out["result"].(map[string]any)
	if res == nil {
		t.Fatalf("no result: %v", out)
	}
	if got := res["samples"].(float64); got != 84 {
		t.Fatalf("samples %v, want 84 (50%% of 168)", got)
	}
	fl, _ := res["fleet"].(map[string]any)
	if fl == nil {
		t.Fatalf("no fleet summary: %v", res)
	}
	if fl["makespan_s"].(float64) <= 0 {
		t.Fatalf("fleet makespan %v", fl["makespan_s"])
	}
	if fl["speedup"].(float64) <= 1 {
		t.Fatalf("fleet speedup %v", fl["speedup"])
	}
	if int(fl["solves"].(float64)) < 1 {
		t.Fatalf("fleet solves %v", fl["solves"])
	}
	sizes, _ := fl["batch_sizes"].(map[string]any)
	if len(sizes) != 3 {
		t.Fatalf("batch sizes %v", fl["batch_sizes"])
	}
	// The queue-dominated device must have learned a larger batch than
	// the execution-dominated one.
	if sizes["hiq"].(float64) <= sizes["slow"].(float64) {
		t.Errorf("hiq learned %v, slow %v — adaptation did not separate them", sizes["hiq"], sizes["slow"])
	}
	perDev, _ := fl["jobs_per_device"].(map[string]any)
	total := 0.0
	for _, v := range perDev {
		total += v.(float64)
	}
	if total != 84 {
		t.Fatalf("per-device jobs sum to %v, want 84", total)
	}
}

func TestFleetJobEagerCutAndCache(t *testing.T) {
	s := newTestServer(t, Config{})
	// First run primes the shared cache (full wait).
	_, out := do(t, s, "POST", "/jobs", fleetJob(""))
	if out["state"] != string(StateDone) {
		t.Fatalf("first job: %v", out)
	}
	// Second identical fleet job: every point is cache-served at virtual
	// time zero.
	_, out = do(t, s, "POST", "/jobs", fleetJob(""))
	res := out["result"].(map[string]any)
	fl := res["fleet"].(map[string]any)
	if got := fl["cache_served"].(float64); got != 84 {
		t.Fatalf("cache served %v of 84", got)
	}
	if got := fl["makespan_s"].(float64); got != 0 {
		t.Fatalf("fully cached fleet run has makespan %v, want 0", got)
	}
	if res["cache_hits"].(float64) != 84 {
		t.Fatalf("cache hits %v, want 84", res["cache_hits"])
	}

	// Eager cut: heavy tails plus keep_fraction trims samples.
	cut := `,
			"seed": 99,
			"keep_fraction": 0.9,
			"thresholds": [0.5]`
	heavy := strings.Replace(fleetJob(cut), `"sigma": 0.5, "exec": 1`,
		`"sigma": 0.5, "exec": 1, "tail_prob": 0.3, "tail_factor": 40`, 1)
	// A different problem seed keeps this run off the primed cache.
	heavy = strings.Replace(heavy, `"seed": 7`, `"seed": 8`, 1)
	_, out = do(t, s, "POST", "/jobs", heavy)
	if out["state"] != string(StateDone) {
		t.Fatalf("eager job: %v", out)
	}
	res = out["result"].(map[string]any)
	fl = res["fleet"].(map[string]any)
	if fl["timeout_s"].(float64) > fl["makespan_s"].(float64) {
		t.Fatalf("timeout %v past makespan %v", fl["timeout_s"], fl["makespan_s"])
	}
	samples := res["samples"].(float64)
	if samples < 0.9*84 || samples > 84 {
		t.Fatalf("eager job kept %v samples of 84 at keep=0.9", samples)
	}
}

func TestFleetJobValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	bad := []string{
		// No devices.
		`{"problem": {"kind": "maxcut3", "n": 8, "seed": 7}, "backend": {"kind": "analytic"},
		  "grid": {"beta_n": 12, "gamma_n": 14}, "options": {"sampling_fraction": 0.5},
		  "fleet": {"devices": []}}`,
		// Negative queue median.
		`{"problem": {"kind": "maxcut3", "n": 8, "seed": 7}, "backend": {"kind": "analytic"},
		  "grid": {"beta_n": 12, "gamma_n": 14}, "options": {"sampling_fraction": 0.5},
		  "fleet": {"devices": [{"queue_median": -5}]}}`,
		// Missing exec time.
		`{"problem": {"kind": "maxcut3", "n": 8, "seed": 7}, "backend": {"kind": "analytic"},
		  "grid": {"beta_n": 12, "gamma_n": 14}, "options": {"sampling_fraction": 0.5},
		  "fleet": {"devices": [{"queue_median": 10}]}}`,
		// Failure probability 1.
		`{"problem": {"kind": "maxcut3", "n": 8, "seed": 7}, "backend": {"kind": "analytic"},
		  "grid": {"beta_n": 12, "gamma_n": 14}, "options": {"sampling_fraction": 0.5},
		  "fleet": {"devices": [{"queue_median": 10, "exec": 1, "failure_prob": 1.0}]}}`,
		// Threshold at 1.
		`{"problem": {"kind": "maxcut3", "n": 8, "seed": 7}, "backend": {"kind": "analytic"},
		  "grid": {"beta_n": 12, "gamma_n": 14}, "options": {"sampling_fraction": 0.5},
		  "fleet": {"devices": [{"queue_median": 10, "exec": 1}], "thresholds": [1.0]}}`,
		// Keep fraction out of range.
		`{"problem": {"kind": "maxcut3", "n": 8, "seed": 7}, "backend": {"kind": "analytic"},
		  "grid": {"beta_n": 12, "gamma_n": 14}, "options": {"sampling_fraction": 0.5},
		  "fleet": {"devices": [{"queue_median": 10, "exec": 1}], "keep_fraction": 2}}`,
		// An unknown field: tail_budget is a scheduler constant, not a spec field.
		`{"problem": {"kind": "maxcut3", "n": 8, "seed": 7}, "backend": {"kind": "analytic"},
		  "grid": {"beta_n": 12, "gamma_n": 14}, "options": {"sampling_fraction": 0.5},
		  "fleet": {"devices": [{"queue_median": 10, "exec": 1}], "risk_aware": true, "tail_budget": -1}}`,
	}
	for i, body := range bad {
		rec, _ := do(t, s, "POST", "/jobs", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("bad fleet spec %d answered %d, want 400", i, rec.Code)
		}
	}
	// Duplicate device names (explicit, or an explicit name colliding with
	// an unnamed device's default) would collapse the name-keyed result
	// maps and metrics gauges.
	for _, devs := range []string{
		`[{"name": "a", "queue_median": 10, "exec": 1}, {"name": "a", "queue_median": 20, "exec": 1}]`,
		`[{"queue_median": 10, "exec": 1}, {"name": "qpu-0", "queue_median": 20, "exec": 1}]`,
	} {
		body := `{"problem": {"kind": "maxcut3", "n": 8, "seed": 7}, "backend": {"kind": "analytic"},
		  "grid": {"beta_n": 12, "gamma_n": 14}, "options": {"sampling_fraction": 0.5},
		  "fleet": {"devices": ` + devs + `}}`
		rec, out := do(t, s, "POST", "/jobs", body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(out["error"].(string), "duplicate device name") {
			t.Errorf("duplicate device names answered %d %v, want 400", rec.Code, out["error"])
		}
	}
}

// TestFleetScenarioValidation pins 400s for malformed scenario specs, both
// per-device and fleet-level.
func TestFleetScenarioValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	mk := func(fleetExtra, devExtra string) string {
		return `{"problem": {"kind": "maxcut3", "n": 8, "seed": 7}, "backend": {"kind": "analytic"},
		  "grid": {"beta_n": 12, "gamma_n": 14}, "options": {"sampling_fraction": 0.5},
		  "fleet": {"devices": [{"queue_median": 10, "exec": 1` + devExtra + `}]` + fleetExtra + `}}`
	}
	bad := []string{
		// Unknown kind.
		mk("", `, "scenario": {"kind": "meteor"}`),
		// Missing kind.
		mk("", `, "scenario": {"duration": 10}`),
		// Drift without a rate.
		mk("", `, "scenario": {"kind": "drift"}`),
		// Dropout without a duration.
		mk("", `, "scenario": {"kind": "dropout", "start": 5}`),
		// Queue spikes with a non-amplifying factor.
		mk("", `, "scenario": {"kind": "queue_spikes", "spacing": 100, "duration": 50, "factor": 1}`),
		// Retry storm with zero probability.
		mk("", `, "scenario": {"kind": "retry_storm", "spacing": 100, "duration": 50, "prob": 0}`),
		// Negative parameter.
		mk("", `, "scenario": {"kind": "dropout", "start": -1, "duration": 10}`),
		// Fleet-level scenario is validated too.
		mk(`, "scenario": {"kind": "queue_spikes", "spacing": 0, "duration": 50, "factor": 4}`, ""),
	}
	for i, body := range bad {
		rec, out := do(t, s, "POST", "/jobs", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("bad scenario %d answered %d: %v", i, rec.Code, out["error"])
		}
	}
	// A well-formed scenario on a well-formed device is accepted and runs.
	good := mk("", `, "scenario": {"kind": "drift", "start": 0, "rate": 0.001, "max": 4}`)
	good = strings.Replace(good, `"fleet":`, `"wait": true, "fleet":`, 1)
	rec, out := do(t, s, "POST", "/jobs", good)
	if rec.Code != http.StatusOK || out["state"] != string(StateDone) {
		t.Fatalf("drift job answered %d: %v", rec.Code, out)
	}
}

// chaosFleetJob is a risk-aware fleet job whose second device drops out for
// the whole run, so it collects retries, quarantine events and tail
// estimates.
func chaosFleetJob() string {
	return `{
		"problem": {"kind": "maxcut3", "n": 8, "seed": 7},
		"backend": {"kind": "analytic"},
		"grid": {"beta_n": 12, "gamma_n": 14},
		"options": {"sampling_fraction": 0.5, "seed": 3},
		"fleet": {
			"seed": 7,
			"risk_aware": true,
			"devices": [
				{"name": "good", "queue_median": 30, "sigma": 0.5, "exec": 1},
				{"name": "dark", "queue_median": 10, "sigma": 0.5, "exec": 1,
				 "scenario": {"kind": "dropout", "start": 0, "duration": 1000000000}}
			]
		},
		"wait": true
	}`
}

// TestFleetChaosJob runs a risk-aware fleet job with a mid-run-forever
// dropout injected on one device and checks the robustness surface
// end-to-end: the job completes, the result reports retries, quarantine
// events, and per-device tail estimates, and /metrics and /stats expose the
// retry/quarantine counters.
func TestFleetChaosJob(t *testing.T) {
	s := newTestServer(t, Config{})
	rec, out := do(t, s, "POST", "/jobs", chaosFleetJob())
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, out)
	}
	if out["state"] != string(StateDone) {
		t.Fatalf("state %v error %v — a dropout must not fail the job", out["state"], out["error"])
	}
	res := out["result"].(map[string]any)
	fl, _ := res["fleet"].(map[string]any)
	if fl == nil {
		t.Fatalf("no fleet summary: %v", res)
	}
	if fl["retries"].(float64) == 0 {
		t.Error("no retries recorded under a dark device")
	}
	events, _ := fl["quarantine_events"].([]any)
	if len(events) == 0 {
		t.Fatal("no quarantine events recorded")
	}
	first := events[0].(map[string]any)
	if first["device"] != "dark" || first["reason"] == "" {
		t.Errorf("first quarantine event %v, want the dark device benched", first)
	}
	devs, _ := fl["devices"].([]any)
	if len(devs) != 2 {
		t.Fatalf("devices %v, want per-device state for both", fl["devices"])
	}
	for _, d := range devs {
		ds := d.(map[string]any)
		if ds["name"] == "dark" {
			if ds["quarantined"] != true || ds["fails"].(float64) == 0 {
				t.Errorf("dark device state %v, want quarantined with fails", ds)
			}
		}
		if _, ok := ds["tail_prob"]; !ok {
			t.Errorf("device state %v missing tail estimates", ds)
		}
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, req)
	mbody := mrec.Body.String()
	if metricValue(t, mbody, "oscard_fleet_retries_total") == 0 {
		t.Error("oscard_fleet_retries_total still zero after chaos job")
	}
	if metricValue(t, mbody, "oscard_fleet_quarantine_events_total") == 0 {
		t.Error("oscard_fleet_quarantine_events_total still zero after chaos job")
	}

	_, stats := do(t, s, "GET", "/stats", "")
	fs, _ := stats["fleet"].(map[string]any)
	if fs == nil || fs["retries_total"].(float64) == 0 || fs["quarantine_events_total"].(float64) == 0 {
		t.Errorf("/stats fleet block %v, want nonzero retry and quarantine totals", stats["fleet"])
	}
}

// TestFleetSharedScenarioJob pins the correlated-injection path: one
// fleet-level retry-storm instance shared by every device still yields a
// completed job under risk-aware scheduling.
func TestFleetSharedScenarioJob(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{
		"problem": {"kind": "maxcut3", "n": 8, "seed": 7},
		"backend": {"kind": "analytic"},
		"grid": {"beta_n": 12, "gamma_n": 14},
		"options": {"sampling_fraction": 0.5, "seed": 3},
		"fleet": {
			"seed": 21,
			"risk_aware": true,
			"scenario": {"kind": "retry_storm", "spacing": 300, "duration": 400, "prob": 0.9},
			"devices": [
				{"name": "a", "queue_median": 30, "sigma": 0.5, "exec": 1},
				{"name": "b", "queue_median": 10, "sigma": 0.5, "exec": 5}
			]
		},
		"wait": true
	}`
	rec, out := do(t, s, "POST", "/jobs", body)
	if rec.Code != http.StatusOK || out["state"] != string(StateDone) {
		t.Fatalf("storm job answered %d: %v", rec.Code, out)
	}
	res := out["result"].(map[string]any)
	if res["samples"].(float64) != 84 {
		t.Fatalf("samples %v, want the full 84 despite the storm", res["samples"])
	}
}

// TestPromLabelEscaping renders a running fleet job whose device names need
// escaping and checks each lands on /metrics as a valid label value.
func TestPromLabelEscaping(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{"a\tb", "a b"},
		{"a\nb", `a\nb`},
		{`quo"te`, `quo\"te`},
		{`back\slash`, `back\\slash`},
		{"ctrl\x00\x7f", "ctrl  "},
		{"unicode-µ", "unicode-µ"},
	}
	devices := map[string]int{}
	for i, c := range cases {
		devices[c.in] = i + 1
	}
	s := newTestServer(t, Config{})
	j := &Job{
		id:       "j000077",
		state:    StateRunning,
		progress: &FleetProgress{SamplesTotal: 10, Devices: devices},
		done:     make(chan struct{}),
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	body := rec.Body.String()
	for i, c := range cases {
		want := fmt.Sprintf(`oscard_fleet_batch_size{job="j000077",device="%s"} %d`, c.want, i+1)
		if !strings.Contains(body, want) {
			t.Errorf("device %q: metrics missing %q\n%s", c.in, want, body)
		}
	}
}

// TestCanceledFleetJobDropsProgress: a finished-by-cancellation fleet job
// must stop reporting progress on GET and exporting gauges on /metrics.
func TestCanceledFleetJobDropsProgress(t *testing.T) {
	s := newTestServer(t, Config{})
	j := &Job{
		id:       "j000099",
		state:    StateRunning,
		progress: &FleetProgress{SamplesDone: 1, SamplesTotal: 10, Devices: map[string]int{"a": 4}},
		done:     make(chan struct{}),
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()
	s.finishJob(j, nil, context.Canceled, nil)

	_, out := do(t, s, "GET", "/jobs/"+j.id, "")
	if out["state"] != string(StateCanceled) {
		t.Fatalf("state %v", out["state"])
	}
	if out["progress"] != nil {
		t.Error("canceled job still reports progress")
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if strings.Contains(rec.Body.String(), `job="j000099"`) {
		t.Error("canceled job still exports fleet gauges")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	// Run one plain and one fleet job so counters move.
	do(t, s, "POST", "/jobs", smallJob())
	do(t, s, "POST", "/jobs", fleetJob(""))

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE oscard_jobs gauge",
		`oscard_jobs{state="done"} 2`,
		"# TYPE oscard_cache_hits_total counter",
		"oscard_cache_misses_total",
		"oscard_cache_entries",
		"oscard_panics_total 0",
		"oscard_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q\n%s", want, body)
		}
	}
	// The two jobs looked up 42 + 84 points on one shared config cache;
	// every miss became a stored entry (overlapping points hit).
	hits := metricValue(t, body, "oscard_cache_hits_total")
	misses := metricValue(t, body, "oscard_cache_misses_total")
	entries := metricValue(t, body, "oscard_cache_entries")
	if hits+misses != 42+84 {
		t.Errorf("hits %v + misses %v != 126 lookups", hits, misses)
	}
	if entries != misses {
		t.Errorf("entries %v != misses %v (every missed point should be stored)", entries, misses)
	}
}

func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found:\n%s", name, body)
	return 0
}

// TestMetricsFleetGauges pins the per-job fleet gauges by injecting a
// running fleet job's progress directly (the callback path is exercised by
// TestFleetJobProgressVisible), then checking a finished job stops
// exporting. The injected device states flag the opposite device as
// quarantined from the progress's list: the quarantine gauge must follow
// the list, as of the latest merged batch, like GET /jobs/{id} does.
func TestMetricsFleetGauges(t *testing.T) {
	s := newTestServer(t, Config{})
	j := &Job{
		id:    "j000042",
		state: StateRunning,
		progress: &FleetProgress{
			SamplesDone: 40, SamplesTotal: 84, VirtualTime: 123,
			Solves: 1, Residual: 0.5,
			Devices:          map[string]int{"hiq": 96, "slow": 2},
			Retries:          3,
			QuarantineEvents: 1,
			Quarantined:      []string{"slow"},
			states: []fleet.DeviceState{
				{Name: "hiq", TailProb: 0.25, FailRate: 0.125, Quarantined: true},
				{Name: "slow", TailProb: 0.5, FailRate: 0.75},
			},
		},
		done: make(chan struct{}),
	}
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()

	scrape := func() string {
		req := httptest.NewRequest("GET", "/metrics", nil)
		r := httptest.NewRecorder()
		s.ServeHTTP(r, req)
		return r.Body.String()
	}
	body := scrape()
	for _, want := range []string{
		`oscard_fleet_batch_size{job="j000042",device="hiq"} 96`,
		`oscard_fleet_batch_size{job="j000042",device="slow"} 2`,
		`oscard_fleet_samples_done{job="j000042"} 40`,
		`oscard_fleet_samples_total{job="j000042"} 84`,
		`oscard_fleet_solves{job="j000042"} 1`,
		`oscard_fleet_retries{job="j000042"} 3`,
		`oscard_fleet_quarantine_events{job="j000042"} 1`,
		`oscard_fleet_tail_prob{job="j000042",device="hiq"} 0.25`,
		`oscard_fleet_tail_prob{job="j000042",device="slow"} 0.5`,
		`oscard_fleet_fail_rate{job="j000042",device="hiq"} 0.125`,
		`oscard_fleet_fail_rate{job="j000042",device="slow"} 0.75`,
		`oscard_fleet_quarantined{job="j000042",device="hiq"} 0`,
		`oscard_fleet_quarantined{job="j000042",device="slow"} 1`,
		`oscard_jobs{state="running"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}

	// Once the job carries a result, its gauges disappear.
	s.mu.Lock()
	j.state = StateDone
	j.result = &JobResult{}
	s.mu.Unlock()
	if strings.Contains(scrape(), `oscard_fleet_batch_size{job="j000042"`) {
		t.Error("finished job still exports fleet gauges")
	}
}

// TestFleetJobProgressVisible checks the polling surface: a fleet job's
// progress is published while it runs (observed via the OnProgress-driven
// progress field after at least one batch merged) and replaced by the result
// at completion.
func TestFleetJobProgressVisible(t *testing.T) {
	s := newTestServer(t, Config{})
	body := strings.Replace(fleetJob(""), `"wait": true`, `"wait": false`, 1)
	rec, out := do(t, s, "POST", "/jobs", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status %d: %v", rec.Code, out)
	}
	id := out["id"].(string)
	sawProgress := false
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, jb := do(t, s, "GET", "/jobs/"+id, "")
		switch jb["state"] {
		case string(StateDone):
			if jb["progress"] != nil {
				t.Fatal("finished job still reports progress")
			}
			if jb["result"] == nil {
				t.Fatal("finished job has no result")
			}
			// The streaming path publishes progress before finishing;
			// whether a poll catches it is timing-dependent, so its
			// absence is not a failure — the metrics injection test
			// covers the rendering.
			_ = sawProgress
			return
		case string(StateFailed), string(StateCanceled):
			t.Fatalf("job %v: %v", jb["state"], jb["error"])
		}
		if p, ok := jb["progress"].(map[string]any); ok {
			sawProgress = true
			if p["samples_total"].(float64) != 84 {
				t.Fatalf("progress total %v, want 84", p["samples_total"])
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

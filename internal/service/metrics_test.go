package service

import (
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// promFamily is one parsed metric family: its declared type and the samples
// (full series name with labels -> value) that follow it.
type promFamily struct {
	typ     string
	help    bool
	samples map[string]float64
	order   int
}

// parseProm is a minimal Prometheus text-format (0.0.4) parser. It enforces
// the structural invariants the exposition format demands: HELP/TYPE precede
// samples, every sample belongs to a declared family (histogram suffixes
// _bucket/_sum/_count fold into their base family), and values parse as
// floats.
func parseProm(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	order := 0
	get := func(name string) *promFamily {
		f := fams[name]
		if f == nil {
			f = &promFamily{samples: map[string]float64{}, order: order}
			order++
			fams[name] = f
		}
		return f
	}
	baseName := func(series string) string {
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suf)
			if base != name {
				if f, ok := fams[base]; ok && f.typ == "histogram" {
					return base
				}
			}
		}
		return name
	}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			get(parts[0]).help = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			f := get(parts[0])
			if f.typ != "" {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, parts[0])
			}
			f.typ = parts[1]
		case strings.HasPrefix(line, "#"):
			// comment
		default:
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				t.Fatalf("line %d: malformed sample: %q", ln+1, line)
			}
			series, val := line[:i], line[i+1:]
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("line %d: bad value %q: %v", ln+1, val, err)
			}
			base := baseName(series)
			f, ok := fams[base]
			if !ok || f.typ == "" || !f.help {
				t.Fatalf("line %d: sample %q before its # HELP/# TYPE", ln+1, series)
			}
			if _, dup := f.samples[series]; dup {
				t.Fatalf("line %d: duplicate series %q", ln+1, series)
			}
			f.samples[series] = v
		}
	}
	return fams
}

func scrape(t *testing.T, s *Server) map[string]*promFamily {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	return parseProm(t, rec.Body.String())
}

// TestMetricsFamiliesPresentTypedSorted runs a job, scrapes, and checks every
// exported family is present, typed, helped, and emitted in sorted order.
func TestMetricsFamiliesPresentTypedSorted(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec, out := do(t, s, "POST", "/jobs", fleetJob("")); rec.Code != 200 {
		t.Fatalf("job: %d %v", rec.Code, out)
	}
	fams := scrape(t, s)

	want := map[string]string{
		"oscard_build_info":                    "gauge",
		"oscard_uptime_seconds":                "gauge",
		"oscard_jobs":                          "gauge",
		"oscard_panics_total":                  "counter",
		"oscard_trace_dropped_spans_total":     "counter",
		"oscard_cache_hits_total":              "counter",
		"oscard_cache_misses_total":            "counter",
		"oscard_cache_entries":                 "gauge",
		"oscard_cache_configs":                 "gauge",
		"oscard_artifacts":                     "gauge",
		"oscard_artifact_lru_entries":          "gauge",
		"oscard_artifacts_published_total":     "counter",
		"oscard_artifact_lru_hits_total":       "counter",
		"oscard_artifact_lru_misses_total":     "counter",
		"oscard_artifact_evictions_total":      "counter",
		"oscard_artifact_query_points_total":   "counter",
		"oscard_artifact_load_errors_total":    "counter",
		"oscard_artifact_publish_errors_total": "counter",
		"oscard_fleet_retries_total":           "counter",
		"oscard_fleet_quarantine_events_total": "counter",
		"oscard_fleet_batch_size":              "gauge",
		"oscard_fleet_samples_done":            "gauge",
		"oscard_fleet_samples_total":           "gauge",
		"oscard_fleet_solves":                  "gauge",
		"oscard_fleet_retries":                 "gauge",
		"oscard_fleet_quarantine_events":       "gauge",
		"oscard_fleet_tail_prob":               "gauge",
		"oscard_fleet_fail_rate":               "gauge",
		"oscard_fleet_quarantined":             "gauge",
		"oscard_stage_duration_seconds":        "histogram",
		"oscard_fleet_virtual_seconds":         "histogram",
	}
	for name, typ := range want {
		f, ok := fams[name]
		if !ok {
			t.Errorf("family %s missing", name)
			continue
		}
		if f.typ != typ {
			t.Errorf("family %s typed %q, want %q", name, f.typ, typ)
		}
	}

	// Families must arrive in sorted name order so scrapes diff cleanly.
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return fams[names[i]].order < fams[names[j]].order })
	if !sort.StringsAreSorted(names) {
		t.Fatalf("families not in sorted order: %v", names)
	}

	// build_info is a constant-1 gauge with both labels.
	for series, v := range fams["oscard_build_info"].samples {
		if v != 1 || !strings.Contains(series, "go_version=") || !strings.Contains(series, "revision=") {
			t.Fatalf("build info %q = %v", series, v)
		}
	}

	// A finished fleet job must have fed the stage histograms.
	stage := fams["oscard_stage_duration_seconds"]
	for _, name := range []string{"validate", "queue", "run", "fleet.batch", "publish"} {
		series := `oscard_stage_duration_seconds_count{stage="` + name + `"}`
		if stage.samples[series] < 1 {
			t.Errorf("stage %q never observed: %v", name, stage.samples[series])
		}
	}
	virt := fams["oscard_fleet_virtual_seconds"]
	if virt.samples[`oscard_fleet_virtual_seconds_count{stage="fleet.plan"}`] < 1 {
		t.Error("fleet.plan virtual histogram never observed")
	}
}

// TestMetricsHistogramInvariants checks bucket cumulativity: counts rise with
// le, the +Inf bucket equals _count, and _sum is non-negative.
func TestMetricsHistogramInvariants(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec, out := do(t, s, "POST", "/jobs", smallJob()); rec.Code != 200 {
		t.Fatalf("job: %d %v", rec.Code, out)
	}
	fams := scrape(t, s)
	stage := fams["oscard_stage_duration_seconds"]
	if stage == nil {
		t.Fatal("no stage histogram")
	}

	// Group buckets by stage label.
	type hist struct {
		buckets map[float64]float64
		count   float64
		sum     float64
	}
	hists := map[string]*hist{}
	get := func(label string) *hist {
		h := hists[label]
		if h == nil {
			h = &hist{buckets: map[float64]float64{}}
			hists[label] = h
		}
		return h
	}
	for series, v := range stage.samples {
		stageLabel := series[strings.Index(series, `stage="`)+7:]
		stageLabel = stageLabel[:strings.IndexByte(stageLabel, '"')]
		switch {
		case strings.HasPrefix(series, "oscard_stage_duration_seconds_bucket"):
			leStr := series[strings.Index(series, `le="`)+4:]
			leStr = leStr[:strings.IndexByte(leStr, '"')]
			le, err := strconv.ParseFloat(leStr, 64)
			if err != nil {
				t.Fatalf("bad le %q: %v", leStr, err)
			}
			get(stageLabel).buckets[le] = v
		case strings.HasPrefix(series, "oscard_stage_duration_seconds_count"):
			get(stageLabel).count = v
		case strings.HasPrefix(series, "oscard_stage_duration_seconds_sum"):
			get(stageLabel).sum = v
		}
	}
	if len(hists) == 0 {
		t.Fatal("no stage series parsed")
	}
	for label, h := range hists {
		les := make([]float64, 0, len(h.buckets))
		for le := range h.buckets {
			les = append(les, le)
		}
		sort.Float64s(les)
		prev := 0.0
		for _, le := range les {
			if h.buckets[le] < prev {
				t.Fatalf("stage %q: bucket le=%g count %g < previous %g", label, le, h.buckets[le], prev)
			}
			prev = h.buckets[le]
		}
		inf := h.buckets[les[len(les)-1]]
		if les[len(les)-1] != inf && h.buckets[les[len(les)-1]] != h.count {
			t.Fatalf("stage %q: +Inf bucket %g != count %g", label, h.buckets[les[len(les)-1]], h.count)
		}
		if h.sum < 0 {
			t.Fatalf("stage %q: negative sum %g", label, h.sum)
		}
	}
}

// TestMetricsMonotoneAcrossJobs scrapes after one job and again after a
// second, asserting every counter-typed series is monotone non-decreasing
// and the job/stage counts actually advanced.
func TestMetricsMonotoneAcrossJobs(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec, out := do(t, s, "POST", "/jobs", smallJob()); rec.Code != 200 {
		t.Fatalf("job 1: %d %v", rec.Code, out)
	}
	first := scrape(t, s)
	if rec, out := do(t, s, "POST", "/jobs", smallJob()); rec.Code != 200 {
		t.Fatalf("job 2: %d %v", rec.Code, out)
	}
	second := scrape(t, s)

	for name, f1 := range first {
		if f1.typ != "counter" && f1.typ != "histogram" {
			continue
		}
		f2, ok := second[name]
		if !ok {
			t.Errorf("family %s vanished on the second scrape", name)
			continue
		}
		for series, v1 := range f1.samples {
			if v2, ok := f2.samples[series]; ok && v2 < v1 {
				t.Errorf("series %s went backwards: %g -> %g", series, v1, v2)
			}
		}
	}

	if got := second["oscard_jobs"].samples[`oscard_jobs{state="done"}`]; got != 2 {
		t.Fatalf("done jobs %g, want 2", got)
	}
	c1 := first["oscard_stage_duration_seconds"].samples[`oscard_stage_duration_seconds_count{stage="run"}`]
	c2 := second["oscard_stage_duration_seconds"].samples[`oscard_stage_duration_seconds_count{stage="run"}`]
	if c2 != c1+1 {
		t.Fatalf("run stage count %g -> %g, want +1", c1, c2)
	}
}

// jsonKeyPaths collects every object key path in a decoded JSON value, with
// "[]" standing for any array element, e.g. "jobs.recent[].state".
func jsonKeyPaths(prefix string, v any, out map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			jsonKeyPaths(p, e, out)
		}
	case []any:
		for _, e := range x {
			jsonKeyPaths(prefix+"[]", e, out)
		}
	}
}

// TestStatsAndMetricsAgree runs a plain job, a risk-aware fleet job with a
// dropout and one artifact query, then checks that every counter /stats and
// /metrics both report has the same value in each, and that neither
// endpoint's shape drifted: the /stats key paths and the /metrics
// (family, type) list are pinned literally.
func TestStatsAndMetricsAgree(t *testing.T) {
	s := newTestServer(t, Config{})
	id := submitArtifactJob(t, s, smallJob())
	if rec, out := do(t, s, "POST", "/jobs", chaosFleetJob()); rec.Code != 200 {
		t.Fatalf("fleet job: %d %v", rec.Code, out)
	}
	if code, _, _ := postQuery(t, s, id, [][]float64{{0.2, 0.9}, {0.1, 0.3}}, false); code != 200 {
		t.Fatalf("query: %d", code)
	}
	rec, stats := do(t, s, "GET", "/stats", "")
	if rec.Code != 200 {
		t.Fatalf("/stats: %d", rec.Code)
	}
	fams := scrape(t, s)

	value := func(series string) float64 {
		t.Helper()
		name := series
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		f, ok := fams[name]
		if !ok {
			t.Fatalf("family %s missing", name)
		}
		v, ok := f.samples[series]
		if !ok {
			t.Fatalf("series %s missing", series)
		}
		return v
	}
	block := func(key string) map[string]any {
		t.Helper()
		b, ok := stats[key].(map[string]any)
		if !ok {
			t.Fatalf("/stats has no %q block: %v", key, stats)
		}
		return b
	}
	num := func(b map[string]any, key string) float64 {
		t.Helper()
		v, ok := b[key].(float64)
		if !ok {
			t.Fatalf("/stats key %q = %v, not a number", key, b[key])
		}
		return v
	}
	agree := func(what string, statsV, metricsV float64) {
		t.Helper()
		if statsV != metricsV {
			t.Errorf("%s: /stats %v, /metrics %v", what, statsV, metricsV)
		}
	}

	jobs := block("jobs")
	byState, _ := jobs["by_state"].(map[string]any)
	total := 0.0
	for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		n, _ := byState[string(st)].(float64)
		total += n
		agree("jobs "+string(st), n, value(`oscard_jobs{state="`+string(st)+`"}`))
	}
	agree("jobs total", num(jobs, "total"), total)
	if total != 2 {
		t.Errorf("jobs total %v, want 2", total)
	}

	cache := block("cache")
	configs, _ := cache["configs"].([]any)
	agree("cache hits", num(cache, "total_hits"), value("oscard_cache_hits_total"))
	agree("cache misses", num(cache, "total_misses"), value("oscard_cache_misses_total"))
	agree("cache entries", num(cache, "total_len"), value("oscard_cache_entries"))
	agree("cache configs", float64(len(configs)), value("oscard_cache_configs"))
	if num(cache, "total_misses") == 0 {
		t.Error("no cache misses recorded")
	}

	agree("panics", num(stats, "panics"), value("oscard_panics_total"))

	fl := block("fleet")
	agree("fleet retries", num(fl, "retries_total"), value("oscard_fleet_retries_total"))
	agree("fleet quarantine events", num(fl, "quarantine_events_total"), value("oscard_fleet_quarantine_events_total"))
	if num(fl, "retries_total") == 0 || num(fl, "quarantine_events_total") == 0 {
		t.Errorf("fleet totals %v, want nonzero after a dropout", fl)
	}

	arts := block("artifacts")
	for key, series := range map[string]string{
		"count":          "oscard_artifacts",
		"lru_entries":    "oscard_artifact_lru_entries",
		"published":      "oscard_artifacts_published_total",
		"evictions":      "oscard_artifact_evictions_total",
		"lru_hits":       "oscard_artifact_lru_hits_total",
		"lru_misses":     "oscard_artifact_lru_misses_total",
		"query_points":   "oscard_artifact_query_points_total",
		"load_errors":    "oscard_artifact_load_errors_total",
		"publish_errors": "oscard_artifact_publish_errors_total",
	} {
		agree("artifacts "+key, num(arts, key), value(series))
	}
	if num(arts, "query_points") != 2 {
		t.Errorf("query points %v, want 2", arts["query_points"])
	}

	paths := map[string]bool{}
	jsonKeyPaths("", stats, paths)
	gotPaths := make([]string, 0, len(paths))
	for p := range paths {
		gotPaths = append(gotPaths, p)
	}
	sort.Strings(gotPaths)
	gotFams := make([]string, 0, len(fams))
	for name, f := range fams {
		gotFams = append(gotFams, name+" "+f.typ)
	}
	sort.Strings(gotFams)
	wantPaths := []string{
		"artifacts", "artifacts.count", "artifacts.disk_backed", "artifacts.evictions",
		"artifacts.load_errors", "artifacts.lru_capacity", "artifacts.lru_entries",
		"artifacts.lru_hits", "artifacts.lru_misses", "artifacts.publish_errors",
		"artifacts.published", "artifacts.query_points",
		"cache", "cache.configs", "cache.configs[].config", "cache.configs[].hits",
		"cache.configs[].len", "cache.configs[].misses", "cache.total_hits",
		"cache.total_len", "cache.total_misses",
		"fleet", "fleet.quarantine_events_total", "fleet.retries_total",
		"goroutines",
		"jobs", "jobs.by_state", "jobs.by_state.done", "jobs.recent",
		"jobs.recent[].id", "jobs.recent[].queue_ms", "jobs.recent[].run_ms",
		"jobs.recent[].state", "jobs.recent[].submitted", "jobs.total",
		"max_parallel", "panics", "uptime_s",
	}
	wantFams := []string{
		"oscard_artifact_evictions_total counter",
		"oscard_artifact_load_errors_total counter",
		"oscard_artifact_lru_entries gauge",
		"oscard_artifact_lru_hits_total counter",
		"oscard_artifact_lru_misses_total counter",
		"oscard_artifact_publish_errors_total counter",
		"oscard_artifact_query_points_total counter",
		"oscard_artifacts gauge",
		"oscard_artifacts_published_total counter",
		"oscard_build_info gauge",
		"oscard_cache_configs gauge",
		"oscard_cache_entries gauge",
		"oscard_cache_hits_total counter",
		"oscard_cache_misses_total counter",
		"oscard_fleet_batch_size gauge",
		"oscard_fleet_fail_rate gauge",
		"oscard_fleet_quarantine_events gauge",
		"oscard_fleet_quarantine_events_total counter",
		"oscard_fleet_quarantined gauge",
		"oscard_fleet_retries gauge",
		"oscard_fleet_retries_total counter",
		"oscard_fleet_samples_done gauge",
		"oscard_fleet_samples_total gauge",
		"oscard_fleet_solves gauge",
		"oscard_fleet_tail_prob gauge",
		"oscard_fleet_virtual_seconds histogram",
		"oscard_jobs gauge",
		"oscard_panics_total counter",
		"oscard_stage_duration_seconds histogram",
		"oscard_trace_dropped_spans_total counter",
		"oscard_uptime_seconds gauge",
	}
	if strings.Join(gotPaths, "\n") != strings.Join(wantPaths, "\n") {
		t.Errorf("/stats key paths drifted:\n got %q\nwant %q", gotPaths, wantPaths)
	}
	if strings.Join(gotFams, "\n") != strings.Join(wantFams, "\n") {
		t.Errorf("/metrics families drifted:\n got %q\nwant %q", gotFams, wantFams)
	}
}

package service

import (
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// recentJobs bounds the job views /stats lists.
const recentJobs = 32

// snapshot is the server state that /stats and /metrics both render. It is
// read in one pass under the server lock, so the two views cannot disagree.
type snapshot struct {
	uptime time.Duration
	// jobs counts tracked jobs; byState splits them by state (absent
	// states are zero); recent holds the newest recentJobs job views,
	// oldest first, without results.
	jobs    int
	byState map[JobState]int
	recent  []jobJSON
	// caches is the per-configuration cache accounting, sorted by config,
	// with its totals alongside.
	caches                 []cacheRow
	cacheLen               int
	cacheHits, cacheMisses int64
	// fleets holds the progress of every running fleet job, in submission
	// order.
	fleets []fleetRow

	panics, droppedSpans, fleetRetries, fleetQuarantines int64
	artifacts                                            artifactCounts
}

// cacheRow is one device configuration's cache accounting.
type cacheRow struct {
	Config string `json:"config"`
	Len    int    `json:"len"`
	Hits   int64  `json:"hits"`
	Misses int64  `json:"misses"`
}

// fleetRow is one running fleet job's latest progress.
type fleetRow struct {
	job      string
	progress FleetProgress
}

func (s *Server) snapshot() snapshot {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := snapshot{
		uptime:           now.Sub(s.start),
		jobs:             len(s.order),
		byState:          map[JobState]int{},
		recent:           make([]jobJSON, 0, min(len(s.order), recentJobs)),
		caches:           make([]cacheRow, 0, len(s.caches)),
		panics:           s.panics.Load(),
		droppedSpans:     s.droppedSpans.Load(),
		fleetRetries:     s.fleetRetries.Load(),
		fleetQuarantines: s.fleetQuarantines.Load(),
		artifacts:        s.artifacts.counts(),
	}
	for i, id := range s.order {
		j := s.jobs[id]
		snap.byState[j.state]++
		if i >= len(s.order)-recentJobs {
			v := j.view(now)
			v.Result = nil
			snap.recent = append(snap.recent, v)
		}
		if j.progress != nil && j.state == StateRunning {
			snap.fleets = append(snap.fleets, fleetRow{job: id, progress: *j.progress})
		}
	}
	for key, c := range s.caches {
		row := cacheRow{Config: key, Len: c.Len(), Hits: c.Hits(), Misses: c.Misses()}
		snap.cacheLen += row.Len
		snap.cacheHits += row.Hits
		snap.cacheMisses += row.Misses
		snap.caches = append(snap.caches, row)
	}
	sort.Slice(snap.caches, func(a, b int) bool { return snap.caches[a].Config < snap.caches[b].Config })
	return snap
}

// handleStats reports the server snapshot as JSON: uptime, job counts and
// the newest job views, per-configuration cache accounting, recovered
// panics, fleet totals and the artifact store's counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	writeJSON(w, http.StatusOK, map[string]any{
		"uptime_s":     snap.uptime.Seconds(),
		"goroutines":   runtime.NumGoroutine(),
		"panics":       snap.panics,
		"max_parallel": s.cfg.MaxConcurrent,
		"jobs": map[string]any{
			"total":    snap.jobs,
			"by_state": snap.byState,
			"recent":   snap.recent,
		},
		"cache": map[string]any{
			"configs":      snap.caches,
			"total_len":    snap.cacheLen,
			"total_hits":   snap.cacheHits,
			"total_misses": snap.cacheMisses,
		},
		"fleet": map[string]any{
			"retries_total":           snap.fleetRetries,
			"quarantine_events_total": snap.fleetQuarantines,
		},
		"artifacts": snap.artifacts,
	})
}

// metricFamily is one /metrics family: its header and, for an unlabelled
// family, its single value (nil for labelled families, whose samples are
// added per label set).
type metricFamily struct {
	name, typ, help string
	value           any
}

// handleMetrics renders the server snapshot in the Prometheus text
// exposition format (version 0.0.4) — hand-rolled, no client library
// dependency. It covers job states, the execution-cache counters,
// server-wide fleet retry/quarantine totals, per-job gauges of running fleet
// jobs (learned batch sizes, retry/quarantine progress, per-device tail
// estimates), build information, the artifact store, and the per-stage
// latency histograms fed by span completions. Families are emitted in sorted
// name order, every scrape, so diffs between scrapes — and smoke-test
// greps — are stable.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot()
	a := snap.artifacts
	families := []metricFamily{
		{"oscard_build_info", "gauge", "Build information; value is always 1.", nil},
		{"oscard_uptime_seconds", "gauge", "Seconds since the server started.", snap.uptime.Seconds()},
		{"oscard_jobs", "gauge", "Jobs currently tracked, by state.", nil},
		{"oscard_panics_total", "counter", "Recovered internal panics.", snap.panics},
		{"oscard_trace_dropped_spans_total", "counter", "Span starts rejected by per-job span caps, over finished jobs.", snap.droppedSpans},

		{"oscard_cache_hits_total", "counter", "Execution-cache lookups served without running a circuit.", snap.cacheHits},
		{"oscard_cache_misses_total", "counter", "Execution-cache lookups that fell through to execution.", snap.cacheMisses},
		{"oscard_cache_entries", "gauge", "Memoized circuit executions across all device configurations.", snap.cacheLen},
		{"oscard_cache_configs", "gauge", "Distinct device configurations holding a cache.", len(snap.caches)},

		{"oscard_artifacts", "gauge", "Landscape artifacts available for serving.", a.Count},
		{"oscard_artifact_lru_entries", "gauge", "Fitted interpolators resident in the artifact LRU.", a.LRUEntries},
		{"oscard_artifacts_published_total", "counter", "Landscape artifacts published by finished jobs this process.", a.Published},
		{"oscard_artifact_lru_hits_total", "counter", "Artifact queries served by an already-fitted interpolator.", a.LRUHits},
		{"oscard_artifact_lru_misses_total", "counter", "Artifact queries that had to fit (or refit) the interpolator.", a.LRUMisses},
		{"oscard_artifact_evictions_total", "counter", "Fitted interpolators evicted from the artifact LRU.", a.Evictions},
		{"oscard_artifact_query_points_total", "counter", "Points served by the artifact query endpoint.", a.QueryPoints},
		{"oscard_artifact_load_errors_total", "counter", "Artifacts on disk that failed to load at boot.", a.LoadErrors},
		{"oscard_artifact_publish_errors_total", "counter", "Artifact disk writes that failed at publish.", a.PublishErrors},

		{"oscard_fleet_retries_total", "counter", "Failed fleet dispatches that were retried or re-dispatched, over finished jobs.", snap.fleetRetries},
		{"oscard_fleet_quarantine_events_total", "counter", "Fleet quarantine transitions (bench and re-admit), over finished jobs.", snap.fleetQuarantines},

		{"oscard_fleet_batch_size", "gauge", "Learned per-device batch size of running fleet jobs.", nil},
		{"oscard_fleet_samples_done", "gauge", "Samples merged into the streaming reconstruction.", nil},
		{"oscard_fleet_samples_total", "gauge", "Samples a running fleet job will merge in total.", nil},
		{"oscard_fleet_solves", "gauge", "Interim reconstructions completed by a running fleet job.", nil},
		{"oscard_fleet_retries", "gauge", "Retried or re-dispatched batches of a running fleet job.", nil},
		{"oscard_fleet_quarantine_events", "gauge", "Quarantine transitions of a running fleet job.", nil},
		{"oscard_fleet_tail_prob", "gauge", "Learned per-device tail-event probability of running fleet jobs.", nil},
		{"oscard_fleet_fail_rate", "gauge", "Learned per-device dispatch-failure rate of running fleet jobs.", nil},
		{"oscard_fleet_quarantined", "gauge", "Whether a device of a running fleet job is currently benched.", nil},
	}
	text := make(map[string]*strings.Builder, len(families))
	for _, f := range families {
		b := &strings.Builder{}
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		if f.value != nil {
			fmt.Fprintf(b, "%s %v\n", f.name, f.value)
		}
		text[f.name] = b
	}
	sample := func(name, labels string, v any) {
		fmt.Fprintf(text[name], "%s{%s} %v\n", name, labels, v)
	}

	sample("oscard_build_info", fmt.Sprintf(`go_version="%s",revision="%s"`,
		obs.EscapeLabel(runtime.Version()), obs.EscapeLabel(buildRevision())), 1)
	for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		sample("oscard_jobs", `state="`+string(st)+`"`, snap.byState[st])
	}
	for _, f := range snap.fleets {
		p := &f.progress
		job := `job="` + obs.EscapeLabel(f.job) + `"`
		devices := make([]string, 0, len(p.Devices))
		for d := range p.Devices {
			devices = append(devices, d)
		}
		sort.Strings(devices)
		for _, d := range devices {
			sample("oscard_fleet_batch_size", job+`,device="`+obs.EscapeLabel(d)+`"`, p.Devices[d])
		}
		sample("oscard_fleet_samples_done", job, p.SamplesDone)
		sample("oscard_fleet_samples_total", job, p.SamplesTotal)
		sample("oscard_fleet_solves", job, p.Solves)
		sample("oscard_fleet_retries", job, p.Retries)
		sample("oscard_fleet_quarantine_events", job, p.QuarantineEvents)
		for _, ds := range p.states {
			device := job + `,device="` + obs.EscapeLabel(ds.Name) + `"`
			sample("oscard_fleet_tail_prob", device, ds.TailProb)
			sample("oscard_fleet_fail_rate", device, ds.FailRate)
			// Benched as of the latest merged batch, as GET /jobs/{id}
			// reports it.
			quarantined := 0
			if slices.Contains(p.Quarantined, ds.Name) {
				quarantined = 1
			}
			sample("oscard_fleet_quarantined", device, quarantined)
		}
	}

	// All blocks — these and the histogram registry's — merge and sort by
	// family name before writing.
	fams := s.metrics.Families()
	for _, f := range families {
		fams = append(fams, obs.PromFamily{Name: f.name, Text: text[f.name].String()})
	}
	sort.SliceStable(fams, func(i, j int) bool { return fams[i].Name < fams[j].Name })

	var out strings.Builder
	for _, f := range fams {
		out.WriteString(f.Text)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(out.String()))
}

// buildRevision returns the VCS revision baked into the binary, or "unknown"
// when built outside a checkout (go test binaries, stripped builds).
func buildRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return "unknown"
}

package service

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"

	"repro/internal/obs"
)

// stage histogram help strings, shared by the OnEnd hook and /metrics.
const (
	stageWallHelp = "Wall-clock duration of pipeline stages, by span name."
	stageVirtHelp = "Virtual-time duration of fleet-simulation stages, by span name."
)

// newTracer builds the tracer for one job (or one surrogate query): a random
// trace id, the configured span cap, and span completions fanned into the
// per-stage latency histograms. Returns nil — the zero-cost disabled path —
// when Config.DisableTracing is set.
func (s *Server) newTracer() *obs.Tracer {
	if s.cfg.DisableTracing {
		return nil
	}
	tr := obs.NewTracer(randomTraceID())
	tr.MaxSpans = s.cfg.MaxTraceSpans
	tr.OnEnd = s.observeSpan
	return tr
}

// observeSpan feeds one completed span into the stage histograms: spans
// carrying virtual time observe the virtual-seconds family, the rest observe
// wall-clock seconds. Batch spans observe both — their virtual interval is
// the simulated device occupancy while their wall time is the host-side
// evaluation cost, and the two diverging is exactly what a profile wants to
// show.
func (s *Server) observeSpan(e obs.EndedSpan) {
	labels := map[string]string{"stage": e.Name}
	if e.HasVirtual {
		s.metrics.Histogram("oscard_fleet_virtual_seconds", stageVirtHelp,
			labels, obs.DefaultVirtualBuckets()).Observe(e.Virtual)
		if e.Name != "fleet.batch" {
			return
		}
	}
	s.metrics.Histogram("oscard_stage_duration_seconds", stageWallHelp,
		labels, obs.DefaultWallBuckets()).Observe(e.Wall.Seconds())
}

// randomTraceID returns a 16-hex-char random trace id.
func randomTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform RNG is gone; a fixed id
		// keeps the server alive and the trace still usable.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// handleJobTrace serves GET /jobs/{id}/trace: the job's span tree as JSON,
// or — with ?format=chrome — Chrome trace-event JSON loadable in
// about:tracing and Perfetto. Works on running jobs too: open spans render
// with a provisional end and "open": true.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var (
		tr    *obs.Tracer
		state JobState
	)
	if ok {
		tr = j.trace
		state = j.state
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown job"})
		return
	}
	if tr == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "tracing disabled"})
		return
	}
	tree := tr.Snapshot()
	if r.URL.Query().Get("format") == "chrome" {
		writeJSON(w, http.StatusOK, obs.ChromeEvents(tree))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"job_id": r.PathValue("id"),
		"state":  state,
		"trace":  tree,
	})
}

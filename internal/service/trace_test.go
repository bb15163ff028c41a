package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// getTrace fetches and decodes a job's span tree.
func getTrace(t *testing.T, s *Server, id string) (*obs.TraceTree, string) {
	t.Helper()
	req := httptest.NewRequest("GET", "/jobs/"+id+"/trace", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET trace: status %d %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		JobID string         `json:"job_id"`
		State string         `json:"state"`
		Trace *obs.TraceTree `json:"trace"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode trace: %v", err)
	}
	if resp.Trace == nil {
		t.Fatalf("no trace in response: %s", rec.Body.String())
	}
	return resp.Trace, resp.State
}

// findSpan walks the forest depth-first and returns the first span with the
// given name.
func findSpan(nodes []*obs.SpanNode, name string) *obs.SpanNode {
	for _, n := range nodes {
		if n.Name == name {
			return n
		}
		if hit := findSpan(n.Children, name); hit != nil {
			return hit
		}
	}
	return nil
}

// countSpans returns the total span count and how many are still open.
func countSpans(nodes []*obs.SpanNode) (total, open int) {
	for _, n := range nodes {
		total++
		if n.Open {
			open++
		}
		ct, co := countSpans(n.Children)
		total += ct
		open += co
	}
	return
}

// TestFleetJobTraceTree drives a fleet job end to end and checks the span
// tree: the root "job" span exists with validate/queue/run children tiling
// >= 95% of its wall-clock duration, the fleet plan and batch spans are
// present with virtual queue/exec children, and nothing dangles open.
func TestFleetJobTraceTree(t *testing.T) {
	s := newTestServer(t, Config{})
	rec, out := do(t, s, "POST", "/jobs", fleetJob(""))
	if rec.Code != http.StatusOK {
		t.Fatalf("submit: %d %v", rec.Code, out)
	}
	id := out["id"].(string)

	tree, state := getTrace(t, s, id)
	if state != string(StateDone) {
		t.Fatalf("state %q", state)
	}
	if tree.TraceID == "" || len(tree.TraceID) != 16 {
		t.Fatalf("trace id %q", tree.TraceID)
	}
	if tree.DroppedSpans != 0 {
		t.Fatalf("dropped %d spans on a small job", tree.DroppedSpans)
	}
	total, open := countSpans(tree.Spans)
	if total != tree.SpanCount {
		t.Fatalf("span_count %d but tree holds %d", tree.SpanCount, total)
	}
	if open != 0 {
		t.Fatalf("%d spans still open on a finished job", open)
	}

	root := findSpan(tree.Spans, "job")
	if root == nil {
		t.Fatalf("no root job span: %+v", tree.Spans)
	}
	if got := root.Attrs["state"]; got != "done" {
		t.Fatalf("root state attr %v", got)
	}

	// validate + queue + run must tile the root span: no unattributed gaps
	// beyond 5% of the job's wall-clock time.
	var covered float64
	for _, name := range []string{"validate", "queue", "run"} {
		c := findSpan(root.Children, name)
		if c == nil {
			t.Fatalf("root missing %q child", name)
		}
		covered += c.DurMS
	}
	if root.DurMS <= 0 {
		t.Fatalf("root duration %v", root.DurMS)
	}
	if frac := covered / root.DurMS; frac < 0.95 {
		t.Fatalf("stage spans cover %.1f%% of the job, want >= 95%%", frac*100)
	}

	for _, name := range []string{"fleet.plan", "fleet.sample", "fleet.batch", "fleet.solve", "publish"} {
		if findSpan(tree.Spans, name) == nil {
			t.Fatalf("missing %q span", name)
		}
	}
	// Batch spans carry virtual time and queue/exec virtual children.
	batch := findSpan(tree.Spans, "fleet.batch")
	if batch.VStart == nil || batch.VEnd == nil || *batch.VEnd <= *batch.VStart {
		t.Fatalf("fleet.batch virtual interval %v..%v", batch.VStart, batch.VEnd)
	}
	if findSpan(batch.Children, "queue") == nil || findSpan(batch.Children, "exec") == nil {
		t.Fatalf("fleet.batch missing queue/exec children: %+v", batch.Children)
	}
	plan := findSpan(tree.Spans, "fleet.plan")
	if plan.Attrs["makespan_s"] == nil || plan.Attrs["batches"] == nil {
		t.Fatalf("fleet.plan attrs %v", plan.Attrs)
	}
}

// TestJobTraceChromeFormat asks for ?format=chrome and checks the trace-event
// envelope: metadata naming both clocks, X slices for every closed span, and
// microsecond timestamps anchored at zero.
func TestJobTraceChromeFormat(t *testing.T) {
	s := newTestServer(t, Config{})
	rec, out := do(t, s, "POST", "/jobs", fleetJob(""))
	if rec.Code != http.StatusOK {
		t.Fatalf("submit: %d %v", rec.Code, out)
	}
	id := out["id"].(string)

	req := httptest.NewRequest("GET", "/jobs/"+id+"/trace?format=chrome", nil)
	crec := httptest.NewRecorder()
	s.ServeHTTP(crec, req)
	if crec.Code != http.StatusOK {
		t.Fatalf("chrome trace: %d", crec.Code)
	}
	var ct obs.ChromeTrace
	if err := json.Unmarshal(crec.Body.Bytes(), &ct); err != nil {
		t.Fatalf("decode chrome trace: %v", err)
	}
	var meta, slices int
	for _, ev := range ct.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			slices++
			if ev.TS < 0 || ev.Dur < 0 {
				t.Fatalf("negative ts/dur: %+v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta == 0 {
		t.Fatal("no process_name metadata events")
	}
	tree, _ := getTrace(t, s, id)
	wall, _ := countSpans(tree.Spans)
	// Every span yields a wall slice; spans with virtual time add a second
	// slice on the virtual-clock track.
	if slices < wall {
		t.Fatalf("%d slices for %d spans", slices, wall)
	}
}

// TestTraceSurvivesCancellation cancels a job mid-solve and checks the trace
// still renders a complete, closed tree — cancellation must not leak open
// spans once the job reaches a terminal state.
func TestTraceSurvivesCancellation(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{
		"problem": {"kind": "maxcut3", "n": 14, "seed": 3},
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
	do(t, s, "DELETE", "/jobs/"+id, "")

	// The cancel unwinds asynchronously; poll until the root span closes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		tree, state := getTrace(t, s, id)
		_, open := countSpans(tree.Spans)
		if state == string(StateCanceled) && open == 0 {
			root := findSpan(tree.Spans, "job")
			if root == nil {
				t.Fatal("no root span after cancellation")
			}
			if got := root.Attrs["state"]; got != "canceled" {
				t.Fatalf("root state attr %v", got)
			}
			if findSpan(root.Children, "run") == nil {
				t.Fatal("canceled job lost its run span")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("state %q with %d open spans after cancel", state, open)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTraceOfRunningJobShowsOpenSpans snapshots a job mid-flight: the tree
// must render with provisional ends and open markers rather than erroring.
func TestTraceOfRunningJobShowsOpenSpans(t *testing.T) {
	s := newTestServer(t, Config{})
	body := `{
		"problem": {"kind": "maxcut3", "n": 14, "seed": 3},
		"backend": {"kind": "statevector"},
		"grid": {"beta_n": 30, "gamma_n": 30},
		"options": {"sampling_fraction": 1.0}
	}`
	rec, out := do(t, s, "POST", "/jobs", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %v", rec.Code, out)
	}
	id := out["id"].(string)
	defer do(t, s, "DELETE", "/jobs/"+id, "")

	deadline := time.Now().Add(10 * time.Second)
	for {
		tree, state := getTrace(t, s, id)
		if state == string(StateRunning) {
			_, open := countSpans(tree.Spans)
			if open == 0 {
				t.Fatal("running job shows no open spans")
			}
			return
		}
		if state == string(StateDone) || state == string(StateFailed) {
			t.Skipf("job reached %q before a snapshot landed", state)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", state)
		}
	}
}

// TestTraceDisabledAndUnknown covers the two 404 paths: tracing turned off by
// config, and a job id the server has never seen.
func TestTraceDisabledAndUnknown(t *testing.T) {
	s := newTestServer(t, Config{DisableTracing: true})
	rec, out := do(t, s, "POST", "/jobs", smallJob())
	if rec.Code != http.StatusOK {
		t.Fatalf("submit: %d %v", rec.Code, out)
	}
	id := out["id"].(string)
	rec, out = do(t, s, "GET", "/jobs/"+id+"/trace", "")
	if rec.Code != http.StatusNotFound || out["error"] != "tracing disabled" {
		t.Fatalf("disabled trace: %d %v", rec.Code, out)
	}
	rec, out = do(t, s, "GET", "/jobs/nope/trace", "")
	if rec.Code != http.StatusNotFound || out["error"] != "unknown job" {
		t.Fatalf("unknown job: %d %v", rec.Code, out)
	}
}

// TestSpanCapDropsAndCounts caps spans low and checks the tree stays bounded,
// the drop counter surfaces in the trace JSON, and /metrics accumulates the
// total once the job finishes.
func TestSpanCapDropsAndCounts(t *testing.T) {
	s := newTestServer(t, Config{MaxTraceSpans: 4})
	rec, out := do(t, s, "POST", "/jobs", fleetJob(""))
	if rec.Code != http.StatusOK {
		t.Fatalf("submit: %d %v", rec.Code, out)
	}
	id := out["id"].(string)
	tree, _ := getTrace(t, s, id)
	if tree.SpanCount > 4 {
		t.Fatalf("cap 4 but %d spans kept", tree.SpanCount)
	}
	if tree.DroppedSpans == 0 {
		t.Fatal("fleet job under a 4-span cap dropped nothing")
	}
	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(mrec.Body.String(), "oscard_trace_dropped_spans_total") {
		t.Fatal("dropped-spans counter missing from /metrics")
	}
	for _, line := range strings.Split(mrec.Body.String(), "\n") {
		if strings.HasPrefix(line, "oscard_trace_dropped_spans_total ") {
			if strings.TrimPrefix(line, "oscard_trace_dropped_spans_total ") == "0" {
				t.Fatal("dropped-spans total still zero after capped job")
			}
		}
	}
}

// TestQueryTraceInline asks the artifact query endpoint for its per-request
// trace: fit and eval child spans inline in the response, nothing stored.
func TestQueryTraceInline(t *testing.T) {
	s := newTestServer(t, Config{})
	id := submitArtifactJob(t, s, smallJob())
	body := `{"points": [[0.1, 0.2]], "gradients": true}`
	req := httptest.NewRequest("POST", "/landscapes/"+id+"/query?trace=1", strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("query: %d %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Trace *obs.TraceTree `json:"trace"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Trace == nil {
		t.Fatalf("no inline trace: %s", rec.Body.String())
	}
	root := findSpan(resp.Trace.Spans, "query")
	if root == nil {
		t.Fatalf("no query span: %+v", resp.Trace.Spans)
	}
	for _, name := range []string{"query.decode", "query.fit", "query.eval"} {
		if findSpan(root.Children, name) == nil {
			t.Fatalf("query trace missing %q: %+v", name, root.Children)
		}
	}

	// Without the flag the response must stay trace-free.
	req = httptest.NewRequest("POST", "/landscapes/"+id+"/query", strings.NewReader(body))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if strings.Contains(rec.Body.String(), `"trace"`) {
		t.Fatal("trace leaked into an untraced query response")
	}
}

// TestArtifactGridETag covers the PR-9 leftover: grid responses carry a
// content-addressed ETag and honor If-None-Match with 304s, including weak
// validators and wildcards per RFC 9110.
func TestArtifactGridETag(t *testing.T) {
	s := newTestServer(t, Config{})
	id := submitArtifactJob(t, s, smallJob())

	get := func(inm string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", "/landscapes/"+id+"/grid", nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec
	}

	rec := get("")
	if rec.Code != http.StatusOK {
		t.Fatalf("grid: %d", rec.Code)
	}
	etag := rec.Header().Get("ETag")
	if etag != `"`+id+`"` {
		t.Fatalf("ETag %q, want quoted artifact id", etag)
	}

	for _, inm := range []string{etag, "W/" + etag, `"other", ` + etag, "*"} {
		rec = get(inm)
		if rec.Code != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status %d, want 304", inm, rec.Code)
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("304 carried a %d-byte body", rec.Body.Len())
		}
		if rec.Header().Get("ETag") != etag {
			t.Fatalf("304 lost the ETag header")
		}
	}
	rec = get(`"ls-something-else"`)
	if rec.Code != http.StatusOK {
		t.Fatalf("mismatched If-None-Match: %d, want 200", rec.Code)
	}
}

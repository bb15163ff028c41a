package service

import (
	"container/list"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/interp"
	"repro/internal/landscape"
	"repro/internal/obs"
)

// artifactExt names artifact files in the store directory: <id>.landscape.
const artifactExt = ".landscape"

// artifactStore is the landscape-as-a-service registry: every finished
// reconstruction publishes its landscape here as a content-addressed,
// self-describing artifact, and the query endpoints serve values out of it
// without ever touching a backend. Artifacts (axes + data + provenance) live
// in memory and, when dir is set, on disk — so they survive restarts. Fitted
// spline interpolators are kept in a bounded LRU: a query for a hot artifact
// reuses the fitted surrogate, a cold one refits (bit-identical — fitting is
// deterministic), and the LRU bounds the resident spline memory, not which
// artifacts are servable.
type artifactStore struct {
	dir     string // "" = memory-only (artifacts die with the process)
	lruCap  int
	workers int // batch-evaluation worker budget for fitted interpolators

	mu     sync.Mutex
	arts   map[string]*landscape.Artifact
	order  []string // publish order, oldest first (listing)
	lru    *list.List
	lruIdx map[string]*list.Element

	// dirErr records a store-directory failure at boot (surfaced in /stats);
	// the store degrades to memory-only rather than refusing to serve.
	dirErr string

	published     atomic.Int64
	evictions     atomic.Int64
	lruHits       atomic.Int64
	lruMisses     atomic.Int64
	queryPoints   atomic.Int64
	loadErrors    atomic.Int64
	publishErrors atomic.Int64
}

// lruEntry is one fitted interpolator resident in the LRU.
type lruEntry struct {
	id string
	ip interp.Interpolator
}

// newArtifactStore builds the registry and, when dir is set, loads every
// artifact already on disk. Boot is best-effort: an unusable directory
// degrades the store to memory-only and a corrupt file is skipped, both
// counted and reported in /stats rather than failing server construction —
// one damaged artifact must not take the service down.
func newArtifactStore(dir string, lruCap, workers int) *artifactStore {
	st := &artifactStore{
		dir:     dir,
		lruCap:  lruCap,
		workers: workers,
		arts:    make(map[string]*landscape.Artifact),
		lru:     list.New(),
		lruIdx:  make(map[string]*list.Element),
	}
	if dir == "" {
		return st
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		st.dirErr = err.Error()
		st.dir = ""
		return st
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		st.dirErr = err.Error()
		st.dir = ""
		return st
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), artifactExt) {
			continue
		}
		a, err := landscape.LoadArtifactFile(filepath.Join(dir, e.Name()))
		if err != nil {
			st.loadErrors.Add(1)
			continue
		}
		id := a.ID()
		if _, dup := st.arts[id]; dup {
			continue
		}
		st.arts[id] = a
		st.order = append(st.order, id)
	}
	// ReadDir order is lexical by filename (content hash); re-establish
	// publish order by creation time so listings read chronologically.
	sort.SliceStable(st.order, func(i, j int) bool {
		return st.arts[st.order[i]].CreatedAt.Before(st.arts[st.order[j]].CreatedAt)
	})
	return st
}

// publish registers an artifact, persisting it when the store is disk-backed.
// Identical content (same ID) deduplicates to the existing artifact. The
// returned ID is always usable; err reports a failed disk write (the artifact
// still serves from memory).
func (st *artifactStore) publish(a *landscape.Artifact) (string, error) {
	id := a.ID()
	st.mu.Lock()
	if _, exists := st.arts[id]; exists {
		st.mu.Unlock()
		return id, nil
	}
	st.arts[id] = a
	st.order = append(st.order, id)
	dir := st.dir
	st.mu.Unlock()
	st.published.Add(1)
	if dir == "" {
		return id, nil
	}
	if err := landscape.SaveArtifactFile(filepath.Join(dir, id+artifactExt), a); err != nil {
		return id, err
	}
	return id, nil
}

// get returns an artifact by ID.
func (st *artifactStore) get(id string) (*landscape.Artifact, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	a, ok := st.arts[id]
	return a, ok
}

// snapshot returns every artifact in publish order.
func (st *artifactStore) snapshot() []*landscape.Artifact {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*landscape.Artifact, len(st.order))
	for i, id := range st.order {
		out[i] = st.arts[id]
	}
	return out
}

// interpolator returns the fitted surrogate for an artifact, serving from
// the LRU when hot (hit) and refitting when evicted. Refits are
// bit-identical to the original fit — spline fitting is deterministic — so
// eviction is purely a memory/latency trade, never a correctness one.
func (st *artifactStore) interpolator(id string) (ip interp.Interpolator, hit bool, err error) {
	st.mu.Lock()
	if el, ok := st.lruIdx[id]; ok {
		st.lru.MoveToFront(el)
		ip := el.Value.(*lruEntry).ip
		st.mu.Unlock()
		st.lruHits.Add(1)
		return ip, true, nil
	}
	a, ok := st.arts[id]
	st.mu.Unlock()
	if !ok {
		return nil, false, errors.New("unknown landscape")
	}
	st.lruMisses.Add(1)
	ip, err = fitArtifact(a, st.workers)
	if err != nil {
		return nil, false, err
	}
	st.mu.Lock()
	if el, ok := st.lruIdx[id]; ok {
		// A concurrent query fit the same artifact first; serve that one so
		// every caller shares a single resident spline.
		st.lru.MoveToFront(el)
		ip = el.Value.(*lruEntry).ip
	} else {
		st.lruIdx[id] = st.lru.PushFront(&lruEntry{id: id, ip: ip})
		for st.lru.Len() > st.lruCap {
			tail := st.lru.Back()
			st.lru.Remove(tail)
			delete(st.lruIdx, tail.Value.(*lruEntry).id)
			st.evictions.Add(1)
		}
	}
	st.mu.Unlock()
	return ip, false, nil
}

// fitArtifact fits the spline surrogate for an artifact's landscape.
func fitArtifact(a *landscape.Artifact, workers int) (interp.Interpolator, error) {
	l, err := a.Landscape()
	if err != nil {
		return nil, err
	}
	axes := make([][]float64, len(l.Grid.Axes))
	for i, ax := range l.Grid.Axes {
		axes[i] = ax.Values()
	}
	s, err := interp.NewNDSpline(axes, l.Data)
	if err != nil {
		return nil, err
	}
	return s.SetWorkers(workers), nil
}

// artifactJSON is the wire metadata of a stored artifact.
type artifactJSON struct {
	ID          string                `json:"id"`
	Shape       []int                 `json:"shape"`
	Points      int                   `json:"points"`
	Axes        []AxisSpec            `json:"axes"`
	Fingerprint string                `json:"fingerprint,omitempty"`
	Solver      *landscape.SolverMeta `json:"solver,omitempty"`
	NRMSE       jsonFloat             `json:"nrmse"`
	CreatedAt   time.Time             `json:"created_at"`
	Checksum    string                `json:"checksum"`
}

func artifactView(a *landscape.Artifact) artifactJSON {
	v := artifactJSON{
		ID:          a.ID(),
		Shape:       a.Shape(),
		Fingerprint: a.Fingerprint,
		NRMSE:       jsonFloat(a.NRMSE),
		CreatedAt:   a.CreatedAt,
		Checksum:    a.Checksum(),
	}
	points := 1
	for _, ax := range a.Axes {
		v.Axes = append(v.Axes, AxisSpec{Name: ax.Name, Min: ax.Min, Max: ax.Max, N: ax.N})
		points *= ax.N
	}
	v.Points = points
	if a.Solver != (landscape.SolverMeta{}) {
		sm := a.Solver
		v.Solver = &sm
	}
	return v
}

func (s *Server) handleArtifactList(w http.ResponseWriter, r *http.Request) {
	arts := s.artifacts.snapshot()
	views := make([]artifactJSON, len(arts))
	for i, a := range arts {
		views[i] = artifactView(a)
	}
	writeJSON(w, http.StatusOK, map[string]any{"landscapes": views})
}

func (s *Server) handleArtifactGet(w http.ResponseWriter, r *http.Request) {
	a, ok := s.artifacts.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown landscape"})
		return
	}
	writeJSON(w, http.StatusOK, artifactView(a))
}

// handleArtifactGrid returns the full grid data of one artifact — the dense
// reconstructed landscape a client can plot or post-process. Metadata rides
// along so the response is self-describing. Artifact ids are content
// addresses, so the id doubles as a strong ETag: a client re-fetching an
// unchanged grid gets 304 Not Modified and skips the (potentially large)
// data payload entirely.
func (s *Server) handleArtifactGrid(w http.ResponseWriter, r *http.Request) {
	a, ok := s.artifacts.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown landscape"})
		return
	}
	etag := `"` + a.ID() + `"`
	w.Header().Set("ETag", etag)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"meta": artifactView(a),
		"data": jsonFloats(a.Data),
	})
}

// etagMatch reports whether an If-None-Match header value matches the given
// strong ETag: "*" matches anything, otherwise each comma-separated
// candidate is compared after stripping any weak-validator prefix (weak
// comparison — RFC 9110 §8.8.3.2 — is the correct mode for If-None-Match).
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" {
			return true
		}
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

// queryRequest is the body of POST /landscapes/{id}/query: a batch of
// parameter vectors to evaluate on the fitted surrogate.
type queryRequest struct {
	// Points are the parameter vectors, each of the artifact's arity.
	// Out-of-domain coordinates clamp to the grid hull.
	Points [][]float64 `json:"points"`
	// Gradients additionally returns the surrogate gradient at every point.
	Gradients bool `json:"gradients,omitempty"`
}

// queryResponse carries the batch evaluation. Values are bit-identical to
// in-process Interpolator evaluation on the same artifact: the float64s
// round-trip exactly through the shortest-round-trip JSON encoding.
type queryResponse struct {
	ID        string       `json:"id"`
	Count     int          `json:"count"`
	Values    jsonFloats   `json:"values"`
	Gradients []jsonFloats `json:"gradients,omitempty"`
	// Trace is the request's span tree, returned inline when the query was
	// made with ?trace=1 (query traces are per-request and not stored
	// server-side, unlike job traces).
	Trace *obs.TraceTree `json:"trace,omitempty"`
}

// decodeQuery reads and validates a query body against an artifact of the
// given arity. It returns the request, or the message of the 400 to answer.
func (s *Server) decodeQuery(w http.ResponseWriter, r *http.Request, arity int) (queryRequest, string) {
	body, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength, s.cfg.MaxBodyBytes)
	req, err := decodeQueryBody(body, err)
	if err != nil {
		return req, "malformed query: " + err.Error()
	}
	if len(req.Points) == 0 {
		return req, "query: no points"
	}
	if len(req.Points) > s.cfg.MaxQueryPoints {
		return req, fmt.Sprintf("query: %d points exceeds the limit of %d", len(req.Points), s.cfg.MaxQueryPoints)
	}
	for i, p := range req.Points {
		if len(p) != arity {
			return req, fmt.Sprintf("query: point %d has %d coordinates, landscape has %d axes", i, len(p), arity)
		}
		for k, c := range p {
			if !isFinite(c) {
				return req, fmt.Sprintf("query: point %d coordinate %d is not finite", i, k)
			}
		}
	}
	return req, ""
}

// handleArtifactQuery evaluates a batch of points on an artifact's fitted
// surrogate — the vectorized, backend-free read path. Validation failures are
// 400s; the evaluation itself cannot fail (the surrogate clamps to the hull).
func (s *Server) handleArtifactQuery(w http.ResponseWriter, r *http.Request) {
	a, ok := s.artifacts.get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "unknown landscape"})
		return
	}
	// Surrogate queries get a per-request trace: it feeds the stage
	// histograms always, and rides back inline on ?trace=1. The tracer is
	// request-scoped and never stored server-side. It opens before the
	// body is read, so query.decode times decoding and validation.
	tr := s.newTracer()
	root := tr.Start("query")
	dspan := root.Child("query.decode")
	req, msg := s.decodeQuery(w, r, len(a.Axes))
	if msg != "" {
		dspan.SetError(errors.New(msg))
		dspan.End()
		root.End()
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": msg})
		return
	}
	dspan.End()
	root.SetAttr("points", len(req.Points))
	root.SetAttr("gradients", req.Gradients)
	fspan := root.Child("query.fit")
	ip, hit, err := s.artifacts.interpolator(a.ID())
	fspan.SetAttr("hit", hit)
	fspan.SetError(err)
	fspan.End()
	if err != nil {
		root.End()
		writeJSON(w, http.StatusInternalServerError, map[string]any{"error": "fitting surrogate: " + err.Error()})
		return
	}
	resp := queryResponse{ID: a.ID(), Count: len(req.Points)}
	espan := root.Child("query.eval")
	values := make([]float64, len(req.Points))
	if err := ip.AtPoints(values, req.Points); err != nil {
		espan.SetError(err)
		espan.End()
		root.End()
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": "query: " + err.Error()})
		return
	}
	resp.Values = values
	if req.Gradients {
		grads := make([][]float64, len(req.Points))
		arity := len(a.Axes)
		backing := make([]float64, len(req.Points)*arity)
		for i := range grads {
			grads[i] = backing[i*arity : (i+1)*arity : (i+1)*arity]
		}
		if err := ip.GradientAtPoints(grads, req.Points); err != nil {
			espan.SetError(err)
			espan.End()
			root.End()
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": "query: " + err.Error()})
			return
		}
		resp.Gradients = make([]jsonFloats, len(grads))
		for i, g := range grads {
			resp.Gradients[i] = g
		}
	}
	espan.End()
	root.End()
	s.artifacts.queryPoints.Add(int64(len(req.Points)))
	if r.URL.Query().Get("trace") == "1" {
		resp.Trace = tr.Snapshot()
	}
	floats := len(req.Points)
	if req.Gradients {
		floats *= 1 + len(a.Axes)
	}
	body, err := appendQueryResponse(make([]byte, 0, 64+len(resp.ID)+24*floats), &resp)
	if err != nil {
		// writeJSON answers the same encoding failure with its 500.
		writeJSON(w, http.StatusOK, resp)
		return
	}
	writeBody(w, http.StatusOK, body)
}

// artifactCounts is the store's accounting as /stats reports it (fields in
// JSON key order); /metrics exports the same values.
type artifactCounts struct {
	Count         int    `json:"count"`
	DirError      string `json:"dir_error,omitempty"`
	DiskBacked    bool   `json:"disk_backed"`
	Evictions     int64  `json:"evictions"`
	LoadErrors    int64  `json:"load_errors"`
	LRUCapacity   int    `json:"lru_capacity"`
	LRUEntries    int    `json:"lru_entries"`
	LRUHits       int64  `json:"lru_hits"`
	LRUMisses     int64  `json:"lru_misses"`
	PublishErrors int64  `json:"publish_errors"`
	Published     int64  `json:"published"`
	QueryPoints   int64  `json:"query_points"`
}

// counts reads the store's sizes and counters.
func (st *artifactStore) counts() artifactCounts {
	st.mu.Lock()
	arts, fitted := len(st.arts), st.lru.Len()
	st.mu.Unlock()
	return artifactCounts{
		Count:         arts,
		DirError:      st.dirErr,
		DiskBacked:    st.dir != "",
		Evictions:     st.evictions.Load(),
		LoadErrors:    st.loadErrors.Load(),
		LRUCapacity:   st.lruCap,
		LRUEntries:    fitted,
		LRUHits:       st.lruHits.Load(),
		LRUMisses:     st.lruMisses.Load(),
		PublishErrors: st.publishErrors.Load(),
		Published:     st.published.Load(),
		QueryPoints:   st.queryPoints.Load(),
	}
}

// ArtifactInfo reports the store's size and boot-time load failures, for
// oscard's startup logging.
func (s *Server) ArtifactInfo() (count int, loadErrors int64, dirErr string) {
	c := s.artifacts.counts()
	return c.Count, c.LoadErrors, c.DirError
}

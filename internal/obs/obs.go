// Package obs is the dependency-free observability layer: per-job tracing
// (parent/child spans with wall-clock and virtual-time durations, carried
// through context.Context) and per-stage latency histograms exported in the
// Prometheus text format. Every hot path in the repository threads a span
// through it, so the layer is built around two cost guarantees:
//
//   - Zero cost when disabled. Tracing is off whenever no span rides the
//     context: Start then costs one context.Value lookup and returns a nil
//     *Span, and every Span method is a nil-receiver no-op. A nil *Tracer
//     behaves the same way, so library callers never pay for plumbing they
//     do not use.
//
//   - Bounded cost when enabled. A Tracer caps the spans it will record
//     (MaxSpans); starts beyond the cap are counted in Dropped and return
//     nil spans, so a runaway loop cannot balloon a trace.
//
// Spans carry both wall-clock timing (always) and an optional virtual-time
// interval (SetVirtual) so fleet-simulation spans — whose interesting
// duration is simulated seconds, not host nanoseconds — stay meaningful.
// Snapshot serializes the tree at any moment: spans still open (a canceled
// or crashed job, a mid-run poll) are rendered with a provisional end and
// Open set, never dangling.
package obs

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxSpans is the per-trace span cap when MaxSpans is unset.
const DefaultMaxSpans = 4096

// EndedSpan is the summary handed to a Tracer's OnEnd hook when a span
// ends: enough to feed per-stage latency histograms without retaining the
// span.
type EndedSpan struct {
	// Name is the span name (the stage).
	Name string
	// Wall is the wall-clock duration.
	Wall time.Duration
	// Virtual is the virtual-time duration in seconds; meaningful only
	// when HasVirtual is set.
	Virtual    float64
	HasVirtual bool
}

// Tracer collects the spans of one trace — one job, one request. The zero
// of its configuration is usable: NewTracer(id) with DefaultMaxSpans and no
// OnEnd hook. A nil *Tracer is the disabled tracer: Start returns nil and
// every derived span operation is a no-op.
type Tracer struct {
	// MaxSpans caps recorded spans (<=0 means DefaultMaxSpans). Set before
	// the first Start.
	MaxSpans int
	// OnEnd, when set, is called (outside the tracer lock) the first time
	// each span ends. Set before the first Start.
	OnEnd func(EndedSpan)

	id      string
	dropped atomic.Int64

	mu     sync.Mutex
	spans  []*Span
	nextID int64
}

// NewTracer builds a tracer for one trace id.
func NewTracer(id string) *Tracer {
	return &Tracer{id: id}
}

// ID returns the trace id ("" for a nil tracer).
func (t *Tracer) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Dropped returns how many span starts the cap rejected.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Start begins a root span. Returns nil on a nil tracer or past the cap.
func (t *Tracer) Start(name string) *Span {
	return t.newSpan(name, 0, time.Now())
}

func (t *Tracer) newSpan(name string, parent int64, start time.Time) *Span {
	if t == nil {
		return nil
	}
	max := t.MaxSpans
	if max <= 0 {
		max = DefaultMaxSpans
	}
	t.mu.Lock()
	if len(t.spans) >= max {
		t.mu.Unlock()
		t.dropped.Add(1)
		return nil
	}
	t.nextID++
	s := &Span{t: t, id: t.nextID, parent: parent, name: name, start: start}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Attr is one span attribute.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed operation inside a trace. All methods are safe on a nil
// receiver (the disabled fast path) and safe for concurrent use — parallel
// workers attribute sibling spans while a snapshot renders the tree.
type Span struct {
	t      *Tracer
	id     int64
	parent int64
	name   string
	start  time.Time

	// Guarded by t.mu.
	end          time.Time
	ended        bool
	vstart, vend float64
	hasVirtual   bool
	attrs        []Attr
}

// Child begins a span nested under s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.newSpan(name, s.id, time.Now())
}

// SetAttr records a key/value attribute. Values are sanitized for JSON:
// integers widen to int64, non-finite floats become their string names
// (encoding/json rejects NaN/±Inf outright).
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	value = sanitizeAttr(value)
	s.t.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = value
			s.t.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.t.mu.Unlock()
}

// SetError records a non-nil error as the span's "error" attribute.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.SetAttr("error", err.Error())
}

// SetVirtual records the span's virtual-time interval in seconds — the
// simulated clock of fleet scheduling, where wall-clock duration is
// meaningless. start == end marks an instantaneous event.
func (s *Span) SetVirtual(start, end float64) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	s.vstart, s.vend, s.hasVirtual = start, end, true
	s.t.mu.Unlock()
}

// End closes the span. Idempotent: only the first call records the end time
// and fires the tracer's OnEnd hook.
func (s *Span) End() { s.endAt(time.Now()) }

// Next ends s and begins its sibling name at the same instant, so
// consecutive stages of one parent leave no gap between them, whatever
// s's OnEnd hook costs. On a nil span it returns nil.
func (s *Span) Next(name string) *Span {
	if s == nil {
		return nil
	}
	now := time.Now()
	s.endAt(now)
	return s.t.newSpan(name, s.parent, now)
}

// EndWith ends the child last, if still open, and s at the same instant,
// so a span whose stages tile it ends where its last stage does.
func (s *Span) EndWith(last *Span) {
	now := time.Now()
	last.endAt(now)
	s.endAt(now)
}

// endAt closes the span at now, once; see End.
func (s *Span) endAt(now time.Time) {
	if s == nil {
		return
	}
	s.t.mu.Lock()
	if s.ended {
		s.t.mu.Unlock()
		return
	}
	s.ended = true
	s.end = now
	es := EndedSpan{
		Name:       s.name,
		Wall:       s.end.Sub(s.start),
		Virtual:    s.vend - s.vstart,
		HasVirtual: s.hasVirtual,
	}
	hook := s.t.OnEnd
	s.t.mu.Unlock()
	if hook != nil {
		hook(es)
	}
}

// sanitizeAttr makes an attribute value JSON-encodable.
func sanitizeAttr(v any) any {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int32:
		return int64(x)
	case float64:
		if math.IsNaN(x) {
			return "NaN"
		}
		if math.IsInf(x, 1) {
			return "+Inf"
		}
		if math.IsInf(x, -1) {
			return "-Inf"
		}
		return x
	case string, bool, int64, uint64:
		return x
	default:
		return x
	}
}

// spanKey carries the active span through a context.
type spanKey struct{}

// ContextWithSpan returns ctx carrying s. A nil span returns ctx unchanged,
// keeping the disabled path allocation-free.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the span riding ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Start begins a child of the span riding ctx and returns it along with a
// context carrying it. When no span rides ctx — tracing disabled — it
// returns (nil, ctx) after a single context lookup; every operation on the
// nil span is a no-op.
func Start(ctx context.Context, name string) (*Span, context.Context) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return nil, ctx
	}
	s := parent.Child(name)
	if s == nil {
		// Span cap reached: record nothing, keep the parent in ctx.
		return nil, ctx
	}
	return s, ContextWithSpan(ctx, s)
}

// SpanNode is the serialized form of one span in a snapshot tree.
type SpanNode struct {
	ID       int64          `json:"id"`
	Name     string         `json:"name"`
	Start    time.Time      `json:"start"`
	End      time.Time      `json:"end"`
	DurMS    float64        `json:"duration_ms"`
	Open     bool           `json:"open,omitempty"`
	VStart   *float64       `json:"virtual_start_s,omitempty"`
	VEnd     *float64       `json:"virtual_end_s,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanNode    `json:"children,omitempty"`
}

// TraceTree is a serialized snapshot of a whole trace.
type TraceTree struct {
	TraceID      string      `json:"trace_id"`
	SpanCount    int         `json:"span_count"`
	DroppedSpans int64       `json:"dropped_spans"`
	Spans        []*SpanNode `json:"spans"`
}

// Snapshot serializes the span tree as of now. Open spans — a running job,
// or one that ended without closing them (cancellation, a recovered panic)
// — are rendered with end = now and Open set, so a partial trace always
// serializes cleanly. Snapshot does not mutate the trace; it can be taken
// repeatedly while the job runs. Returns nil on a nil tracer.
func (t *Tracer) Snapshot() *TraceTree {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	nodes := make([]*SpanNode, len(t.spans))
	byID := make(map[int64]*SpanNode, len(t.spans))
	for i, s := range t.spans {
		n := &SpanNode{ID: s.id, Name: s.name, Start: s.start, End: s.end}
		if !s.ended {
			n.End = now
			n.Open = true
		}
		n.DurMS = float64(n.End.Sub(s.start)) / float64(time.Millisecond)
		if s.hasVirtual {
			vs, ve := s.vstart, s.vend
			n.VStart, n.VEnd = &vs, &ve
		}
		if len(s.attrs) > 0 {
			n.Attrs = make(map[string]any, len(s.attrs))
			for _, a := range s.attrs {
				n.Attrs[a.Key] = a.Value
			}
		}
		nodes[i] = n
		byID[s.id] = n
	}
	tree := &TraceTree{
		TraceID:      t.id,
		SpanCount:    len(t.spans),
		DroppedSpans: t.dropped.Load(),
	}
	for i, s := range t.spans {
		if p, ok := byID[s.parent]; ok && s.parent != s.id {
			p.Children = append(p.Children, nodes[i])
		} else {
			tree.Spans = append(tree.Spans, nodes[i])
		}
	}
	t.mu.Unlock()
	return tree
}

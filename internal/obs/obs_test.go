package obs

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	if tr.ID() != "" || tr.Dropped() != 0 || tr.Len() != 0 {
		t.Fatal("nil tracer accessors should be zero")
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer snapshot should be nil")
	}
	s := tr.Start("x")
	if s != nil {
		t.Fatal("nil tracer Start should return nil")
	}
	// Every span method must be callable on nil.
	s.SetAttr("k", 1)
	s.SetError(errors.New("boom"))
	s.SetVirtual(0, 1)
	s.End()
	if c := s.Child("y"); c != nil {
		t.Fatal("nil span Child should return nil")
	}
	if n := s.Next("z"); n != nil {
		t.Fatal("nil span Next should return nil")
	}
	s.EndWith(nil)
}

func TestStartWithoutSpanInContext(t *testing.T) {
	ctx := context.Background()
	s, ctx2 := Start(ctx, "op")
	if s != nil {
		t.Fatal("Start without a span in ctx must return nil span")
	}
	if ctx2 != ctx {
		t.Fatal("Start without a span must return ctx unchanged")
	}
}

func TestContextCarriesSpan(t *testing.T) {
	tr := NewTracer("t1")
	root := tr.Start("job")
	ctx := ContextWithSpan(context.Background(), root)
	if got := SpanFromContext(ctx); got != root {
		t.Fatal("SpanFromContext should return the carried span")
	}
	child, cctx := Start(ctx, "stage")
	if child == nil {
		t.Fatal("Start with a span in ctx should create a child")
	}
	if got := SpanFromContext(cctx); got != child {
		t.Fatal("returned ctx should carry the child")
	}
	child.End()
	root.End()
	tree := tr.Snapshot()
	if len(tree.Spans) != 1 || tree.Spans[0].Name != "job" {
		t.Fatalf("want one root 'job', got %+v", tree.Spans)
	}
	kids := tree.Spans[0].Children
	if len(kids) != 1 || kids[0].Name != "stage" {
		t.Fatalf("want child 'stage', got %+v", kids)
	}
	if tree.TraceID != "t1" || tree.SpanCount != 2 || tree.DroppedSpans != 0 {
		t.Fatalf("bad tree header: %+v", tree)
	}
}

func TestSpanCapAndDropCounter(t *testing.T) {
	tr := NewTracer("cap")
	tr.MaxSpans = 3
	root := tr.Start("r")
	for i := 0; i < 10; i++ {
		root.Child("c").End()
	}
	if got := tr.Len(); got != 3 {
		t.Fatalf("span count = %d, want 3", got)
	}
	if got := tr.Dropped(); got != 8 {
		t.Fatalf("dropped = %d, want 8", got)
	}
	// Start through context past the cap keeps the parent riding ctx.
	ctx := ContextWithSpan(context.Background(), root)
	s, ctx2 := Start(ctx, "over")
	if s != nil {
		t.Fatal("span past cap should be nil")
	}
	if SpanFromContext(ctx2) != root {
		t.Fatal("ctx should still carry the parent after a dropped start")
	}
	tree := tr.Snapshot()
	if tree.DroppedSpans != 9 {
		t.Fatalf("tree dropped = %d, want 9", tree.DroppedSpans)
	}
}

func TestSnapshotOpenSpans(t *testing.T) {
	tr := NewTracer("open")
	root := tr.Start("job")
	child := root.Child("stage")
	_ = child
	time.Sleep(2 * time.Millisecond)
	tree := tr.Snapshot()
	n := tree.Spans[0]
	if !n.Open || !n.Children[0].Open {
		t.Fatal("unended spans must render Open")
	}
	if n.End.Before(n.Start) || n.DurMS <= 0 {
		t.Fatal("open span must get a provisional end after start")
	}
	// Snapshot must not mutate: ending afterwards still works and a second
	// snapshot sees the closed state.
	child.End()
	root.End()
	tree2 := tr.Snapshot()
	if tree2.Spans[0].Open || tree2.Spans[0].Children[0].Open {
		t.Fatal("ended spans must not render Open")
	}
}

func TestAttrsSanitizedAndSerializable(t *testing.T) {
	tr := NewTracer("attr")
	s := tr.Start("x")
	s.SetAttr("int", 42)
	s.SetAttr("nan", math.NaN())
	s.SetAttr("pinf", math.Inf(1))
	s.SetAttr("ninf", math.Inf(-1))
	s.SetAttr("str", "v")
	s.SetAttr("str", "v2") // overwrite, not duplicate
	s.SetError(errors.New("kaput"))
	s.End()
	tree := tr.Snapshot()
	attrs := tree.Spans[0].Attrs
	if attrs["int"] != int64(42) {
		t.Fatalf("int attr = %#v, want int64(42)", attrs["int"])
	}
	if attrs["nan"] != "NaN" || attrs["pinf"] != "+Inf" || attrs["ninf"] != "-Inf" {
		t.Fatalf("non-finite floats must become strings: %#v", attrs)
	}
	if attrs["str"] != "v2" {
		t.Fatalf("attr overwrite failed: %#v", attrs["str"])
	}
	if attrs["error"] != "kaput" {
		t.Fatalf("error attr = %#v", attrs["error"])
	}
	if _, err := json.Marshal(tree); err != nil {
		t.Fatalf("tree must JSON-encode: %v", err)
	}
}

func TestEndIdempotentAndOnEndHook(t *testing.T) {
	var mu sync.Mutex
	var ends []EndedSpan
	tr := NewTracer("hook")
	tr.OnEnd = func(e EndedSpan) {
		mu.Lock()
		ends = append(ends, e)
		mu.Unlock()
	}
	s := tr.Start("stage")
	s.SetVirtual(10, 35)
	s.End()
	s.End()
	s.End()
	if len(ends) != 1 {
		t.Fatalf("OnEnd fired %d times, want 1", len(ends))
	}
	e := ends[0]
	if e.Name != "stage" || !e.HasVirtual || e.Virtual != 25 {
		t.Fatalf("bad EndedSpan: %+v", e)
	}
	if e.Wall < 0 {
		t.Fatalf("negative wall duration: %v", e.Wall)
	}
}

func TestConcurrentSpansAndSnapshot(t *testing.T) {
	tr := NewTracer("conc")
	root := tr.Start("job")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := root.Child("work")
				c.SetAttr("w", w)
				c.SetVirtual(float64(i), float64(i+1))
				c.End()
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		tr.Snapshot() // concurrent reads while writers run
	}
	wg.Wait()
	root.End()
	tree := tr.Snapshot()
	if tree.SpanCount != 401 {
		t.Fatalf("span count = %d, want 401", tree.SpanCount)
	}
	if len(tree.Spans[0].Children) != 400 {
		t.Fatalf("children = %d, want 400", len(tree.Spans[0].Children))
	}
}

func TestChromeEvents(t *testing.T) {
	tr := NewTracer("chrome")
	root := tr.Start("job")
	a := root.Child("a")
	a.SetVirtual(0, 2)
	time.Sleep(time.Millisecond)
	a.End()
	b := root.Child("b")
	b.SetVirtual(2, 5)
	b.End()
	root.End()
	ct := ChromeEvents(tr.Snapshot())
	if ct.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", ct.DisplayTimeUnit)
	}
	var meta, wall, virt int
	for _, ev := range ct.TraceEvents {
		switch {
		case ev.Ph == "M":
			meta++
		case ev.PID == chromeWallPID:
			wall++
			if ev.Ph != "X" || ev.TS < 0 {
				t.Fatalf("bad wall event: %+v", ev)
			}
		case ev.PID == chromeVirtualPID:
			virt++
		}
	}
	if meta != 2 {
		t.Fatalf("metadata events = %d, want 2", meta)
	}
	if wall != 3 {
		t.Fatalf("wall events = %d, want 3 (job,a,b)", wall)
	}
	if virt != 2 {
		t.Fatalf("virtual events = %d, want 2 (a,b)", virt)
	}
	// Virtual slices: a at ts 0 dur 2e6, b at ts 2e6 dur 3e6 — non-overlapping,
	// so both land in lane/tid 1.
	for _, ev := range ct.TraceEvents {
		if ev.PID == chromeVirtualPID && ev.Ph == "X" && ev.TID != 1 {
			t.Fatalf("non-overlapping virtual slices should share tid 1: %+v", ev)
		}
	}
	if _, err := json.Marshal(ct); err != nil {
		t.Fatalf("chrome trace must JSON-encode: %v", err)
	}
	if ChromeEvents(nil) == nil {
		t.Fatal("nil tree should yield an empty, non-nil trace")
	}
}

func TestChromeLaneAssignmentOverlap(t *testing.T) {
	slices := []chromeSlice{
		{name: "p", ts: 0, dur: 10},
		{name: "c1", ts: 0, dur: 4},
		{name: "c2", ts: 5, dur: 4},
		{name: "q", ts: 12, dur: 2},
	}
	evs := assignLanes(slices, 1)
	byName := map[string]ChromeEvent{}
	for _, e := range evs {
		byName[e.Name] = e
	}
	// Longest-first at equal ts: parent p gets lane 1; c1 overlaps → lane 2;
	// c2 overlaps p but not c1 → lane 2; q starts after everything → lane 1.
	if byName["p"].TID != 1 || byName["c1"].TID != 2 || byName["c2"].TID != 2 || byName["q"].TID != 1 {
		t.Fatalf("lane assignment wrong: p=%d c1=%d c2=%d q=%d",
			byName["p"].TID, byName["c1"].TID, byName["c2"].TID, byName["q"].TID)
	}
}

func BenchmarkSpanDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, ctx2 := Start(ctx, "op")
		s.SetAttr("k", i)
		s.End()
		_ = ctx2
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	tr := NewTracer("bench")
	tr.MaxSpans = b.N + 2
	root := tr.Start("job")
	ctx := ContextWithSpan(context.Background(), root)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := Start(ctx, "op")
		s.SetAttr("k", i)
		s.End()
	}
}

// TestStagesTileParent: Next starts each stage the instant the previous one
// ends, under its parent, even when the OnEnd hook is slow, and EndWith
// ends the last stage and the parent together, so the stages' durations
// add up to the parent's less only the moment before the first stage.
func TestStagesTileParent(t *testing.T) {
	tr := NewTracer("stages")
	tr.OnEnd = func(EndedSpan) { time.Sleep(2 * time.Millisecond) }
	root := tr.Start("job")
	a := root.Child("validate")
	b := a.Next("queue")
	c := b.Next("run")
	root.EndWith(c)
	c.End() // already ended: keeps its end

	tree := tr.Snapshot()
	if len(tree.Spans) != 1 || len(tree.Spans[0].Children) != 3 {
		t.Fatalf("want one root with three stages, got %+v", tree.Spans)
	}
	job, stages := tree.Spans[0], tree.Spans[0].Children
	for i, name := range []string{"validate", "queue", "run"} {
		if stages[i].Name != name || stages[i].Open {
			t.Fatalf("stage %d = %+v, want closed %q", i, stages[i], name)
		}
		if i > 0 && !stages[i].Start.Equal(stages[i-1].End) {
			t.Fatalf("%s starts at %v, %s ended at %v", name, stages[i].Start, stages[i-1].Name, stages[i-1].End)
		}
	}
	if !job.End.Equal(stages[2].End) {
		t.Fatalf("job ends at %v, its last stage at %v", job.End, stages[2].End)
	}
}

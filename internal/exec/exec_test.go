package exec

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/backend"
)

// batch builds n 2-parameter points with distinct coordinates.
func batch(n int) [][]float64 {
	ps := make([][]float64, n)
	for i := range ps {
		ps[i] = []float64{float64(i) * 0.01, -float64(i) * 0.02}
	}
	return ps
}

func costOf(p []float64) float64 { return math.Sin(p[0]) + 2*math.Cos(p[1]) }

func pointEval(p []float64) (float64, error) { return costOf(p), nil }

func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	// The chunk layout follows the batch size and worker count: 13 points
	// run one per chunk, 937 run in chunks of 117 on one worker and 29 on
	// four, and 4103 fill 512-point chunks on one worker with a 7-point
	// tail. None is a multiple of its chunk size.
	for _, n := range []int{13, 937, 4103} {
		params := batch(n)
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			en := New(Lift(pointEval), Options{Workers: workers})
			got, err := en.EvaluateBatch(context.Background(), params)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(params) {
				t.Fatalf("n=%d workers=%d: %d results for %d points", n, workers, len(got), len(params))
			}
			for i, p := range params {
				if got[i] != costOf(p) {
					t.Fatalf("n=%d workers=%d chunk=%d: result %d = %g, want %g",
						n, workers, chunkSize(n, workers), i, got[i], costOf(p))
				}
			}
		}
	}
}

// TestEngineSequentialWithOneWorker checks the Workers=1 ordering contract
// that evaluators with a shared random stream rely on.
func TestEngineSequentialWithOneWorker(t *testing.T) {
	params := batch(100)
	var order []int
	en := New(Lift(func(p []float64) (float64, error) {
		order = append(order, int(math.Round(p[0]/0.01)))
		return 0, nil
	}), Options{Workers: 1})
	if _, err := en.EvaluateBatch(context.Background(), params); err != nil {
		t.Fatal(err)
	}
	if len(order) != len(params) {
		t.Fatalf("evaluated %d of %d points", len(order), len(params))
	}
	for i, idx := range order {
		if idx != i {
			t.Fatalf("evaluation order[%d] = %d, want ascending", i, idx)
		}
	}
}

func TestEngineCacheAccounting(t *testing.T) {
	var execs atomic.Int64
	cache := NewCache(0)
	en := New(Lift(func(p []float64) (float64, error) {
		execs.Add(1)
		return costOf(p), nil
	}), Options{Workers: 4, Cache: cache})

	params := batch(200)
	// First pass: all misses.
	first, err := en.EvaluateBatch(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 200 {
		t.Fatalf("first pass executed %d points, want 200", got)
	}
	if cache.Hits() != 0 || cache.Misses() != 200 {
		t.Fatalf("first pass hits=%d misses=%d, want 0/200", cache.Hits(), cache.Misses())
	}
	// Second pass: all hits, zero executions, identical values.
	second, err := en.EvaluateBatch(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 200 {
		t.Fatalf("second pass re-executed: %d total execs", got)
	}
	if cache.Hits() != 200 {
		t.Fatalf("second pass hits=%d, want 200", cache.Hits())
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("cached value %d differs: %g vs %g", i, first[i], second[i])
		}
	}
	if cache.Len() != 200 {
		t.Fatalf("cache holds %d entries, want 200", cache.Len())
	}
}

// TestEngineCacheDedupWithinBatch submits the same point many times in one
// batch and checks it executes once.
func TestEngineCacheDedupWithinBatch(t *testing.T) {
	var execs atomic.Int64
	cache := NewCache(0)
	en := New(Lift(func(p []float64) (float64, error) {
		execs.Add(1)
		return costOf(p), nil
	}), Options{Workers: 4, Cache: cache})

	params := make([][]float64, 64)
	for i := range params {
		params[i] = []float64{0.25, -0.5} // same point, fresh slice each time
	}
	vals, err := en.EvaluateBatch(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("duplicate point executed %d times", got)
	}
	// One execution: 1 miss, the 63 duplicates are hits.
	if cache.Misses() != 1 || cache.Hits() != 63 {
		t.Fatalf("dedup accounting hits=%d misses=%d, want 63/1", cache.Hits(), cache.Misses())
	}
	want := costOf(params[0])
	for i, v := range vals {
		if v != want {
			t.Fatalf("result %d = %g, want %g", i, v, want)
		}
	}
}

// TestEngineCacheQuantization checks that sub-quantum jitter shares an entry
// while supra-quantum separation does not.
func TestEngineCacheQuantization(t *testing.T) {
	cache := NewCache(1e-6)
	cache.Store([]float64{0.5}, 42)
	if v, ok := cache.Lookup([]float64{0.5 + 1e-9}); !ok || v != 42 {
		t.Fatalf("sub-quantum jitter missed the cache (ok=%v v=%g)", ok, v)
	}
	if _, ok := cache.Lookup([]float64{0.5 + 1e-4}); ok {
		t.Fatal("distinct point hit the cache")
	}
}

func TestEngineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var seen atomic.Int64
	en := New(Lift(func(p []float64) (float64, error) {
		if seen.Add(1) == 10 {
			cancel() // cancel mid-batch from inside an evaluation
		}
		return 0, nil
	}), Options{Workers: 2})
	_, err := en.EvaluateBatch(ctx, batch(10_000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := seen.Load(); n >= 10_000 {
		t.Fatalf("cancellation did not stop the batch (%d points ran)", n)
	}
}

func TestEnginePreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	en := New(Lift(pointEval), Options{})
	if _, err := en.EvaluateBatch(ctx, batch(5)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEngineErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	var seen atomic.Int64
	en := New(Lift(func(p []float64) (float64, error) {
		if seen.Add(1) == 5 {
			return 0, boom
		}
		return 0, nil
	}), Options{Workers: 3})
	if _, err := en.EvaluateBatch(context.Background(), batch(1000)); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestEngineEmptyBatch(t *testing.T) {
	en := New(Lift(pointEval), Options{})
	vals, err := en.EvaluateBatch(context.Background(), nil)
	if err != nil || len(vals) != 0 {
		t.Fatalf("empty batch: vals=%v err=%v", vals, err)
	}
}

// TestFromEvaluator checks native batch implementations are picked up while
// plain evaluators are lifted.
func TestFromEvaluator(t *testing.T) {
	plain := &backend.Func{Label: "plain", Params: 1, F: func(p []float64) (float64, error) { return p[0], nil }}
	be := FromEvaluator(plain)
	vals, err := be.EvaluateBatch(context.Background(), [][]float64{{1}, {2}})
	if err != nil || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("lifted evaluator: vals=%v err=%v", vals, err)
	}
	if _, native := backend.Evaluator(plain).(BatchEvaluator); !native {
		// backend.Func implements EvaluateBatch natively; if that changes
		// this test documents that FromEvaluator still works via Lift.
		t.Log("backend.Func has no native batch path; using Lift")
	}
}

func TestChunkSize(t *testing.T) {
	cases := []struct {
		n, w, want int
	}{
		{n: 10, w: 4, want: 1},
		{n: 937, w: 4, want: 29},
		{n: 5000, w: 8, want: 78},
		{n: 1 << 20, w: 1, want: 512},
	}
	for _, c := range cases {
		if got := chunkSize(c.n, c.w); got != c.want {
			t.Errorf("chunkSize(%d,%d) = %d, want %d", c.n, c.w, got, c.want)
		}
	}
}

// sharedPointFixture runs the in-flight dedup scenario: batch A claims the
// shared point x and blocks inside its execution; batch B, submitted with x
// plus a point y of its own, must find x in flight. Once B's own execution
// of y has started (so B has classified x), A is released with the outcome
// fail decides. It returns both batches' results and errors and the number
// of executions of x.
func sharedPointFixture(t *testing.T, bctx context.Context, fail bool) (outA, outB []float64, errA, errB error, xExecs int64) {
	t.Helper()
	x, y := []float64{0.5, 0.25}, []float64{-1, 2}
	var execs atomic.Int64
	aStarted, bRunning, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	en := New(Lift(func(p []float64) (float64, error) {
		if p[0] == y[0] {
			close(bRunning)
			return costOf(p), nil
		}
		if execs.Add(1) == 1 {
			close(aStarted)
			<-release
			if fail {
				return 0, errors.New("device lost")
			}
		}
		return costOf(p), nil
	}), Options{Workers: 1, Cache: NewCache(0)})

	doneA, doneB := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(doneA)
		outA, errA = en.EvaluateBatch(context.Background(), [][]float64{x})
	}()
	<-aStarted
	go func() {
		defer close(doneB)
		outB, errB = en.EvaluateBatch(bctx, [][]float64{x, y})
	}()
	<-bRunning
	close(release)
	<-doneA
	<-doneB
	return outA, outB, errA, errB, execs.Load()
}

// TestEngineCacheDedupAcrossConcurrentBatches: two concurrent batches on one
// cache that share a point execute it once; the batch that found it in
// flight waits for the value and counts it as a hit.
func TestEngineCacheDedupAcrossConcurrentBatches(t *testing.T) {
	outA, outB, errA, errB, xExecs := sharedPointFixture(t, context.Background(), false)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if xExecs != 1 {
		t.Fatalf("shared point executed %d times, want 1", xExecs)
	}
	if want := costOf([]float64{0.5, 0.25}); outA[0] != want || outB[0] != want {
		t.Fatalf("shared point values %v and %v, want %v", outA[0], outB[0], want)
	}
	if want := costOf([]float64{-1, 2}); outB[1] != want {
		t.Fatalf("own point value %v, want %v", outB[1], want)
	}
}

// TestEngineCacheWaiterExecutesAfterOwnerFails: when the batch executing a
// shared point fails, the batch waiting on it executes the point itself.
func TestEngineCacheWaiterExecutesAfterOwnerFails(t *testing.T) {
	_, outB, errA, errB, xExecs := sharedPointFixture(t, context.Background(), true)
	if errA == nil {
		t.Fatal("owner batch: want its execution error")
	}
	if errB != nil {
		t.Fatalf("waiting batch: %v", errB)
	}
	if xExecs != 2 {
		t.Fatalf("shared point executed %d times, want 2 (owner failed, waiter retried)", xExecs)
	}
	if want := costOf([]float64{0.5, 0.25}); outB[0] != want {
		t.Fatalf("shared point value %v, want %v", outB[0], want)
	}
}

// TestEngineCacheWaiterCancellation: a batch waiting on another batch's
// execution returns its context error as soon as it is cancelled, and the
// owner still completes and stores the point.
func TestEngineCacheWaiterCancellation(t *testing.T) {
	cache := NewCache(0)
	x, y := []float64{0.5, 0.25}, []float64{-1, 2}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started, release := make(chan struct{}), make(chan struct{})
	en := New(Lift(func(p []float64) (float64, error) {
		if p[0] == y[0] {
			// B has classified x as in flight and is running its own
			// point: cancel it before it starts waiting.
			cancel()
			return costOf(p), nil
		}
		close(started)
		<-release
		return costOf(p), nil
	}), Options{Workers: 1, Cache: cache})
	doneA := make(chan error)
	go func() {
		_, err := en.EvaluateBatch(context.Background(), [][]float64{x})
		doneA <- err
	}()
	<-started
	if _, err := en.EvaluateBatch(ctx, [][]float64{x, y}); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiting batch: %v, want context.Canceled", err)
	}
	close(release)
	if err := <-doneA; err != nil {
		t.Fatalf("owner batch: %v", err)
	}
	if v, ok := cache.Lookup(x); !ok || v != costOf(x) {
		t.Fatalf("owner's value not stored: %v %v", v, ok)
	}
}

package shard

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestForRangeCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7, 16} {
		for _, n := range []int{0, 1, 2, 5, 16, 100, 4097} {
			hits := make([]int32, n)
			ForRange(workers, n, func(slot, lo, hi int) {
				if lo < 0 || hi > n || lo > hi || slot < 0 || slot >= workers {
					t.Errorf("workers=%d n=%d: bad shard %d [%d,%d)", workers, n, slot, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestForRangeMoreWorkersThanItems(t *testing.T) {
	var calls int32
	ForRange(64, 3, func(slot, lo, hi int) {
		atomic.AddInt32(&calls, 1)
		if hi-lo != 1 || slot != lo {
			t.Errorf("shard %d [%d,%d) should be the single index %d", slot, lo, hi, slot)
		}
	})
	if calls != 3 {
		t.Fatalf("got %d shards, want 3", calls)
	}
}

func TestForRangeDeterministicBoundaries(t *testing.T) {
	// The i*n/w rule for (4, 10): [0,2) [2,5) [5,7) [7,10), slot i owning
	// the i-th shard. Each slot writes only its own element, so two runs
	// must agree exactly.
	collect := func() [4][2]int {
		var shards [4][2]int
		ForRange(4, 10, func(slot, lo, hi int) { shards[slot] = [2]int{lo, hi} })
		return shards
	}
	want := [4][2]int{{0, 2}, {2, 5}, {5, 7}, {7, 10}}
	for run := 0; run < 2; run++ {
		if got := collect(); got != want {
			t.Fatalf("run %d: shards %v, want %v", run, got, want)
		}
	}
}

func TestForRangeSerialInline(t *testing.T) {
	var got [][3]int
	// workers=1 must run inline (appending without synchronization is the
	// proof: the race detector would flag a goroutine).
	ForRange(1, 50, func(slot, lo, hi int) { got = append(got, [3]int{slot, lo, hi}) })
	if len(got) != 1 || got[0] != [3]int{0, 0, 50} {
		t.Fatalf("serial ForRange shards = %v, want one slot-0 [0,50)", got)
	}
}

// panicInShard is a named frame the re-raised stack must contain.
func panicInShard(slot int) {
	panic("shard exploded")
}

// recoverPanicError runs fn and returns the value it panicked with as a
// *PanicError, failing the test if fn returns normally or panics with
// anything else.
func recoverPanicError(t *testing.T, fn func()) (pe *PanicError) {
	t.Helper()
	defer func() {
		p := recover()
		var ok bool
		if pe, ok = p.(*PanicError); !ok {
			t.Fatalf("recovered %T(%v), want *PanicError", p, p)
		}
	}()
	fn()
	return nil
}

// TestForRangeReraisesWorkerPanic: a panicking shard comes back to the
// caller as the worker's own *PanicError, with its stack, and only after
// every other shard has finished.
func TestForRangeReraisesWorkerPanic(t *testing.T) {
	const workers = 8
	var finished atomic.Int32
	pe := recoverPanicError(t, func() {
		ForRange(workers, 64, func(slot, lo, hi int) {
			if slot == 3 {
				panicInShard(slot)
			}
			finished.Add(1)
		})
	})
	if pe.Value != "shard exploded" {
		t.Fatalf("panic value %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "panicInShard") {
		t.Fatalf("stack does not hold the panicking frame:\n%s", pe.Stack)
	}
	if got := finished.Load(); got != workers-1 {
		t.Fatalf("%d shards finished before the re-raise, want %d", got, workers-1)
	}
	if !strings.Contains(pe.Error(), "internal panic: shard exploded") {
		t.Fatalf("error text %q", pe.Error())
	}
}

// TestForRangeNestedPanicKeepsInnermostStack: a panic two ForRange levels
// deep surfaces once, with the stack of the innermost worker.
func TestForRangeNestedPanicKeepsInnermostStack(t *testing.T) {
	pe := recoverPanicError(t, func() {
		ForRange(2, 2, func(outer, _, _ int) {
			ForRange(2, 4, func(inner, _, _ int) {
				if outer == 1 && inner == 1 {
					panicInShard(inner)
				}
			})
		})
	})
	if pe.Value != "shard exploded" || !strings.Contains(string(pe.Stack), "panicInShard") {
		t.Fatalf("nested panic lost its origin: %v\n%s", pe.Value, pe.Stack)
	}
}

func TestGroupWaitReturnsFirstErrorAndCancels(t *testing.T) {
	boom := errors.New("boom")
	g, ctx := WithContext(context.Background())
	g.Go(func() error { return boom })
	g.Go(func() error {
		<-ctx.Done() // released only by the sibling's failure
		return ctx.Err()
	})
	if err := g.Wait(); err != boom {
		t.Fatalf("Wait = %v, want %v", err, boom)
	}
	if ctx.Err() == nil {
		t.Fatal("derived context not cancelled after a failure")
	}
}

func TestGroupWaitNoError(t *testing.T) {
	var g Group
	var n atomic.Int32
	for i := 0; i < 5; i++ {
		g.Go(func() error { n.Add(1); return nil })
	}
	if err := g.Wait(); err != nil || n.Load() != 5 {
		t.Fatalf("Wait = %v after %d workers", err, n.Load())
	}
}

// TestGroupPanicDisplacesError: a panic wins over an ordinary error that
// landed first, so a bug never hides behind the failure it raced.
func TestGroupPanicDisplacesError(t *testing.T) {
	g, ctx := WithContext(context.Background())
	g.Go(func() error { return errors.New("ordinary") })
	g.Go(func() error {
		<-ctx.Done()
		panicInShard(0)
		return nil
	})
	var pe *PanicError
	if err := g.Wait(); !errors.As(err, &pe) {
		t.Fatalf("Wait = %v, want *PanicError", err)
	}
}

// TestGroupNestedForRangePanic: a ForRange panic inside a Group worker is
// Wait's error — the same *PanicError the inner shard raised.
func TestGroupNestedForRangePanic(t *testing.T) {
	var g Group
	g.Go(func() error {
		ForRange(4, 16, func(slot, _, _ int) {
			if slot == 2 {
				panicInShard(slot)
			}
		})
		return nil
	})
	err := g.Wait()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Wait = %v, want *PanicError", err)
	}
	if !strings.Contains(string(pe.Stack), "panicInShard") {
		t.Fatalf("stack does not hold the inner shard's frame:\n%s", pe.Stack)
	}
}

func TestTry(t *testing.T) {
	if err := Try(func() error { return nil }); err != nil {
		t.Fatalf("Try(ok) = %v", err)
	}
	plain := errors.New("plain")
	if err := Try(func() error { return plain }); err != plain {
		t.Fatalf("Try(error) = %v, want the error unchanged", err)
	}
	err := Try(func() error { panicInShard(0); return nil })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "shard exploded" {
		t.Fatalf("Try(panic) = %v, want *PanicError", err)
	}
	if !strings.Contains(string(pe.Stack), "panicInShard") {
		t.Fatalf("stack does not hold the panicking frame:\n%s", pe.Stack)
	}
	// A re-raised *PanicError passes through unwrapped.
	if got := Try(func() error { panic(pe) }); got != pe {
		t.Fatalf("Try(re-raise) = %v, want the original *PanicError", got)
	}
}

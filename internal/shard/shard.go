// Package shard is the one fan-out primitive: every worker goroutine below
// the service — qsim kernel shards, backend shards, engine workers, DCT and
// solver shards, interpolator batches, fleet batches — starts here, stdlib
// only, with the same split and the same panic contract. A worker panic
// never crashes the process: it is recovered with the stack of the
// goroutine it happened on and reaches the caller as one *PanicError —
// from Group.Wait, or re-raised by ForRange — at any nesting depth.
package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError is a panic recovered on a worker goroutine: the value passed to
// panic and the stack of the goroutine that panicked.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("internal panic: %v", e.Value) }

// Try runs fn and returns a panic raised inside it as a *PanicError. A panic
// whose value is already a *PanicError (re-raised by a nested ForRange) is
// returned as is, keeping the stack of the goroutine that first panicked.
func Try(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if pe, ok := p.(*PanicError); ok {
				err = pe
				return
			}
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Group runs workers and waits for them, errgroup style. The zero Group is
// usable; WithContext adds a context cancelled on the first failure.
type Group struct {
	wg     sync.WaitGroup
	cancel context.CancelFunc

	mu  sync.Mutex
	err error
}

// WithContext returns a Group and a context derived from ctx that is
// cancelled when a worker fails or Wait returns.
func WithContext(ctx context.Context) (*Group, context.Context) {
	ctx, cancel := context.WithCancel(ctx)
	return &Group{cancel: cancel}, ctx
}

// Go runs fn on a new goroutine. An error or panic from fn fails the group.
func (g *Group) Go(fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := Try(fn); err != nil {
			g.fail(err)
		}
	}()
}

// fail records err and cancels the group's context. The first error wins,
// but a panic displaces an ordinary error: a bug must not hide behind a
// failure that happened to land first.
func (g *Group) fail(err error) {
	var pe *PanicError
	g.mu.Lock()
	if g.err == nil || errors.As(err, &pe) && !errors.As(g.err, &pe) {
		g.err = err
	}
	g.mu.Unlock()
	if g.cancel != nil {
		g.cancel()
	}
}

// Wait blocks until every worker has returned, then returns the first
// worker panic as a *PanicError if there was one, otherwise the first error.
func (g *Group) Wait() error {
	g.wg.Wait()
	if g.cancel != nil {
		g.cancel()
	}
	return g.err
}

// ForRange splits the index range [0, n) into at most workers contiguous
// shards and invokes fn(slot, lo, hi) once per shard, concurrently when more
// than one shard results; slot is the shard's index in [0, workers), for
// per-worker scratch. Shard boundaries are the fixed i*n/w split, so a given
// (workers, n) pair always yields the same shards, and fn must only write
// state that is disjoint across shards (e.g. dst[lo:hi]), making the
// combined result independent of scheduling order.
//
// workers <= 1, n <= 1, or a single resulting shard runs fn inline on the
// calling goroutine with no synchronization. Otherwise ForRange waits for
// every shard and, if one panicked, re-raises its *PanicError on the calling
// goroutine.
func ForRange(workers, n int, fn func(slot, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var g Group
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		g.Go(func() error { fn(w, lo, hi); return nil })
	}
	if err := g.Wait(); err != nil {
		panic(err)
	}
}

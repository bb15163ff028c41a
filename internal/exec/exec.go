// Package exec is the batched execution engine every evaluation fan-out in
// this repository runs on. The paper's phase-2 "circuit execution" is
// embarrassingly parallel, and real cloud QPUs reward job batching — a fixed
// queue latency amortized across a batch — so the engine models exactly that
// shape: callers submit whole batches of parameter vectors, the engine chunks
// them across a worker pool, and the underlying evaluator sees contiguous
// sub-batches it can execute natively.
//
// The engine guarantees:
//
//   - Deterministic result ordering: result[i] always corresponds to
//     params[i], regardless of worker count or chunk size.
//   - Sequential evaluation order under Workers=1 (ascending index), so
//     evaluators that consume a shared random stream stay reproducible.
//   - Context cancellation: a canceled ctx stops the run between chunks and
//     the engine returns ctx.Err().
//   - Optional memoization: with a Cache, quantized parameter vectors are
//     executed at most once — across calls, within a batch, and across
//     concurrent batches — so optimizers re-visiting stencil points and ZNE
//     sweeps never pay twice.
package exec

import (
	"context"
	"errors"
	"runtime"

	"repro/internal/backend"
	"repro/internal/obs"
	"repro/internal/shard"
)

// BatchEvaluator computes costs for a batch of parameter vectors. The
// returned slice must have one value per input vector, in input order.
// Implementations must be safe for concurrent use: the engine calls
// EvaluateBatch from multiple workers on disjoint chunks.
type BatchEvaluator interface {
	EvaluateBatch(ctx context.Context, params [][]float64) ([]float64, error)
}

// BatchFunc adapts a function into a BatchEvaluator.
type BatchFunc func(ctx context.Context, params [][]float64) ([]float64, error)

// EvaluateBatch implements BatchEvaluator.
func (f BatchFunc) EvaluateBatch(ctx context.Context, params [][]float64) ([]float64, error) {
	return f(ctx, params)
}

// Lift adapts a point evaluator into a BatchEvaluator that loops over the
// batch, checking ctx between points.
func Lift(eval func(params []float64) (float64, error)) BatchEvaluator {
	return BatchFunc(func(ctx context.Context, params [][]float64) ([]float64, error) {
		out := make([]float64, len(params))
		for i, p := range params {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := eval(p)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	})
}

// FromEvaluator lifts a backend evaluator into a BatchEvaluator, using its
// native batch implementation when it has one.
func FromEvaluator(e backend.Evaluator) BatchEvaluator {
	if b, ok := e.(BatchEvaluator); ok {
		return b
	}
	return Lift(e.Evaluate)
}

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrent chunk evaluations (0 = GOMAXPROCS). Batches
	// are split so every worker gets several chunks, bounding both
	// scheduling overhead and load imbalance.
	Workers int
	// Cache optionally memoizes results by quantized parameter vector.
	Cache *Cache
}

// Engine schedules batch evaluations over a chunking worker pool. An Engine
// is itself a BatchEvaluator, so engines compose (e.g. a cache-backed engine
// wrapping a ZNE evaluator that batches its own noise-scale sweep).
type Engine struct {
	inner BatchEvaluator
	opts  Options
}

// New builds an engine around inner.
func New(inner BatchEvaluator, opts Options) *Engine {
	return &Engine{inner: inner, opts: opts}
}

// chunkSize resolves the chunk size for a batch of n points on w workers.
func chunkSize(n, w int) int {
	// Aim for ~8 chunks per worker so stragglers rebalance, but never less
	// than 1 point or more than 512 per inner call.
	c := n / (w * 8)
	if c < 1 {
		c = 1
	}
	if c > 512 {
		c = 512
	}
	return c
}

type chunk struct {
	lo, hi int // half-open range into the (deduplicated) work list
}

// EvaluateBatch implements BatchEvaluator: evaluate every parameter vector,
// returning values in input order.
func (e *Engine) EvaluateBatch(ctx context.Context, params [][]float64) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := len(params)
	results := make([]float64, n)
	if n == 0 {
		return results, nil
	}
	span, ctx := obs.Start(ctx, "exec.batch")
	defer span.End()
	span.SetAttr("points", n)

	c := e.opts.Cache
	if c == nil {
		// No cache: results is index-aligned with params, so the pool
		// writes into it directly.
		span.SetAttr("executed", n)
		if err := e.run(ctx, params, results); err != nil {
			span.SetError(err)
			return nil, err
		}
		return results, nil
	}

	executed, err := e.evaluateCached(ctx, c, params, results)
	span.SetAttr("cache_hits", n-executed)
	span.SetAttr("executed", executed)
	if err != nil {
		span.SetError(err)
		return nil, err
	}
	return results, nil
}

// evaluateCached fills results through the cache and returns how many
// points it executed. Hits are served immediately, and the misses are
// deduplicated so each distinct point executes once even within a single
// batch. A point another batch is already executing is not executed again:
// this batch first runs its own work, then waits for that batch's value,
// which counts as a hit. If the other batch fails, its points go round
// again, and this batch executes the ones still unclaimed. Because a batch
// waits only after its own execution has ended, no two batches can wait on
// each other.
//
// Points whose coordinates cannot be quantized into a collision-free key
// (NaN, ±Inf, beyond the int64-safe range) bypass the cache: they always
// execute and are never stored or deduplicated, so a degenerate coordinate
// can never alias a legitimate cached point.
func (e *Engine) evaluateCached(ctx context.Context, c *Cache, params [][]float64, results []float64) (executed int, err error) {
	keys := make([]string, len(params))
	cacheable := make([]bool, len(params))
	todo := make([]int, len(params))
	for i, p := range params {
		keys[i], cacheable[i] = c.key(p)
		todo[i] = i
	}
	for len(todo) > 0 {
		f := &flight{done: make(chan struct{})}
		var (
			work     [][]float64 // points this batch executes
			workKeys []string    // their keys ("" when uncacheable)
			workPos  [][]int     // result positions per executed point
			waits    []slot      // other batches' executions to wait on
			waitPos  [][]int     // result positions per waited point
		)
		owned := make(map[string]int)  // key -> index in work
		waited := make(map[string]int) // key -> index in waits
		c.mu.Lock()
		for _, i := range todo {
			k := keys[i]
			if !cacheable[i] {
				c.misses.Add(1)
				work = append(work, params[i])
				workKeys = append(workKeys, "")
				workPos = append(workPos, []int{i})
				continue
			}
			if j, ok := owned[k]; ok {
				// Duplicate of a point this batch executes: served by
				// its single execution, so it counts as a hit.
				c.hits.Add(1)
				workPos[j] = append(workPos[j], i)
				continue
			}
			if j, ok := waited[k]; ok {
				waitPos[j] = append(waitPos[j], i)
				continue
			}
			if v, ok := c.m[k]; ok {
				c.hits.Add(1)
				results[i] = v
			} else if s, ok := c.inflight[k]; ok {
				waited[k] = len(waits)
				waits = append(waits, s)
				waitPos = append(waitPos, []int{i})
			} else {
				// Claim the point for this batch's flight, which
				// runFlight must land.
				c.misses.Add(1)
				c.inflight[k] = slot{f, len(work)}
				owned[k] = len(work)
				work = append(work, params[i])
				workKeys = append(workKeys, k)
				workPos = append(workPos, []int{i})
			}
		}
		c.mu.Unlock()

		f.values = make([]float64, len(work))
		if err := e.runFlight(ctx, c, f, work, workKeys); err != nil {
			return executed, err
		}
		executed += len(work)
		for j, v := range f.values {
			for _, i := range workPos[j] {
				results[i] = v
			}
		}

		todo = todo[:0]
		for j, s := range waits {
			v, ok, err := s.wait(ctx)
			if err != nil {
				return executed, err
			}
			if !ok {
				todo = append(todo, waitPos[j]...)
				continue
			}
			c.hits.Add(int64(len(waitPos[j])))
			for _, i := range waitPos[j] {
				results[i] = v
			}
		}
	}
	return executed, nil
}

// runFlight executes work as flight f and lands it, also when the run
// errors or panics, so batches waiting on f never hang.
func (e *Engine) runFlight(ctx context.Context, c *Cache, f *flight, work [][]float64, keys []string) error {
	ok := false
	defer func() { c.land(f, keys, ok) }()
	if len(work) > 0 {
		if err := e.run(ctx, work, f.values); err != nil {
			return err
		}
	}
	ok = true
	return nil
}

// run executes work into values (index-aligned) on the worker pool.
func (e *Engine) run(ctx context.Context, work [][]float64, values []float64) error {
	workers := e.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(work) {
		workers = len(work)
	}
	size := chunkSize(len(work), workers)

	if workers <= 1 {
		// Serial fast path: no channel, no goroutines, no derived context —
		// chunks run inline in ascending order (the order the engine already
		// guarantees under Workers=1), so native zero-allocation backends
		// see no scheduling overhead at all.
		for lo := 0; lo < len(work); lo += size {
			hi := lo + size
			if hi > len(work) {
				hi = len(work)
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			vals, err := e.inner.EvaluateBatch(ctx, work[lo:hi])
			if err != nil {
				return err
			}
			if len(vals) != hi-lo {
				return errors.New("exec: inner evaluator returned wrong batch length")
			}
			copy(values[lo:hi], vals)
		}
		return nil
	}

	// A worker error or panic cancels cctx, which stops the feed and the
	// other workers; Wait surfaces it (a panic as *shard.PanicError).
	g, cctx := shard.WithContext(ctx)
	chunks := make(chan chunk, workers)
	for w := 0; w < workers; w++ {
		g.Go(func() error {
			for ch := range chunks {
				if cctx.Err() != nil {
					return nil
				}
				vals, err := e.inner.EvaluateBatch(cctx, work[ch.lo:ch.hi])
				if err != nil {
					return err
				}
				if len(vals) != ch.hi-ch.lo {
					return errors.New("exec: inner evaluator returned wrong batch length")
				}
				copy(values[ch.lo:ch.hi], vals)
			}
			return nil
		})
	}
feed:
	for lo := 0; lo < len(work); lo += size {
		hi := lo + size
		if hi > len(work) {
			hi = len(work)
		}
		select {
		case chunks <- chunk{lo, hi}:
		case <-cctx.Done():
			break feed
		}
	}
	close(chunks)
	if err := g.Wait(); err != nil {
		return err
	}
	// The parent context may have been canceled after the last chunk was
	// fed but before workers drained; surface that as an error rather than
	// returning a partially-filled batch.
	return ctx.Err()
}

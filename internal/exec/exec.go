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
//     executed at most once — across calls and within a batch — so
//     optimizers re-visiting stencil points and ZNE sweeps never pay twice.
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
	// Workers bounds concurrent chunk evaluations (0 = GOMAXPROCS).
	Workers int
	// ChunkSize is the number of points handed to the inner evaluator per
	// call (0 = automatic: batches are split so every worker gets several
	// chunks, bounding both scheduling overhead and load imbalance).
	ChunkSize int
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
func chunkSize(n, w, configured int) int {
	if configured > 0 {
		return configured
	}
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

	// Cache pass: satisfy hits immediately and deduplicate the misses so
	// each distinct point is executed once even within a single batch.
	// Points whose coordinates cannot be quantized into a collision-free
	// key (NaN, ±Inf, beyond the int64-safe range) bypass the cache: they
	// always execute and are never stored or deduplicated, so a degenerate
	// coordinate can never alias a legitimate cached point.
	work := make([][]float64, 0, n)  // unique points to execute
	workPos := make([][]int, 0, n)   // result positions per unique point
	workKeys := make([]string, 0, n) // cache keys per unique point
	workOK := make([]bool, 0, n)     // whether the point is cacheable
	seen := make(map[string]int, n)
	for i, p := range params {
		k, kok := c.key(p)
		if !kok {
			c.misses.Add(1)
			work = append(work, p)
			workPos = append(workPos, []int{i})
			workKeys = append(workKeys, "")
			workOK = append(workOK, false)
			continue
		}
		if v, ok := c.peek(k); ok {
			c.hits.Add(1)
			results[i] = v
			continue
		}
		if j, ok := seen[k]; ok {
			// Duplicate of a pending point in this batch: served by its
			// single execution, so it counts as a hit.
			c.hits.Add(1)
			workPos[j] = append(workPos[j], i)
			continue
		}
		c.misses.Add(1)
		seen[k] = len(work)
		work = append(work, p)
		workPos = append(workPos, []int{i})
		workKeys = append(workKeys, k)
		workOK = append(workOK, true)
	}
	span.SetAttr("cache_hits", n-len(work))
	span.SetAttr("executed", len(work))
	if len(work) == 0 {
		return results, nil
	}

	values := make([]float64, len(work))
	if err := e.run(ctx, work, values); err != nil {
		span.SetError(err)
		return nil, err
	}
	for j, v := range values {
		if workOK[j] {
			c.store(workKeys[j], v)
		}
		for _, i := range workPos[j] {
			results[i] = v
		}
	}
	return results, nil
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
	size := chunkSize(len(work), workers, e.opts.ChunkSize)

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

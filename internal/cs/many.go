package cs

import (
	"context"
	"runtime"

	"repro/internal/shard"
)

// Job describes one independent reconstruction: recover a Rows×Cols
// landscape from the values Y observed at row-major grid indices Idx, solved
// with Opt. An Opt whose only set field is Workers is promoted to
// DefaultOptions (keeping that worker count), matching every other
// reconstruction entry point.
type Job struct {
	Rows, Cols int
	Idx        []int
	Y          []float64
	Opt        Options
}

// JobResult pairs a job's reconstruction with its error. Exactly one of
// Result and Err is set.
type JobResult struct {
	Result *Result
	Err    error
}

// ReconstructMany solves independent reconstruction jobs concurrently on a
// worker pool and returns one JobResult per job, index-aligned with jobs (the
// engine's deterministic-ordering convention). Errors are isolated per job: a
// failing or panicking job does not stop the others. A canceled ctx stops
// in-flight solves between iterations and marks every unfinished job with
// ctx.Err().
//
// Jobs themselves are the unit of parallelism here, so a job whose
// Opt.Workers is not positive (which ReconstructND would resolve to
// GOMAXPROCS) is solved serially to avoid oversubscribing the pool; set
// Opt.Workers > 1 explicitly to shard inside a job too.
func ReconstructMany(ctx context.Context, jobs ...Job) []JobResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]JobResult, len(jobs))
	if len(jobs) == 0 {
		return out
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	next := make(chan int)
	var g shard.Group
	for w := 0; w < workers; w++ {
		g.Go(func() error {
			for i := range next {
				out[i] = solveJob(ctx, jobs[i])
			}
			return nil
		})
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	g.Wait() // solveJob contains its own panics: no worker fails
	return out
}

// solveJob runs one job of ReconstructMany; a panic in the solve becomes
// only this job's Err, as a *shard.PanicError.
func solveJob(ctx context.Context, job Job) JobResult {
	if err := ctx.Err(); err != nil {
		return JobResult{Err: err}
	}
	opt := job.Opt
	if opt.Workers <= 0 {
		opt.Workers = 1 // see ReconstructMany: jobs are the unit of parallelism
	}
	var res *Result
	err := shard.Try(func() (err error) {
		res, err = ReconstructNDContext(ctx, []int{job.Rows, job.Cols}, job.Idx, job.Y, opt)
		return err
	})
	return JobResult{Result: res, Err: err}
}

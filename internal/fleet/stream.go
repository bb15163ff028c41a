package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/landscape"
	"repro/internal/obs"
	"repro/internal/qpu"
	"repro/internal/shard"
)

// Partial records one interim reconstruction of a streaming run.
type Partial struct {
	// Coverage is the fraction of the run's kept samples merged when the
	// solve triggered.
	Coverage float64
	// Samples is the merged sample count.
	Samples int
	// VirtualTime is the completion time of the batch that crossed the
	// threshold.
	VirtualTime float64
	// Iterations and Residual are the solve's diagnostics.
	Iterations int
	Residual   float64
}

// StreamResult is the outcome of a streaming fleet run.
type StreamResult struct {
	// Report is the fleet execution record: per-job results and batch
	// groups (kept ones only under an eager cut), the full-run makespan,
	// and the single-device serial baseline. Cache-served jobs carry
	// device index -1.
	Report *qpu.RunReport
	// Landscape and Stats are the final reconstruction.
	Landscape *landscape.Landscape
	Stats     *core.Stats
	// Partials lists the interim solves in trigger order.
	Partials []Partial
	// Timeout is the virtual time sampling stopped: the batch-boundary
	// eager cut under KeepFraction, otherwise the last batch's
	// completion.
	Timeout float64
	// Saved is Report.Makespan - Timeout: the tail latency the eager cut
	// avoided (0 without a cut).
	Saved float64
	// BatchSizes are the per-device learned batch sizes at the end of the
	// run.
	BatchSizes []int
	// Quarantines lists the run's quarantine transitions in time order
	// (risk-aware runs; empty otherwise).
	Quarantines []QuarantineEvent
	// DeviceStates is the per-device learned state at the end of the run,
	// including tail estimates and quarantine counters.
	DeviceStates []DeviceState
}

// Run executes the cost evaluations for the given flat grid indices across
// the fleet — adaptive batch sizes, shared cache, no reconstruction — and
// reports per-job results and batch groups in virtual-completion order.
func (s *Scheduler) Run(ctx context.Context, g *landscape.Grid, indices []int) (*qpu.RunReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	plan, err := s.tracePlan(ctx, g, indices, s.opt.Cache)
	if err != nil {
		return nil, err
	}
	if err := s.evaluate(ctx, g, plan.groups, s.opt.Cache, nil); err != nil {
		return nil, err
	}
	return s.report(plan.groups, plan.serial, plan.makespan, plan.retries), nil
}

// ReconstructStream runs the full streaming pipeline: draw the OSCAR
// sampling pattern, dispatch it across the fleet, and overlap circuit
// execution with incremental reconstruction — interim solves fire as
// coverage crosses Options.Thresholds, each warm-started from the previous
// solution, and KeepFraction applies the batch-boundary eager cut. opt
// carries the sampling and solver configuration (its Workers field drives
// the solver; the scheduler's own Workers bounds evaluation fan-out).
// opt.Cache is honored when the scheduler was built without its own:
// FleetOptions.Cache wins otherwise, since the scheduler may already have
// been sharing it across runs.
func (s *Scheduler) ReconstructStream(ctx context.Context, g *landscape.Grid, opt core.Options) (*StreamResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cache := s.opt.Cache
	if cache == nil {
		cache = opt.Cache
	}
	sspan, _ := obs.Start(ctx, "fleet.sample")
	indices, err := core.SampleGrid(g, opt.SamplingFraction, opt.Seed, opt.Stratified)
	sspan.SetAttr("samples", len(indices))
	sspan.SetAttr("grid_points", g.Size())
	sspan.SetError(err)
	sspan.End()
	if err != nil {
		return nil, err
	}
	plan, err := s.tracePlan(ctx, g, indices, cache)
	if err != nil {
		return nil, err
	}
	states := s.States()
	groups, makespan := plan.groups, plan.makespan

	// Eager cut at a batch boundary: keep whole groups in completion
	// order until KeepFraction of the samples are covered.
	timeout := makespan
	if q := s.opt.KeepFraction; q > 0 && q < 1 {
		batches := make([]qpu.BatchGroup, len(groups))
		for i := range groups {
			batches[i] = groups[i].BatchGroup
		}
		timeout = qpu.BatchTimeoutForFraction(batches, q)
		kept := groups[:0]
		for _, gr := range groups {
			if gr.Done <= timeout {
				kept = append(kept, gr)
			}
		}
		groups = kept
	}
	saved := makespan - timeout
	if saved < 0 {
		saved = 0
	}

	inc, err := core.NewIncremental(g, opt)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, gr := range groups {
		total += gr.Size
	}
	if total == 0 {
		return nil, fmt.Errorf("fleet: eager cut at keep fraction %g dropped every batch", s.opt.KeepFraction)
	}

	res := &StreamResult{Timeout: timeout, Saved: saved, Quarantines: plan.events}
	var lastResidual float64
	solves := 0
	fed := 0
	thresholds := s.opt.Thresholds
	progress := func(gr *group) {
		if s.opt.OnProgress == nil {
			return
		}
		s.opt.OnProgress(Progress{
			SamplesDone: fed, SamplesTotal: total,
			VirtualTime: gr.Done,
			Solves:      solves, Residual: lastResidual,
			BatchSizes:  gr.sizes,
			Quarantined: gr.quar,
			Retries:     plan.retries, QuarantineEvents: len(plan.events),
			States: states,
		})
	}

	// The merge callback runs on the streaming goroutine, in
	// virtual-completion order, while later batches are still evaluating.
	err = s.evaluate(ctx, g, groups, cache, func(gr *group) error {
		if err := inc.Append(gr.indices, gr.values); err != nil {
			return err
		}
		fed += gr.Size
		cov := float64(fed) / float64(total)
		// One batch can cross several thresholds at once; they collapse
		// into a single interim solve on the samples now available.
		crossed := false
		for len(thresholds) > 0 && cov >= thresholds[0] {
			thresholds = thresholds[1:]
			crossed = true
		}
		if crossed && fed < total { // the final solve covers fed == total
			vspan, vctx := obs.Start(ctx, "fleet.solve")
			vspan.SetAttr("samples", fed)
			vspan.SetAttr("coverage", cov)
			vspan.SetAttr("interim", true)
			_, st, err := inc.Reconstruct(vctx)
			vspan.SetError(err)
			vspan.End()
			if err != nil {
				return err
			}
			solves++
			lastResidual = st.Residual
			res.Partials = append(res.Partials, Partial{
				Coverage:    cov,
				Samples:     fed,
				VirtualTime: gr.Done,
				Iterations:  st.SolverIterations,
				Residual:    st.Residual,
			})
		}
		progress(gr)
		return nil
	})
	if err != nil {
		return nil, err
	}

	fspan, fctx := obs.Start(ctx, "fleet.solve")
	fspan.SetAttr("samples", fed)
	fspan.SetAttr("coverage", 1.0)
	recon, stats, err := inc.Reconstruct(fctx)
	fspan.SetError(err)
	fspan.End()
	if err != nil {
		return nil, err
	}
	solves++
	lastResidual = stats.Residual
	if len(groups) > 0 {
		progress(&groups[len(groups)-1])
	}
	res.Report = s.report(groups, plan.serial, makespan, plan.retries)
	res.Landscape = recon
	res.Stats = stats
	res.DeviceStates = states
	res.BatchSizes = make([]int, len(states))
	for d, st := range states {
		res.BatchSizes[d] = st.BatchSize
	}
	return res, nil
}

// tracePlan runs the virtual-time planning pass under a "fleet.plan" span,
// attaching the plan's cache-probe hit, every retry, and every quarantine
// transition as instantaneous virtual-time markers — the trace shows where
// the plan lost (or saved) virtual seconds even though planning itself is a
// single wall-clock pass.
func (s *Scheduler) tracePlan(ctx context.Context, g *landscape.Grid, indices []int, cache *exec.Cache) (*planOutcome, error) {
	span, _ := obs.Start(ctx, "fleet.plan")
	plan, err := s.plan(g, indices, cache)
	if err != nil {
		span.SetError(err)
		span.End()
		return nil, err
	}
	span.SetAttr("jobs", len(indices))
	span.SetAttr("batches", len(plan.groups))
	span.SetAttr("retries", plan.retries)
	span.SetAttr("makespan_s", plan.makespan)
	span.SetVirtual(0, plan.makespan)
	if plan.cacheHits > 0 {
		m := span.Child("fleet.cache_probe")
		m.SetAttr("hits", plan.cacheHits)
		m.SetVirtual(0, 0)
		m.End()
	}
	for _, re := range plan.retryEvents {
		m := span.Child("fleet.retry")
		m.SetAttr("device", s.devices[re.dev].Name)
		m.SetVirtual(re.time, re.time)
		m.End()
	}
	for _, qe := range plan.events {
		m := span.Child("fleet.quarantine")
		m.SetAttr("device", qe.Name)
		m.SetAttr("reason", qe.Reason)
		m.SetVirtual(qe.Time, qe.Time)
		m.End()
	}
	span.End()
	return plan, nil
}

// evaluate runs every scheduled group's circuit evaluations on a bounded
// worker pool and, when merge is non-nil, delivers completed groups to it in
// virtual-completion order — group i+1's merge never starts before group
// i's, regardless of which evaluation finishes first, so the streaming
// reconstruction consumes a deterministic sequence. Cache-served groups
// (device -1) skip evaluation; fresh measurements are stored back into the
// shared cache as they merge.
func (s *Scheduler) evaluate(ctx context.Context, g *landscape.Grid, groups []group, cache *exec.Cache, merge func(*group) error) error {
	workers := s.opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	evals := make([]exec.BatchEvaluator, len(s.devices))
	for d := range s.devices {
		evals[d] = exec.FromEvaluator(s.devices[d].Eval)
	}

	// base is cancelled on a merge failure, cctx also on a pool failure.
	base, cancel := context.WithCancel(ctx)
	defer cancel()
	pool, cctx := shard.WithContext(base)
	sem := make(chan struct{}, workers)
	done := make([]chan struct{}, len(groups))
	errs := make([]error, len(groups))
	for i := range groups {
		gr := &groups[i]
		if gr.Device < 0 {
			continue // cache-served, values already present
		}
		ch := make(chan struct{})
		done[i] = ch
		pool.Go(func() error {
			defer close(ch)
			// The merge loop reads errs[i] once ch closes, so a panic must
			// land there too, not only in the pool.
			errs[i] = shard.Try(func() error {
				select {
				case sem <- struct{}{}:
					defer func() { <-sem }()
				case <-cctx.Done():
					return cctx.Err()
				}
				bspan, bctx := obs.Start(cctx, "fleet.batch")
				bspan.SetAttr("device", s.devices[gr.Device].Name)
				bspan.SetAttr("size", gr.Size)
				bspan.SetVirtual(gr.Start, gr.Done)
				if qs := bspan.Child("queue"); qs != nil {
					qs.SetVirtual(gr.Start, gr.Start+gr.Queue)
					qs.End()
				}
				if xs := bspan.Child("exec"); xs != nil {
					xs.SetVirtual(gr.Start+gr.Queue, gr.Done)
					xs.End()
				}
				vals, err := evals[gr.Device].EvaluateBatch(bctx, g.Points(gr.indices))
				bspan.SetError(err)
				bspan.End()
				if err != nil {
					return fmt.Errorf("fleet: device %q failed: %w", s.devices[gr.Device].Name, err)
				}
				gr.values = vals
				return nil
			})
			return errs[i]
		})
	}
	// Wait for every in-flight evaluation before returning, so no
	// goroutine outlives an error path.
	defer pool.Wait()

	for i := range groups {
		gr := &groups[i]
		if done[i] != nil {
			<-done[i]
		}
		if errs[i] != nil {
			// A real device failure cancels cctx, which makes unrelated
			// in-flight groups fail with context errors too; scanning by
			// index alone could surface one of those first and misreport
			// a device error as a cancellation. Wait everything out and
			// prefer the first non-context error.
			pool.Wait()
			for _, e := range errs {
				if e != nil && !errors.Is(e, context.Canceled) && !errors.Is(e, context.DeadlineExceeded) {
					return e
				}
			}
			return errs[i]
		}
		if cache != nil && gr.Device >= 0 {
			for j, gi := range gr.indices {
				cache.Store(g.Point(gi), gr.values[j])
			}
		}
		if merge != nil {
			if err := merge(gr); err != nil {
				cancel()
				return err
			}
		}
	}
	return ctx.Err()
}

// report assembles the qpu.RunReport for evaluated groups.
func (s *Scheduler) report(groups []group, serial, makespan float64, retries int) *qpu.RunReport {
	perDevice := make([]int, len(s.devices))
	var results []qpu.Result
	batches := make([]qpu.BatchGroup, len(groups))
	for i, gr := range groups {
		batches[i] = gr.BatchGroup
		if gr.Device >= 0 {
			perDevice[gr.Device] += gr.Size
		}
		for j, gi := range gr.indices {
			results = append(results, qpu.Result{
				Index: gi, Value: gr.values[j], Device: gr.Device, Done: gr.Done,
			})
		}
	}
	return &qpu.RunReport{
		Results:    results,
		Batches:    batches,
		Makespan:   makespan,
		SerialTime: serial,
		PerDevice:  perDevice,
		Retries:    retries,
	}
}

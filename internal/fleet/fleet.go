// Package fleet schedules landscape sampling across a heterogeneous
// multi-QPU fleet and streams the results into an eager, incremental
// reconstruction — the end-to-end overlap of phase 2 (circuit execution)
// and phase 3 (reconstruction) that the paper's Section 5 speedup rests on.
//
// Three ideas compose:
//
//   - Adaptive batch sizing. A batch amortizes one queue delay over all its
//     jobs, but a fixed batch size (Options.FixedBatch, the baseline) suits
//     no device in a heterogeneous fleet. The scheduler instead learns a
//     per-device size online: every completed batch reports its
//     queue/execution decomposition (the split real cloud QPUs expose
//     through queue timestamps), the scheduler maintains an EWMA of the
//     queue/exec-per-job ratio, and the next batch for that device carries
//     aggressiveness×ratio jobs — enough to amortize the queue delay without
//     turning the device into a straggler.
//
//   - Streaming eager reconstruction. Completed batches feed a
//     core.Incremental accumulator; as sample coverage crosses the
//     configured thresholds the compressed-sensing solve is re-triggered,
//     warm-started from the previous solution, and a batch-boundary eager
//     cut (qpu.BatchTimeoutForFraction) drops tail-latency batches
//     entirely.
//
//   - A shared execution cache. With Options.Cache set, sampled points that
//     some earlier run already measured are served instantly — before any
//     device pays queue latency — and fresh measurements are stored for the
//     next run, across every device in the fleet.
//
// Scheduling happens in virtual time (latencies are drawn from the seeded
// per-device models; values are real evaluations), so experiments measure
// fleet dynamics deterministically and instantly. Runs are bit-reproducible
// for a fixed seed regardless of Options.Workers: each device draws from
// its own RNG stream, the dispatch plan is computed serially, and completed
// batches merge in virtual-completion order.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/exec"
	"repro/internal/landscape"
	"repro/internal/qpu"
)

// Progress is a point-in-time view of a streaming run, delivered to
// Options.OnProgress after every batch merged and every interim solve.
type Progress struct {
	// SamplesDone / SamplesTotal count measurements merged into the
	// reconstruction accumulator versus the run's kept total.
	SamplesDone, SamplesTotal int
	// VirtualTime is the completion time of the latest merged batch.
	VirtualTime float64
	// Solves counts completed reconstructions (interim and final).
	Solves int
	// Residual is the last completed solve's residual (0 before the
	// first).
	Residual float64
	// BatchSizes are the per-device learned batch sizes as of the latest
	// merged batch.
	BatchSizes []int
	// Quarantined flags the devices that were benched as of the latest
	// merged batch (risk-aware runs; all false otherwise).
	Quarantined []bool
	// Retries and QuarantineEvents are the run's planned totals: failed
	// dispatches that were retried or re-dispatched, and quarantine
	// transitions (bench + re-admit).
	Retries, QuarantineEvents int
	// States is the per-device learned state at the end of planning. Only
	// planning changes it, and planning finishes before the first batch
	// merges, so every report of a run carries the same States, equal to
	// StreamResult.DeviceStates.
	States []DeviceState
}

// Options configures a Scheduler.
type Options struct {
	// Seed drives the per-device latency streams and the serial baseline.
	// Runs are bit-reproducible given (seed, call sequence), independent
	// of Workers.
	Seed int64
	// FixedBatch, when positive, disables adaptation and uses this size
	// on every device — the fixed-batching baseline the experiments
	// compare against.
	FixedBatch int
	// Workers bounds concurrent batch evaluations during the streaming
	// phase (0 = GOMAXPROCS). Results are bit-identical for every value.
	Workers int
	// Cache optionally memoizes evaluations across the whole fleet:
	// cached points are served at virtual time zero without occupying a
	// device, and fresh measurements are stored for later runs.
	Cache *exec.Cache
	// Thresholds are the coverage fractions (of the kept samples, in
	// (0,1), ascending) at which interim reconstructions are triggered
	// during streaming. Empty means no interim solves — only the final
	// one.
	Thresholds []float64
	// KeepFraction enables the eager cut: a value q in (0,1) keeps whole
	// batches in completion order until at least q of the samples are
	// covered and drops the rest, trading a small sample loss for the
	// tail-latency win. 0 or 1 waits for everything.
	KeepFraction float64
	// OnProgress, when set, is called from the streaming goroutine after
	// every merged batch and interim solve.
	OnProgress func(Progress)

	// RiskAware enables the robustness policy layer on top of adaptive
	// scheduling: per-device tail estimators cap batch sizes so expected
	// tail exposure per batch stays bounded, a failed batch retries once in
	// place after a virtual-time backoff before being re-dispatched to a
	// different device, and a device with a streak of failures is benched
	// and periodically re-probed with a single small batch. Off by default
	// — the tail-blind adaptive scheduler is the baseline the adversarial
	// experiments compare against.
	RiskAware bool
}

// Scheduling constants. Adaptive sizing: every device starts at
// initialBatch; a device whose EWMA (smoothing factor alpha) queue/exec-per-job
// ratio is r gets batches of aggressiveness×r jobs, clamped to
// [minBatch, maxBatch], which bounds the amortization overhead to
// 1/aggressiveness of execution time.
const (
	initialBatch   = 4
	minBatch       = 1
	maxBatch       = 256
	aggressiveness = 2.0
	alpha          = 0.4
)

// Risk-aware policy constants (Options.RiskAware only). A batch's expected
// tail exposure — learned tail probability × (magnitude−1) × batch latency —
// is kept under tailBudget× the fleet's typical non-tail batch duration. A
// batch that fails on a device whose previous dispatch succeeded retries
// there once, retryBackoff virtual seconds later; any other failed batch is
// re-dispatched to a different device. A device is benched after
// quarantineAfter consecutive failed dispatches, and a benched device is
// re-probed with a single minBatch dispatch every probeBackoff virtual
// seconds.
const (
	tailBudget      = 6.0
	retryBackoff    = 15.0
	quarantineAfter = 3
	probeBackoff    = 60.0
)

// normalize checks o and returns it with its Thresholds sorted.
func (o Options) normalize() (Options, error) {
	if o.FixedBatch < 0 {
		return o, fmt.Errorf("fleet: negative fixed batch %d", o.FixedBatch)
	}
	if o.KeepFraction < 0 || o.KeepFraction > 1 || math.IsNaN(o.KeepFraction) {
		return o, fmt.Errorf("fleet: keep fraction %g out of [0,1]", o.KeepFraction)
	}
	if len(o.Thresholds) > 0 {
		ts := append([]float64(nil), o.Thresholds...)
		sort.Float64s(ts)
		for _, th := range ts {
			if !(th > 0 && th < 1) {
				return o, fmt.Errorf("fleet: coverage threshold %g out of (0,1)", th)
			}
		}
		o.Thresholds = ts
	}
	return o, nil
}

// devState is one device's learned scheduling state.
type devState struct {
	rng *rand.Rand
	// queueEst and execEst are EWMAs of the observed queue delay per
	// batch and execution time per job; their ratio drives batch sizing
	// and their sum drives earliest-completion-time dispatch.
	queueEst, execEst float64
	observed          bool
	// batch is the size the next dispatch to this device will carry.
	batch   int
	batches int
	jobs    int

	// tailProb and tailMag are EWMAs of the tail behavior observed on this
	// device: the probability a batch's latency blows past its expectation
	// and the magnitude (observed/expected) when it does. Always tracked;
	// they only influence scheduling under Options.RiskAware, and only
	// once the evidence is sustained (see tailSignificant).
	tailProb, tailMag float64
	tailSeen          bool
	tailCount         int
	// failRate is an EWMA over dispatch outcomes (1 = failed), reported in
	// DeviceState and not read by the scheduler; consecFails is the current
	// consecutive-failure streak, which drives retries and benching, and
	// fails the total count.
	failRate    float64
	consecFails int
	fails       int
	// quarantined marks the device benched; probeAt is the virtual time of
	// its next probe, and quarantines counts how many times it has been
	// benched.
	quarantined bool
	probeAt     float64
	quarantines int
}

// Scheduler dispatches sampled grid points across a device fleet with
// adaptive per-device batch sizes.
//
// The latency streams are persistent: successive runs on one scheduler
// continue the same seeded per-device RNGs (fresh queue dynamics every run,
// the whole sequence deterministic given the seed), and the learned batch
// sizes carry across runs too — a long-lived scheduler keeps its
// calibration. Runs on one scheduler are serialized during their
// virtual-time planning phase; use separate schedulers for independent
// concurrent fleets.
type Scheduler struct {
	devices []qpu.Device
	opt     Options

	mu        sync.Mutex
	states    []devState
	serialRng *rand.Rand
	// meanBatch is an EWMA of non-tail batch durations across the whole
	// fleet — the "typical batch" yardstick the risk-aware tail caps are
	// expressed against.
	meanBatch float64
	meanSeen  bool
}

// New builds a scheduler over the given devices.
func New(opt Options, devices ...qpu.Device) (*Scheduler, error) {
	if len(devices) == 0 {
		return nil, errors.New("fleet: no devices")
	}
	for _, d := range devices {
		if d.Eval == nil {
			return nil, fmt.Errorf("fleet: device %q has no evaluator", d.Name)
		}
		if err := d.Latency.Validate(); err != nil {
			return nil, err
		}
		if d.FailureProb < 0 || d.FailureProb >= 1 {
			return nil, fmt.Errorf("fleet: device %q failure probability %g out of [0,1)", d.Name, d.FailureProb)
		}
	}
	opt, err := opt.normalize()
	if err != nil {
		return nil, err
	}
	s := &Scheduler{
		devices:   devices,
		opt:       opt,
		states:    make([]devState, len(devices)),
		serialRng: rand.New(rand.NewSource(opt.Seed - 1)),
	}
	first := initialBatch
	if opt.FixedBatch > 0 {
		first = opt.FixedBatch
	}
	for d := range s.states {
		// Distinct odd-stride offsets keep the per-device streams
		// independent of each other and of the serial baseline.
		s.states[d] = devState{
			rng:   rand.New(rand.NewSource(opt.Seed + int64(d+1)*0x9E3779B9)),
			batch: first,
		}
	}
	return s, nil
}

// DeviceState is one device's learned scheduling state, for inspection and
// metrics export.
type DeviceState struct {
	// Name is the device name.
	Name string
	// BatchSize is the size the next batch for this device would carry.
	BatchSize int
	// Ratio is the learned EWMA queue/exec-per-job ratio: 0 before any
	// observation, +Inf for a device whose learned execution time is 0.
	Ratio float64
	// Batches and Jobs count successful dispatches so far.
	Batches, Jobs int
	// TailProb and TailMag are the learned tail EWMAs: the probability a
	// batch blows past its expected latency and the observed/expected
	// magnitude when it does (both 0 before any tail event).
	TailProb, TailMag float64
	// FailRate is the EWMA dispatch-failure rate; Fails the total count of
	// failed dispatches.
	FailRate float64
	Fails    int
	// Quarantined reports whether the device is currently benched;
	// Quarantines counts how many times it has been benched.
	Quarantined bool
	Quarantines int
}

// States returns the per-device learned state.
func (s *Scheduler) States() []DeviceState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DeviceState, len(s.devices))
	for d := range s.devices {
		st := &s.states[d]
		out[d] = DeviceState{
			Name:        s.devices[d].Name,
			BatchSize:   st.batch,
			Ratio:       st.ratio(),
			Batches:     st.batches,
			Jobs:        st.jobs,
			TailProb:    st.tailProb,
			TailMag:     st.tailMag,
			FailRate:    st.failRate,
			Fails:       st.fails,
			Quarantined: st.quarantined,
			Quarantines: st.quarantines,
		}
	}
	return out
}

// tailDetectFactor is how far past its expected latency a batch must land
// to count as a tail event for the risk estimators.
const tailDetectFactor = 3

// observe folds one completed batch's latency decomposition into the
// device's EWMAs and recomputes its next batch size. It is called for every
// dispatch, failed ones included — failed batches still report their timing,
// and the learner uses every observation.
func (s *Scheduler) observe(st *devState, size int, queue, execT float64) {
	if s.opt.FixedBatch > 0 {
		return
	}
	perJob := execT / float64(size)
	a := alpha
	// Tail detection compares the observation against the pre-update
	// expectation; magnitude is the overshoot ratio. The fleet-wide typical
	// batch duration excludes tail events so the yardstick is not dragged
	// by the excursions it is meant to bound.
	if st.observed {
		expected := st.queueEst + float64(size)*st.execEst
		obs := queue + execT
		if expected > 0 {
			tail := obs > tailDetectFactor*expected
			ind := 0.0
			if tail {
				ind = 1
				st.tailCount++
				mag := obs / expected
				if !st.tailSeen {
					st.tailMag, st.tailSeen = mag, true
				} else {
					st.tailMag = (1-a)*st.tailMag + a*mag
				}
			} else if s.meanSeen {
				s.meanBatch = (1-a)*s.meanBatch + a*obs
			} else {
				s.meanBatch, s.meanSeen = obs, true
			}
			st.tailProb = (1-a)*st.tailProb + a*ind
		}
	}
	if st.observed {
		st.queueEst = (1-a)*st.queueEst + a*queue
		st.execEst = (1-a)*st.execEst + a*perJob
	} else {
		st.queueEst, st.execEst, st.observed = queue, perJob, true
	}
	if st.execEst <= 0 {
		// A queue-only device (Exec = 0): amortize maximally.
		st.batch = maxBatch
		return
	}
	next := int(math.Round(aggressiveness * st.queueEst / st.execEst))
	if next < minBatch {
		next = minBatch
	}
	if next > maxBatch {
		next = maxBatch
	}
	st.batch = next
}

// ratio returns the learned queue/exec-per-job ratio: 0 before any
// observation, and +Inf for a queue-only device (learned exec time 0),
// which observe sizes at maxBatch.
func (st *devState) ratio() float64 {
	if !st.observed || st.execEst <= 0 {
		if st.observed {
			return math.Inf(1)
		}
		return 0
	}
	return st.queueEst / st.execEst
}

// group is one planned batch: the qpu-level record plus the grid indices it
// carries, the values once evaluated, and a snapshot of the learned batch
// sizes and quarantine state at its completion.
type group struct {
	qpu.BatchGroup
	indices []int
	values  []float64
	sizes   []int
	quar    []bool
}

// retryEvent records one failed dispatch during planning: the device that
// failed and the virtual time the failure was observed. Traced as
// instantaneous markers so a span tree shows where a plan lost time.
type retryEvent struct {
	dev  int
	time float64
}

// planOutcome is everything the virtual-time scheduling pass produces.
type planOutcome struct {
	groups      []group
	serial      float64
	makespan    float64
	retries     int
	retryEvents []retryEvent
	events      []QuarantineEvent
	cacheHits   int
}

// plan runs the virtual-time scheduling simulation: cache probe, adaptive
// list scheduling with failure rescheduling (risk-aware retry/backoff and
// quarantine when Options.RiskAware), and the single-device serial baseline.
// It holds the scheduler lock (the RNG streams and learned sizes are shared
// across runs) and performs no circuit evaluation.
func (s *Scheduler) plan(g *landscape.Grid, indices []int, cache *exec.Cache) (*planOutcome, error) {
	if len(indices) == 0 {
		return nil, errors.New("fleet: no jobs")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := &planOutcome{}

	// Serial baseline: the one-device no-batching baseline Speedup is
	// measured against, the same for every batch policy.
	const maxAttempts = 8
	// The consecutive-failure budget for one batch scales with fleet size
	// (each failure already moves the work to a different device), and the
	// risk-aware policy gets extra room: its backoff and probe waits mean
	// attempts are spread over time and eventual success is the expected
	// outcome, not a lucky draw.
	budget := maxAttempts
	if n := len(s.devices); n > 1 {
		budget *= n
	}
	if s.opt.RiskAware {
		budget *= 4
	}
	out.serial = qpu.SerialBaseline(s.devices[0], s.serialRng, len(indices))

	// Cache probe: points an earlier run already measured are served at
	// virtual time zero, before any device pays queue latency. Lookup
	// counts hits and misses exactly once per point.
	pending := indices
	if cache != nil {
		var hitIdx []int
		var hitVals []float64
		misses := make([]int, 0, len(indices))
		for _, gi := range indices {
			if v, ok := cache.Lookup(g.Point(gi)); ok {
				hitIdx = append(hitIdx, gi)
				hitVals = append(hitVals, v)
			} else {
				misses = append(misses, gi)
			}
		}
		if len(hitIdx) > 0 {
			out.cacheHits = len(hitIdx)
			out.groups = append(out.groups, group{
				BatchGroup: qpu.BatchGroup{Device: -1, Size: len(hitIdx)},
				indices:    hitIdx,
				values:     hitVals,
				sizes:      s.sizesLocked(),
				quar:       s.quarLocked(),
			})
		}
		pending = misses
	}

	free := make([]float64, len(s.devices))
	// failStreak counts consecutive failed dispatches across the whole plan
	// (risk-aware runs re-queue failed remnants rather than re-dispatching
	// them as a unit, so the give-up budget must span batches).
	failStreak := 0
	for head := 0; head < len(pending); {
		remaining := len(pending) - head
		dev := s.pickLocked(free, 0, -1, remaining, 0)
		k := s.batchFor(dev, remaining)
		batch := pending[head : head+k]
		head += k

		avail := 0.0
		exclude := -1
		for attempt := 0; ; attempt++ {
			if attempt > 0 && !s.opt.RiskAware {
				// The failed batch keeps its size; re-pick by expected
				// completion for exactly k jobs. (A risk-aware batch only
				// gets a second attempt as an in-place retry, which stays
				// on the device.)
				dev = s.pickLocked(free, avail, exclude, remaining, k)
			}
			st := &s.states[dev]
			start := free[dev]
			if avail > start {
				start = avail
			}
			if s.opt.RiskAware && st.quarantined && st.probeAt > start {
				// A benched device only sees work again at its probe time.
				start = st.probeAt
			}
			cond := s.devices[dev].ConditionAt(start)
			queue, execT := cond.Latency.SampleBatchParts(st.rng, k)
			done := start + queue + execT
			free[dev] = done
			s.observe(st, k, queue, execT)
			failed := cond.Down || (cond.FailureProb > 0 && st.rng.Float64() < cond.FailureProb)
			a := alpha
			if failed {
				st.failRate = (1-a)*st.failRate + a
				st.fails++
				st.consecFails++
				failStreak++
				if !s.opt.RiskAware {
					if attempt+1 >= budget {
						return nil, fmt.Errorf("fleet: batch of %d jobs failed %d times in a row", k, budget)
					}
					out.retries++
					out.retryEvents = append(out.retryEvents, retryEvent{dev: dev, time: done})
					exclude = dev
					avail = done
					continue
				}
				if failStreak >= budget {
					return nil, fmt.Errorf("fleet: batch of %d jobs failed %d times in a row", k, budget)
				}
				out.retries++
				out.retryEvents = append(out.retryEvents, retryEvent{dev: dev, time: done})
				if st.quarantined {
					// A failed probe schedules the next one a fixed backoff
					// out. Probes are cheap — one minBatch dispatch on the
					// benched device's own timeline — while every extra
					// second of bench time on a device that has recovered
					// costs real throughput, so the interval does not
					// escalate.
					st.probeAt = done + probeBackoff
				} else if st.consecFails >= quarantineAfter {
					s.benchLocked(out, dev, done)
				}
				if !st.quarantined && st.consecFails == 1 {
					// One in-place retry after a backoff, and only against a
					// device whose last outcome before this batch was a
					// success. A consecutive-failure streak means the fault
					// is persistent (a storm window, a dropout), and waiting
					// out a backoff to retry the same device just pays a
					// second failed dispatch; a failed retry is such a
					// streak.
					avail = done + retryBackoff
					continue
				}
				// Retry spent (or the device was just benched): the
				// remnant returns to the pending queue and re-batches at
				// whatever size its next device has learned — a failed
				// mega-batch from a fast device must not land on a slower
				// one (or on a benched one as an oversized "probe") as a
				// single unit.
				head -= k
				break
			}
			failStreak = 0
			st.failRate = (1 - a) * st.failRate
			st.consecFails = 0
			if s.opt.RiskAware && st.quarantined {
				// A successful probe re-admits the device.
				st.quarantined = false
				out.events = append(out.events, QuarantineEvent{
					Device: dev, Name: s.devices[dev].Name, Time: done, Reason: "probe-succeeded",
				})
			}
			st.batches++
			st.jobs += k
			out.groups = append(out.groups, group{
				BatchGroup: qpu.BatchGroup{
					Device: dev, Size: k, Queue: queue, Exec: execT,
					Start: start, Done: done,
				},
				indices: batch,
				sizes:   s.sizesLocked(),
				quar:    s.quarLocked(),
			})
			break
		}
	}

	sort.SliceStable(out.groups, func(i, j int) bool { return out.groups[i].Done < out.groups[j].Done })
	for _, g := range out.groups {
		if g.Done > out.makespan {
			out.makespan = g.Done
		}
	}
	return out, nil
}

// sizesLocked snapshots the current per-device batch sizes.
func (s *Scheduler) sizesLocked() []int {
	sizes := make([]int, len(s.states))
	for d := range s.states {
		sizes[d] = s.states[d].batch
	}
	return sizes
}

// batchFor resolves the batch size device d would carry with remaining jobs
// left: the learned (or fixed) size, tapered in adaptive mode so no device
// takes more than its learned-throughput share of what is left — the
// guided-self-scheduling rule, weighted by observed speed, that keeps the
// steady-state size from turning the end of a run into a single-device
// straggler (or a huge final batch into a tail-latency hostage) without
// starving the fastest device of its amortization.
func (s *Scheduler) batchFor(d, remaining int) int {
	if s.opt.RiskAware && s.states[d].quarantined {
		// A benched device is only probed with a single small batch.
		k := minBatch
		if k > remaining {
			k = remaining
		}
		return k
	}
	k := s.states[d].batch
	if s.opt.FixedBatch == 0 {
		if s.opt.RiskAware {
			if cap := s.riskCapLocked(d); k > cap {
				k = cap
			}
		}
		if share := int(math.Ceil(s.shareLocked(d) * float64(remaining))); k > share {
			k = share
		}
		if k < minBatch {
			k = minBatch
		}
	}
	if k > remaining {
		k = remaining
	}
	return k
}

// shareLocked estimates device d's share of the fleet's throughput from the
// learned per-job times (execution plus amortized queue at the current batch
// size). Unobserved devices count as an even split.
func (s *Scheduler) shareLocked(d int) float64 {
	perJob := func(i int) float64 {
		st := &s.states[i]
		if !st.observed {
			return -1
		}
		k := st.batch
		if k < 1 {
			k = 1
		}
		return st.execEst + st.queueEst/float64(k)
	}
	mine := perJob(d)
	if mine <= 0 {
		return 1 / float64(len(s.devices))
	}
	total := 0.0
	for i := range s.states {
		if t := perJob(i); t > 0 {
			total += 1 / t
		}
	}
	return (1 / mine) / total
}

// pickLocked selects the device for the next batch. Adaptive mode dispatches
// by earliest expected completion: each candidate's learned queue estimate
// plus its batch-size-worth of learned execution time on top of when it (and
// the work) becomes available — so a slow device stops receiving work the
// moment a faster one would finish the same batch sooner, instead of being
// fed by virtue of being idle. Unobserved devices count as instant, which
// probes every device early. Fixed-batch mode dispatches to the
// earliest-free device — it is the status-quo baseline. fixedK > 0 estimates
// for a batch of exactly that size (failure retries, where the batch content
// is already set); otherwise each candidate is judged by the size it would
// itself carry. Ties go to the lowest index, keeping plans deterministic.
func (s *Scheduler) pickLocked(free []float64, avail float64, exclude, remaining, fixedK int) int {
	if s.opt.FixedBatch > 0 {
		dev := -1
		for d := range free {
			if d == exclude && len(free) > 1 {
				continue
			}
			if dev < 0 || free[d] < free[dev] {
				dev = d
			}
		}
		return dev
	}
	dev := -1
	best := math.Inf(1)
	for d := range s.devices {
		if d == exclude && len(s.devices) > 1 {
			continue
		}
		st := &s.states[d]
		est := free[d]
		if avail > est {
			est = avail
		}
		if s.opt.RiskAware && st.quarantined && st.probeAt > est {
			// A benched device becomes available again at its probe time;
			// it competes for dispatch from there, so probes happen as a
			// natural consequence of the fleet catching up to probeAt.
			est = st.probeAt
		}
		if st.observed {
			k := fixedK
			if k <= 0 {
				k = s.batchFor(d, remaining)
			}
			est += st.queueEst + float64(k)*st.execEst
			if s.opt.RiskAware && st.tailSignificant() {
				// Expected tail exposure penalizes tail-heavy devices so
				// work drifts toward calmer ones before a tail strikes.
				est += st.tailProb * (st.tailMag - 1) * (st.queueEst + float64(k)*st.execEst)
			}
		}
		if est < best {
			dev, best = d, est
		}
	}
	return dev
}

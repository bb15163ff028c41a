// Package qpu models the devices of Section 5's execution fabric: quantum
// processing units with queuing delays, heavy-tailed latency, failures and
// time-varying fault scenarios, plus the records a multi-QPU run produces
// and the eager-reconstruction policies (Section 5.2) that cut such a run
// at a soft timeout, sidestepping Amdahl's law by dropping tail-latency
// samples. Dispatching work across devices is internal/fleet's job.
//
// Time is virtual: job latencies are drawn from a seeded heavy-tailed model,
// so a scheduler measures the same queue dynamics a real fleet exhibits
// while running deterministically and instantly.
package qpu

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/backend"
)

// LatencyModel describes one device's per-job latency: a lognormal queue
// delay plus a fixed execution time, with a probability of landing in the
// heavy tail (the paper observed 10x-30x tail latencies on public QPUs).
type LatencyModel struct {
	// QueueMedian is the median queuing delay in seconds.
	QueueMedian float64
	// Sigma is the lognormal shape parameter (0.5 is mild, 1.5 heavy).
	Sigma float64
	// Exec is the fixed circuit-batch execution time in seconds.
	Exec float64
	// TailProb is the probability a job hits the heavy tail.
	TailProb float64
	// TailFactor multiplies the latency of tail jobs (10-30 in the
	// paper's observations).
	TailFactor float64
}

// DefaultLatency is a cloud-QPU-like model: 60 s median queue, moderate
// spread, 5% of jobs hitting a 20x tail.
func DefaultLatency() LatencyModel {
	return LatencyModel{QueueMedian: 60, Sigma: 0.6, Exec: 5, TailProb: 0.05, TailFactor: 20}
}

// Sample draws one job latency in seconds.
func (m LatencyModel) Sample(rng *rand.Rand) float64 {
	return m.SampleBatch(rng, 1)
}

// SampleBatch draws the latency of a batch submission carrying jobs circuit
// evaluations: the queue delay (and any tail excursion) is paid once for the
// whole batch, while execution time scales with its size — the amortization
// real cloud QPUs reward and Section 5 exploits.
func (m LatencyModel) SampleBatch(rng *rand.Rand, jobs int) float64 {
	queue, exec := m.SampleBatchParts(rng, jobs)
	return queue + exec
}

// SampleBatchParts is SampleBatch with the latency decomposed into its queue
// and execution components (both tail-scaled, so queue+exec is the total
// latency). Real cloud QPUs report exactly this split through their queue
// timestamps, and it is the observation adaptive schedulers learn batch
// sizes from: the queue/execution ratio says how many jobs a batch must
// carry before the fixed queue delay stops dominating.
func (m LatencyModel) SampleBatchParts(rng *rand.Rand, jobs int) (queue, exec float64) {
	queue = m.QueueMedian * math.Exp(m.Sigma*rng.NormFloat64())
	exec = m.Exec * float64(jobs)
	if m.TailProb > 0 && rng.Float64() < m.TailProb {
		queue *= m.TailFactor
		exec *= m.TailFactor
	}
	return queue, exec
}

// Validate checks the model parameters.
func (m LatencyModel) Validate() error {
	for _, v := range []float64{m.QueueMedian, m.Sigma, m.Exec, m.TailProb, m.TailFactor} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("qpu: non-finite latency parameters %+v", m)
		}
	}
	if m.QueueMedian < 0 || m.Exec < 0 || m.Sigma < 0 {
		return fmt.Errorf("qpu: negative latency parameters %+v", m)
	}
	if m.TailProb < 0 || m.TailProb > 1 {
		return fmt.Errorf("qpu: tail probability %g out of [0,1]", m.TailProb)
	}
	if m.TailProb > 0 && m.TailFactor < 1 {
		return fmt.Errorf("qpu: tail factor %g < 1", m.TailFactor)
	}
	return nil
}

// Device is one QPU: an evaluator plus its latency behavior.
type Device struct {
	Name    string
	Eval    backend.Evaluator
	Latency LatencyModel
	// FailureProb is the probability a job fails on this device
	// (calibration drop-out, queue eviction). Failed jobs pay their
	// latency; the scheduler decides where they run next.
	FailureProb float64
	// Scenario, when set, perturbs the device's latency, failure
	// probability, and availability as a function of virtual time —
	// deterministic fault injection. Dispatch samples through the
	// scenario-adjusted condition at the submission time.
	Scenario Scenario
}

// Result is one completed job.
type Result struct {
	// Index is the flat grid index the job measured.
	Index int
	// Value is the measured cost.
	Value float64
	// Device is the index of the device that ran the job.
	Device int
	// Done is the virtual completion time in seconds.
	Done float64
}

// BatchGroup records one successful batch submission: which device ran it,
// how many jobs it carried, and the decomposition of its latency. Batch runs
// complete in groups — every job in a group shares one completion time — so
// group boundaries are the natural cut points for eager reconstruction.
type BatchGroup struct {
	// Device is the index of the device that ran the batch, or -1 for a
	// group served instantly from a shared execution cache.
	Device int
	// Size is the number of jobs the batch carried.
	Size int
	// Queue and Exec decompose the batch latency (both tail-scaled);
	// Queue/ (Exec/Size) is the ratio adaptive batch sizing learns from.
	Queue, Exec float64
	// Start and Done are the virtual submission and completion times.
	Start, Done float64
}

// RunReport summarizes a parallel run.
type RunReport struct {
	// Results lists all completed jobs sorted by completion time.
	Results []Result
	// Batches lists the successful batch submissions sorted by completion
	// time. Failed attempts are counted in Retries but not recorded here.
	Batches []BatchGroup
	// Makespan is the virtual time at which the last job finished.
	Makespan float64
	// SerialTime is the virtual time a single reference device would
	// need to run every job back to back.
	SerialTime float64
	// PerDevice counts jobs per device.
	PerDevice []int
	// Retries counts failed executions that were rescheduled.
	Retries int
}

// Speedup is SerialTime / Makespan.
func (r *RunReport) Speedup() float64 {
	if r.Makespan == 0 {
		return math.Inf(1)
	}
	return r.SerialTime / r.Makespan
}

// maxAttempts caps how often SerialBaseline retries one job on its single
// device.
const maxAttempts = 8

// SerialBaseline draws the virtual time a single device needs to run jobs
// submitted individually, back to back, with failed submissions retried (and
// paid for) on that same device. The fleet scheduler reports it as
// SerialTime, the one-device no-batching baseline its Speedup figures are
// measured against. The baseline is scenario-blind: it measures the
// undisturbed reference device, so speedup figures stay comparable across
// injected scenarios.
func SerialBaseline(d Device, rng *rand.Rand, jobs int) float64 {
	var serial float64
	for i := 0; i < jobs; i++ {
		for attempt := 0; ; attempt++ {
			serial += d.Latency.Sample(rng)
			if d.FailureProb <= 0 || rng.Float64() >= d.FailureProb || attempt+1 >= maxAttempts {
				break
			}
		}
	}
	return serial
}

// EagerCut returns the prefix of results completed by the soft timeout, plus
// the time saved versus waiting for the full run. This is Section 5.2's
// eager reconstruction: a small loss of samples buys a large latency win
// when the timeout cuts off the heavy tail.
func EagerCut(rep *RunReport, timeout float64) (kept []Result, saved float64) {
	for _, r := range rep.Results {
		if r.Done <= timeout {
			kept = append(kept, r)
		}
	}
	saved = rep.Makespan - timeout
	if saved < 0 {
		saved = 0
	}
	return kept, saved
}

// TimeoutForFraction returns the completion time of the q-quantile job —
// the natural soft timeout to keep a fraction q of samples.
func TimeoutForFraction(rep *RunReport, q float64) float64 {
	if len(rep.Results) == 0 || q <= 0 {
		return 0
	}
	if q >= 1 {
		return rep.Makespan
	}
	k := int(q * float64(len(rep.Results)))
	if k < 1 {
		k = 1
	}
	return rep.Results[k-1].Done
}

// BatchTimeoutForFraction returns the batch-boundary soft timeout that keeps
// at least a fraction q of the jobs carried by the given batch groups: groups
// are taken in completion order until their cumulative size covers q of the
// jobs, and the completion time of the last included group is the timeout.
// Batch runs deliver results in groups, so cutting anywhere else would pay a
// group's full latency and then discard part of its samples.
func BatchTimeoutForFraction(batches []BatchGroup, q float64) float64 {
	total := 0
	for _, b := range batches {
		total += b.Size
	}
	if total == 0 || q <= 0 {
		return 0
	}
	sorted := append([]BatchGroup(nil), batches...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Done < sorted[j].Done })
	if q > 1 {
		q = 1
	}
	need := int(math.Ceil(q * float64(total)))
	covered := 0
	for _, b := range sorted {
		covered += b.Size
		if covered >= need {
			return b.Done
		}
	}
	return sorted[len(sorted)-1].Done
}

// SplitIndices partitions sampled indices between two devices with the
// given fraction going to the first — the mixing ratios of Table 5 and
// Figure 8 ("20%-80%" etc.).
func SplitIndices(indices []int, fracFirst float64, rng *rand.Rand) (first, second []int, err error) {
	if fracFirst < 0 || fracFirst > 1 {
		return nil, nil, fmt.Errorf("qpu: fraction %g out of [0,1]", fracFirst)
	}
	perm := rng.Perm(len(indices))
	nFirst := int(math.Round(fracFirst * float64(len(indices))))
	pick := make(map[int]bool, nFirst)
	for _, p := range perm[:nFirst] {
		pick[p] = true
	}
	for i, idx := range indices {
		if pick[i] {
			first = append(first, idx)
		} else {
			second = append(second, idx)
		}
	}
	return first, second, nil
}

package fleet

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/landscape"
	"repro/internal/qpu"
)

// identicalFleet is n copies of one device.
func identicalFleet(n int, lat qpu.LatencyModel) []qpu.Device {
	devices := make([]qpu.Device, n)
	for i := range devices {
		devices[i] = qpu.Device{Name: "qpu", Eval: testEval(), Latency: lat}
	}
	return devices
}

// checkValues fails unless rep carries every index of idx exactly once,
// each with the value the evaluator returns for its grid point.
func checkValues(t *testing.T, g *landscape.Grid, rep *qpu.RunReport, idx []int) {
	t.Helper()
	if len(rep.Results) != len(idx) {
		t.Fatalf("%d results, want %d", len(rep.Results), len(idx))
	}
	ev := testEval()
	seen := map[int]bool{}
	for _, r := range rep.Results {
		if seen[r.Index] {
			t.Fatalf("index %d delivered twice", r.Index)
		}
		seen[r.Index] = true
		want, err := ev.Evaluate(g.Point(r.Index))
		if err != nil {
			t.Fatal(err)
		}
		if r.Value != want {
			t.Fatalf("index %d: value %g, Evaluate gives %g", r.Index, r.Value, want)
		}
	}
	for _, i := range idx {
		if !seen[i] {
			t.Fatalf("index %d never delivered", i)
		}
	}
}

// TestFleetFixedBatchOneRun: with FixedBatch 1 every job is its own
// dispatch, each index is evaluated once with Evaluate's value, identical
// devices share the load, and the speedup over one device grows with the
// device count.
func TestFleetFixedBatchOneRun(t *testing.T) {
	g := testGrid(t)
	idx := allIndices(g)[:60]
	lat := qpu.LatencyModel{QueueMedian: 10, Sigma: 0.3, Exec: 1}
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8} {
		s, err := New(Options{Seed: 7, FixedBatch: 1}, identicalFleet(n, lat)...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(context.Background(), g, idx)
		if err != nil {
			t.Fatal(err)
		}
		checkValues(t, g, rep, idx)
		if len(rep.Batches) != len(idx) {
			t.Fatalf("%d devices: %d dispatches for %d jobs", n, len(rep.Batches), len(idx))
		}
		sp := rep.Speedup()
		if sp <= prev {
			t.Fatalf("%d devices: speedup %g, not above %g with fewer devices", n, sp, prev)
		}
		prev = sp
		if n == 4 {
			if sp < 2.5 || sp > 6 {
				t.Fatalf("4 identical devices: speedup %g, want near 4", sp)
			}
			for d, c := range rep.PerDevice {
				if c < 10 || c > 20 {
					t.Fatalf("device %d ran %d of 60 jobs", d, c)
				}
			}
		}
	}
}

// TestFleetFixedBatchAmortizes: batches of 10 return the values single-job
// dispatch returns, pay one queue delay per batch, and record every group's
// latency split.
func TestFleetFixedBatchAmortizes(t *testing.T) {
	g := testGrid(t)
	idx := allIndices(g)[:100]
	lat := qpu.LatencyModel{QueueMedian: 60, Sigma: 0.4, Exec: 1}
	run := func(batch int) *qpu.RunReport {
		s, err := New(Options{Seed: 5, FixedBatch: batch}, identicalFleet(2, lat)...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(context.Background(), g, idx)
		if err != nil {
			t.Fatal(err)
		}
		checkValues(t, g, rep, idx)
		return rep
	}
	single, batched := run(1), run(10)
	// 100 jobs on 2 devices: 50 queue waits each unbatched, 5 batched.
	if batched.Makespan >= single.Makespan/2 {
		t.Fatalf("batching did not amortize queue latency: batched makespan %g vs single %g",
			batched.Makespan, single.Makespan)
	}
	if sp := batched.Speedup(); sp <= single.Speedup() {
		t.Fatalf("batched speedup %g, single-job %g", sp, single.Speedup())
	}
	if len(batched.Batches) != 10 {
		t.Fatalf("%d batch groups, want 10", len(batched.Batches))
	}
	for _, b := range batched.Batches {
		if b.Size != 10 || b.Queue <= 0 || b.Exec <= 0 {
			t.Fatalf("degenerate batch group %+v", b)
		}
		if math.Abs(b.Done-b.Start-b.Queue-b.Exec) > 1e-9 {
			t.Fatalf("group %+v: done != start+queue+exec", b)
		}
	}
}

// TestFleetSingleDeviceRetriesInPlace: a one-device fleet has nowhere else
// to send a failed job, so it retries on the same device and still
// completes.
func TestFleetSingleDeviceRetriesInPlace(t *testing.T) {
	g := testGrid(t)
	idx := allIndices(g)[:40]
	d := qpu.Device{Name: "only", Eval: testEval(),
		Latency: qpu.LatencyModel{QueueMedian: 5, Sigma: 0.1, Exec: 1}, FailureProb: 0.2}
	s, err := New(Options{Seed: 31, FixedBatch: 1}, d)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background(), g, idx)
	if err != nil {
		t.Fatal(err)
	}
	checkValues(t, g, rep, idx)
	if rep.Retries == 0 {
		t.Fatal("no retries at 20% failure probability")
	}
	if rep.PerDevice[0] != len(idx) {
		t.Fatalf("device ran %d of %d jobs", rep.PerDevice[0], len(idx))
	}
}

// TestFleetSingleDeviceDownErrors: a one-device fleet whose device is dark
// for good must return an error once its failure budget is spent, under
// every batch policy, rather than retry forever.
func TestFleetSingleDeviceDownErrors(t *testing.T) {
	g := testGrid(t)
	dark := qpu.Device{Name: "dark", Eval: testEval(),
		Latency:  qpu.LatencyModel{QueueMedian: 5, Sigma: 0.3, Exec: 1},
		Scenario: qpu.Dropout{Start: 0, Duration: 1e9}}
	for _, opt := range []Options{
		{Seed: 1, FixedBatch: 1},
		{Seed: 1},
		{Seed: 1, RiskAware: true},
	} {
		s, err := New(opt, dark)
		if err != nil {
			t.Fatal(err)
		}
		errc := make(chan error, 1)
		go func() {
			_, err := s.Run(context.Background(), g, []int{0, 1, 2})
			errc <- err
		}()
		select {
		case err := <-errc:
			if err == nil || !strings.Contains(err.Error(), "failed") {
				t.Fatalf("%+v: want a hard failure on a single dark device, got %v", opt, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%+v: run on a single dark device did not return", opt)
		}
	}
}

// TestFleetSurvivesHighFailureMultiDevice: two devices that fail 90% of
// their dispatches beside a solid one must not abandon the run — each
// failure moves the job elsewhere.
func TestFleetSurvivesHighFailureMultiDevice(t *testing.T) {
	g := testGrid(t)
	idx := allIndices(g)[:100]
	lat := qpu.LatencyModel{QueueMedian: 5, Sigma: 0.3, Exec: 1}
	ev := testEval()
	s, err := New(Options{Seed: 5, FixedBatch: 1},
		qpu.Device{Name: "flaky1", Eval: ev, Latency: lat, FailureProb: 0.9},
		qpu.Device{Name: "flaky2", Eval: ev, Latency: lat, FailureProb: 0.9},
		qpu.Device{Name: "solid", Eval: ev, Latency: lat},
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background(), g, idx)
	if err != nil {
		t.Fatalf("run on a flaky fleet: %v", err)
	}
	checkValues(t, g, rep, idx)
	if rep.Retries == 0 {
		t.Fatal("no retries at 90% failure probability")
	}
}

// TestFleetBatchedFailureReschedules: batches of 5 that fail on a 90%-flaky
// device are rescheduled until every job is delivered with its value.
func TestFleetBatchedFailureReschedules(t *testing.T) {
	g := testGrid(t)
	idx := allIndices(g)[:40]
	ev := testEval()
	s, err := New(Options{Seed: 31, FixedBatch: 5},
		qpu.Device{Name: "flaky", Eval: ev, Latency: qpu.DefaultLatency(), FailureProb: 0.9},
		qpu.Device{Name: "solid", Eval: ev, Latency: qpu.DefaultLatency()},
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background(), g, idx)
	if err != nil {
		t.Fatalf("batched run on a flaky fleet: %v", err)
	}
	checkValues(t, g, rep, idx)
	if rep.Retries == 0 {
		t.Fatal("no retries at 90% failure probability")
	}
}

// TestFleetFixedBatchSurvivesDropout: with one device dark for the whole run,
// every batch first tried there is re-dispatched to the healthy device.
func TestFleetFixedBatchSurvivesDropout(t *testing.T) {
	g := testGrid(t)
	idx := allIndices(g)[:60]
	ev := testEval()
	lat := qpu.LatencyModel{QueueMedian: 20, Sigma: 0.3, Exec: 2}
	s, err := New(Options{Seed: 11, FixedBatch: 10},
		qpu.Device{Name: "dark", Eval: ev, Latency: lat, Scenario: qpu.Dropout{Start: 0, Duration: 1e9}},
		qpu.Device{Name: "ok", Eval: ev, Latency: lat},
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(context.Background(), g, idx)
	if err != nil {
		t.Fatalf("run under dropout: %v", err)
	}
	checkValues(t, g, rep, idx)
	if rep.Retries == 0 {
		t.Fatal("no retries from the dark device")
	}
	if rep.PerDevice[0] != 0 {
		t.Fatalf("dark device completed %d jobs", rep.PerDevice[0])
	}
}

// TestFleetScenarioDeterministic: fixed-batch runs under queue spikes and a
// retry storm reproduce exactly on a same-seed scheduler.
func TestFleetScenarioDeterministic(t *testing.T) {
	g := testGrid(t)
	idx := allIndices(g)[:80]
	lat := qpu.LatencyModel{QueueMedian: 20, Sigma: 0.5, Exec: 2, TailProb: 0.05, TailFactor: 15}
	run := func() *qpu.RunReport {
		ev := testEval()
		s, err := New(Options{Seed: 17, FixedBatch: 8},
			qpu.Device{Name: "a", Eval: ev, Latency: lat, Scenario: qpu.NewQueueSpikes(5, 60, 40, 8)},
			qpu.Device{Name: "b", Eval: ev, Latency: lat, Scenario: qpu.NewRetryStorm(6, 40, 80, 0.7)},
		)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(context.Background(), g, idx)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r2 := run(), run()
	if r1.Retries == 0 {
		t.Fatal("the retry storm failed no dispatch")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("scenario run not reproducible: makespan %g/%g retries %d/%d batches %d/%d",
			r1.Makespan, r2.Makespan, r1.Retries, r2.Retries, len(r1.Batches), len(r2.Batches))
	}
}

// TestFleetEagerCutKeepsWholeGroups: the batch-boundary cut keeps exactly
// the whole groups of the full plan that completed by the timeout, at least
// the requested fraction of the jobs, and splits no group.
func TestFleetEagerCutKeepsWholeGroups(t *testing.T) {
	g := testGrid(t)
	opt := core.Options{SamplingFraction: 0.5, Seed: 3}
	idx, err := core.SampleGrid(g, opt.SamplingFraction, opt.Seed, opt.Stratified)
	if err != nil {
		t.Fatal(err)
	}
	lat := qpu.LatencyModel{QueueMedian: 20, Sigma: 0.5, Exec: 1, TailProb: 0.15, TailFactor: 25}
	fopt := Options{Seed: 77, FixedBatch: 7}
	s, err := New(fopt, identicalFleet(2, lat)...)
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.Run(context.Background(), g, idx)
	if err != nil {
		t.Fatal(err)
	}
	cut := false
	for _, q := range []float64{0.25, 0.5, 0.8, 0.95, 1} {
		fopt.KeepFraction = q
		s, err := New(fopt, identicalFleet(2, lat)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.ReconstructStream(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if want := qpu.BatchTimeoutForFraction(full.Batches, q); res.Timeout != want {
			t.Fatalf("q=%g: timeout %g, want the batch-boundary quantile %g", q, res.Timeout, want)
		}
		whole := 0
		for _, b := range full.Batches {
			if b.Done <= res.Timeout {
				whole += b.Size
			}
		}
		if res.Stats.Samples != whole {
			t.Fatalf("q=%g: kept %d jobs but whole groups under the timeout carry %d", q, res.Stats.Samples, whole)
		}
		if whole < int(math.Ceil(q*float64(len(idx)))) {
			t.Fatalf("q=%g: kept %d of %d, below the requested fraction", q, whole, len(idx))
		}
		if res.Saved != full.Makespan-res.Timeout {
			t.Fatalf("q=%g: saved %g, want makespan %g - timeout %g", q, res.Saved, full.Makespan, res.Timeout)
		}
		cut = cut || whole < len(idx)
	}
	if !cut {
		t.Fatal("no keep fraction dropped a group")
	}
}

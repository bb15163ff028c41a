package fleet

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/landscape"
	"repro/internal/qpu"
)

func testGrid(t *testing.T) *landscape.Grid {
	t.Helper()
	g, err := landscape.NewGrid(
		landscape.Axis{Name: "b", Min: -1, Max: 1, N: 20},
		landscape.Axis{Name: "g", Min: -2, Max: 2, N: 30},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testEval() backend.Evaluator {
	return &backend.Func{Label: "f", Params: 2, F: func(p []float64) (float64, error) {
		return p[0]*p[0] - 0.5*p[1], nil
	}}
}

// heterogeneousFleet is the 3-device configuration the adaptive-vs-fixed
// claims are tested on: one queue-dominated device (wants big batches), one
// balanced, one execution-dominated (wants small batches).
func heterogeneousFleet(tailProb, tailFactor float64) []qpu.Device {
	ev := testEval()
	return []qpu.Device{
		{Name: "hiq", Eval: ev, Latency: qpu.LatencyModel{QueueMedian: 120, Sigma: 0.5, Exec: 1, TailProb: tailProb, TailFactor: tailFactor}},
		{Name: "mid", Eval: ev, Latency: qpu.LatencyModel{QueueMedian: 30, Sigma: 0.5, Exec: 5, TailProb: tailProb, TailFactor: tailFactor}},
		{Name: "slow", Eval: ev, Latency: qpu.LatencyModel{QueueMedian: 10, Sigma: 0.5, Exec: 12, TailProb: tailProb, TailFactor: tailFactor}},
	}
}

func allIndices(g *landscape.Grid) []int {
	idx := make([]int, g.Size())
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func TestFleetRunValuesAndInvariants(t *testing.T) {
	g := testGrid(t)
	s, err := New(Options{Seed: 3}, heterogeneousFleet(0, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	idx := allIndices(g)
	rep, err := s.Run(context.Background(), g, idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(idx) {
		t.Fatalf("%d results, want %d", len(rep.Results), len(idx))
	}
	seen := map[int]bool{}
	for _, r := range rep.Results {
		p := g.Point(r.Index)
		if want := p[0]*p[0] - 0.5*p[1]; math.Abs(r.Value-want) > 1e-12 {
			t.Fatalf("index %d: value %g want %g", r.Index, r.Value, want)
		}
		if seen[r.Index] {
			t.Fatalf("index %d delivered twice", r.Index)
		}
		seen[r.Index] = true
		if r.Done > rep.Makespan {
			t.Fatalf("result done %g past makespan %g", r.Done, rep.Makespan)
		}
	}
	for i := 1; i < len(rep.Results); i++ {
		if rep.Results[i].Done < rep.Results[i-1].Done {
			t.Fatal("results not sorted by completion")
		}
	}
	perDevice := 0
	for _, c := range rep.PerDevice {
		perDevice += c
	}
	if perDevice != len(idx) {
		t.Fatalf("per-device counts sum to %d, want %d", perDevice, len(idx))
	}
	batchJobs := 0
	for i, b := range rep.Batches {
		batchJobs += b.Size
		if i > 0 && b.Done < rep.Batches[i-1].Done {
			t.Fatal("batch groups not sorted by completion")
		}
	}
	if batchJobs != len(idx) {
		t.Fatalf("batch groups carry %d jobs, want %d", batchJobs, len(idx))
	}
	if sp := rep.Speedup(); sp <= 1 {
		t.Fatalf("fleet speedup %g, want > 1", sp)
	}
}

// TestFleetLearnsHeterogeneity: after a run, the queue-dominated device must
// have learned a much larger batch size than the execution-dominated one,
// and learned ratios should sit near the true queue/exec ratios.
func TestFleetLearnsHeterogeneity(t *testing.T) {
	g := testGrid(t)
	s, err := New(Options{Seed: 8}, heterogeneousFleet(0, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), g, allIndices(g)); err != nil {
		t.Fatal(err)
	}
	st := s.States()
	if st[0].Name != "hiq" || st[2].Name != "slow" {
		t.Fatalf("unexpected device order %+v", st)
	}
	if st[0].BatchSize <= 4*st[2].BatchSize {
		t.Errorf("queue-dominated device learned batch %d, exec-dominated %d — no separation",
			st[0].BatchSize, st[2].BatchSize)
	}
	// True ratios: hiq 120/1, mid 30/5, slow 10/12 (medians; lognormal
	// spread and EWMA smoothing allow generous slack).
	if st[0].Ratio < 40 || st[0].Ratio > 400 {
		t.Errorf("hiq learned ratio %g, true median ratio 120", st[0].Ratio)
	}
	if st[2].Ratio > 5 {
		t.Errorf("slow learned ratio %g, true median ratio 0.83", st[2].Ratio)
	}
	if st[0].Batches == 0 || st[0].Jobs == 0 {
		t.Error("no dispatch accounting")
	}
}

// TestFleetDeterministicAcrossWorkers is the acceptance pin: a streaming
// reconstruction is bit-identical for every scheduler worker count.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	g := testGrid(t)
	opt := core.Options{SamplingFraction: 0.4, Seed: 5}
	run := func(workers int) *StreamResult {
		s, err := New(Options{
			Seed:       11,
			Workers:    workers,
			Thresholds: []float64{0.4, 0.7},
		}, heterogeneousFleet(0.1, 15)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.ReconstructStream(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	if len(ref.Partials) == 0 {
		t.Fatal("no partial solves with thresholds configured")
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if got.Report.Makespan != ref.Report.Makespan ||
			got.Report.SerialTime != ref.Report.SerialTime {
			t.Fatalf("workers=%d: virtual time differs", workers)
		}
		if len(got.Report.Results) != len(ref.Report.Results) {
			t.Fatalf("workers=%d: %d results vs %d", workers, len(got.Report.Results), len(ref.Report.Results))
		}
		for i := range ref.Report.Results {
			if got.Report.Results[i] != ref.Report.Results[i] {
				t.Fatalf("workers=%d: result %d differs", workers, i)
			}
		}
		for i := range ref.Landscape.Data {
			if got.Landscape.Data[i] != ref.Landscape.Data[i] {
				t.Fatalf("workers=%d: reconstruction differs at %d", workers, i)
			}
		}
		if len(got.Partials) != len(ref.Partials) {
			t.Fatalf("workers=%d: %d partials vs %d", workers, len(got.Partials), len(ref.Partials))
		}
		for i := range ref.Partials {
			if got.Partials[i] != ref.Partials[i] {
				t.Fatalf("workers=%d: partial %d differs: %+v vs %+v",
					workers, i, got.Partials[i], ref.Partials[i])
			}
		}
	}
}

// TestFleetAdaptiveBeatsFixed is the acceptance criterion: on the 3-device
// heterogeneous fleet, adaptive batch sizing matches or beats the best fixed
// batch size in simulated total time, averaged over seeds.
func TestFleetAdaptiveBeatsFixed(t *testing.T) {
	g := testGrid(t)
	idx := allIndices(g) // 600 jobs
	seeds := []int64{1, 2, 3, 5, 8, 13}
	mean := func(fixed int) float64 {
		var sum float64
		for _, seed := range seeds {
			s, err := New(Options{Seed: seed, FixedBatch: fixed}, heterogeneousFleet(0, 1)...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run(context.Background(), g, idx)
			if err != nil {
				t.Fatal(err)
			}
			sum += rep.Makespan
		}
		return sum / float64(len(seeds))
	}
	adaptive := mean(0)
	bestFixed := math.Inf(1)
	bestK := 0
	for _, k := range []int{8, 16, 32, 64, 128} {
		if m := mean(k); m < bestFixed {
			bestFixed, bestK = m, k
		}
	}
	t.Logf("adaptive mean makespan %.0f, best fixed (k=%d) %.0f", adaptive, bestK, bestFixed)
	if adaptive > bestFixed*1.02 {
		t.Errorf("adaptive mean makespan %.0f worse than best fixed k=%d at %.0f",
			adaptive, bestK, bestFixed)
	}
}

// TestFleetSharedCache: a second run over the same points is served from the
// shared cache at virtual time zero — no device pays queue latency — and
// cached values match the originals.
func TestFleetSharedCache(t *testing.T) {
	g := testGrid(t)
	cache := exec.NewCache(0)
	idx := allIndices(g)[:200]
	s1, err := New(Options{Seed: 21, Cache: cache}, heterogeneousFleet(0, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := s1.Run(context.Background(), g, idx)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Makespan == 0 {
		t.Fatal("first run paid no latency")
	}
	if cache.Len() != len(idx) {
		t.Fatalf("cache holds %d entries, want %d", cache.Len(), len(idx))
	}

	s2, err := New(Options{Seed: 22, Cache: cache}, heterogeneousFleet(0, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := s2.Run(context.Background(), g, idx)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Makespan != 0 {
		t.Fatalf("fully cached run has makespan %g, want 0", rep2.Makespan)
	}
	want := map[int]float64{}
	for _, r := range rep1.Results {
		want[r.Index] = r.Value
	}
	for _, r := range rep2.Results {
		if r.Device != -1 {
			t.Fatalf("cached result on device %d, want -1", r.Device)
		}
		if r.Value != want[r.Index] {
			t.Fatalf("cached value %g differs from measured %g", r.Value, want[r.Index])
		}
	}
	// Partially cached: new points still execute.
	more := allIndices(g)[:300]
	s3, err := New(Options{Seed: 23, Cache: cache}, heterogeneousFleet(0, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	rep3, err := s3.Run(context.Background(), g, more)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Makespan == 0 {
		t.Fatal("run with 100 fresh points paid no latency")
	}
	if cache.Len() != 300 {
		t.Fatalf("cache holds %d entries, want 300", cache.Len())
	}
	cached := 0
	for _, b := range rep3.Batches {
		if b.Device == -1 {
			cached += b.Size
		}
	}
	if cached != 200 {
		t.Fatalf("%d cache-served jobs, want 200", cached)
	}
}

// TestFleetEagerCutSavesTime: under heavy tails, a 90% keep fraction drops
// tail batches, reconstructs from the kept samples, and reports saved time.
func TestFleetEagerCutSavesTime(t *testing.T) {
	g := testGrid(t)
	saved := false
	for _, seed := range []int64{4, 9, 17} {
		s, err := New(Options{Seed: seed, KeepFraction: 0.9}, heterogeneousFleet(0.15, 25)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.ReconstructStream(context.Background(), g, core.Options{SamplingFraction: 0.5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, b := range res.Report.Batches {
			total += b.Size
		}
		if total != res.Stats.Samples {
			t.Fatalf("report carries %d jobs but stats says %d", total, res.Stats.Samples)
		}
		// The cut must keep at least the requested fraction of what was
		// scheduled (300 samples at 50% of 600).
		if res.Stats.Samples < int(0.9*300) {
			t.Fatalf("kept %d of 300 samples at keep=0.9", res.Stats.Samples)
		}
		if res.Timeout > res.Report.Makespan {
			t.Fatalf("timeout %g past makespan %g", res.Timeout, res.Report.Makespan)
		}
		if res.Saved != res.Report.Makespan-res.Timeout {
			t.Fatalf("saved %g != makespan-timeout %g", res.Saved, res.Report.Makespan-res.Timeout)
		}
		for _, r := range res.Report.Results {
			if r.Done > res.Timeout {
				t.Fatalf("kept a result past the cut: done %g > timeout %g", r.Done, res.Timeout)
			}
		}
		if res.Saved > 0 && res.Stats.Samples < 300 {
			saved = true
		}
	}
	if !saved {
		t.Error("no seed produced a tail cut that saved time — tails too mild for the test config")
	}
}

// TestFleetStreamingSolves: interim solves trigger at the configured
// coverage thresholds, warm-starting each next solve, and the final
// reconstruction matches a cold solve on the same samples to solver
// tolerance.
func TestFleetStreamingSolves(t *testing.T) {
	g := testGrid(t)
	var progress []Progress
	s, err := New(Options{
		Seed:       31,
		Thresholds: []float64{0.3, 0.6},
		OnProgress: func(p Progress) { progress = append(progress, p) },
	}, heterogeneousFleet(0, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{SamplingFraction: 0.5, Seed: 7}
	res, err := s.ReconstructStream(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Partials) == 0 || len(res.Partials) > 2 {
		t.Fatalf("%d partial solves, want 1 or 2 (thresholds may collapse onto one batch)", len(res.Partials))
	}
	if res.Partials[0].Coverage < 0.3 {
		t.Fatalf("first partial coverage %g below the 0.3 threshold", res.Partials[0].Coverage)
	}
	for i := 1; i < len(res.Partials); i++ {
		if res.Partials[i].Samples <= res.Partials[i-1].Samples {
			t.Fatal("partial sample counts not increasing")
		}
	}
	if res.Partials[len(res.Partials)-1].Samples >= res.Stats.Samples {
		t.Fatal("final solve has no more samples than the last partial")
	}

	// Progress is monotone and ends at full coverage.
	if len(progress) == 0 {
		t.Fatal("no progress callbacks")
	}
	done := 0
	for _, p := range progress {
		if p.SamplesDone < done {
			t.Fatal("progress went backwards")
		}
		done = p.SamplesDone
		if len(p.BatchSizes) != 3 {
			t.Fatalf("progress carries %d batch sizes, want 3", len(p.BatchSizes))
		}
		if !reflect.DeepEqual(p.States, res.DeviceStates) {
			t.Fatalf("progress states %+v, want the run's end state %+v", p.States, res.DeviceStates)
		}
	}
	if done != res.Stats.Samples {
		t.Fatalf("final progress at %d samples, want %d", done, res.Stats.Samples)
	}
	// Streaming never changes the learned state, so the end-of-plan
	// states that progress carries are the scheduler's state at the end.
	if live := s.States(); !reflect.DeepEqual(live, res.DeviceStates) {
		t.Fatalf("scheduler state %+v after the run, want the end-of-plan %+v", live, res.DeviceStates)
	}

	// The streamed (warm-started) result agrees with a cold solve.
	cold, _, err := core.ReconstructFromSamples(g, res.Stats.Indices, res.Stats.Values, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	nr, err := landscape.NRMSE(cold.Data, res.Landscape.Data)
	if err != nil {
		t.Fatal(err)
	}
	if nr > 1e-3 {
		t.Fatalf("streamed reconstruction diverges from cold solve: NRMSE %g", nr)
	}
	if len(res.BatchSizes) != 3 {
		t.Fatalf("result carries %d batch sizes, want 3", len(res.BatchSizes))
	}
}

// TestFleetFailureRescheduling: a flaky device forces retries but every job
// still lands, with correct values.
func TestFleetFailureRescheduling(t *testing.T) {
	g := testGrid(t)
	ev := testEval()
	lat := qpu.LatencyModel{QueueMedian: 10, Sigma: 0.3, Exec: 1}
	s, err := New(Options{Seed: 41},
		qpu.Device{Name: "flaky", Eval: ev, Latency: lat, FailureProb: 0.5},
		qpu.Device{Name: "solid", Eval: ev, Latency: lat},
	)
	if err != nil {
		t.Fatal(err)
	}
	idx := allIndices(g)[:150]
	rep, err := s.Run(context.Background(), g, idx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Retries == 0 {
		t.Fatal("no retries at 50% failure probability")
	}
	if len(rep.Results) != len(idx) {
		t.Fatalf("%d results, want %d", len(rep.Results), len(idx))
	}
	for _, r := range rep.Results {
		p := g.Point(r.Index)
		if want := p[0]*p[0] - 0.5*p[1]; math.Abs(r.Value-want) > 1e-12 {
			t.Fatalf("value corrupted after retry")
		}
	}
}

// TestFleetPersistentStreams: successive runs on one scheduler draw fresh
// queue dynamics; the whole sequence is reproducible on a same-seed
// scheduler.
func TestFleetPersistentStreams(t *testing.T) {
	g := testGrid(t)
	idx := allIndices(g)[:100]
	mk := func() *Scheduler {
		s, err := New(Options{Seed: 51}, heterogeneousFleet(0, 1)...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := mk()
	r1, err := s.Run(context.Background(), g, idx)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run(context.Background(), g, idx)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan == r2.Makespan && r1.SerialTime == r2.SerialTime {
		t.Fatal("second run replayed the first run's latency draws")
	}
	s2 := mk()
	q1, err := s2.Run(context.Background(), g, idx)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := s2.Run(context.Background(), g, idx)
	if err != nil {
		t.Fatal(err)
	}
	if q1.Makespan != r1.Makespan || q2.Makespan != r2.Makespan {
		t.Fatal("run sequence not reproducible given the seed")
	}
}

func TestFleetValidation(t *testing.T) {
	ev := testEval()
	dev := qpu.Device{Name: "a", Eval: ev, Latency: qpu.DefaultLatency()}
	if _, err := New(Options{}); err == nil {
		t.Error("want error for no devices")
	}
	if _, err := New(Options{}, qpu.Device{Name: "x"}); err == nil {
		t.Error("want error for missing evaluator")
	}
	if _, err := New(Options{}, qpu.Device{Name: "x", Eval: ev, FailureProb: 1}); err == nil {
		t.Error("want error for failure probability 1")
	}
	if _, err := New(Options{FixedBatch: -1}, dev); err == nil {
		t.Error("want error for negative fixed batch")
	}
	if _, err := New(Options{KeepFraction: 1.5}, dev); err == nil {
		t.Error("want error for keep fraction > 1")
	}
	if _, err := New(Options{Thresholds: []float64{0.5, 1.0}}, dev); err == nil {
		t.Error("want error for threshold at 1")
	}
	s, err := New(Options{}, dev)
	if err != nil {
		t.Fatal(err)
	}
	g := testGrid(t)
	if _, err := s.Run(context.Background(), g, nil); err == nil {
		t.Error("want error for no jobs")
	}
	if _, err := s.ReconstructStream(context.Background(), g, core.Options{}); err == nil {
		t.Error("want error for missing sampling fraction")
	}
}

// TestFleetDeviceErrorNotMaskedByCancellation: when one device's evaluator
// fails mid-run, the returned error must name that failure, not the
// context.Canceled that the abort inflicts on unrelated in-flight groups —
// the service layer classifies canceled-vs-failed from exactly this error.
func TestFleetDeviceErrorNotMaskedByCancellation(t *testing.T) {
	g := testGrid(t)
	good := testEval()
	bad := &backend.Func{Label: "bad", Params: 2, F: func(p []float64) (float64, error) {
		return 0, errors.New("calibration lost")
	}}
	lat := qpu.LatencyModel{QueueMedian: 10, Sigma: 0.3, Exec: 1}
	s, err := New(Options{Seed: 71, Workers: 4},
		qpu.Device{Name: "good", Eval: good, Latency: lat},
		qpu.Device{Name: "bad", Eval: bad, Latency: lat},
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(context.Background(), g, allIndices(g))
	if err == nil {
		t.Fatal("want error from the failing device")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("device failure reported as cancellation: %v", err)
	}
	if !strings.Contains(err.Error(), `"bad"`) || !strings.Contains(err.Error(), "calibration lost") {
		t.Fatalf("error does not name the failing device: %v", err)
	}
}

// TestFleetHonorsCoreOptionsCache: a scheduler built without its own cache
// adopts core.Options.Cache, matching every other reconstruction entry
// point.
func TestFleetHonorsCoreOptionsCache(t *testing.T) {
	g := testGrid(t)
	cache := exec.NewCache(0)
	opt := core.Options{SamplingFraction: 0.3, Seed: 6, Cache: cache}
	s1, err := New(Options{Seed: 81}, heterogeneousFleet(0, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := s1.ReconstructStream(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Report.Makespan == 0 || cache.Len() != r1.Stats.Samples {
		t.Fatalf("first run: makespan %g, %d cached of %d samples",
			r1.Report.Makespan, cache.Len(), r1.Stats.Samples)
	}
	s2, err := New(Options{Seed: 82}, heterogeneousFleet(0, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s2.ReconstructStream(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Report.Makespan != 0 {
		t.Fatalf("second run ignored core.Options.Cache: makespan %g", r2.Report.Makespan)
	}
}

// TestFleetCancellation: a canceled context stops the streaming run.
func TestFleetCancellation(t *testing.T) {
	g := testGrid(t)
	s, err := New(Options{Seed: 61}, heterogeneousFleet(0, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx, g, allIndices(g)); err == nil {
		t.Error("want error from canceled context")
	}
}

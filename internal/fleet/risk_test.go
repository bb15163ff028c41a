package fleet

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/qpu"
)

// TestObserveFailedBatchKeepsRatioSane pins that observe on a failed batch
// (the learner folds in every dispatch, failed ones included) cannot corrupt
// the EWMA ratio: estimates stay finite, positive, and within the range of
// the observations.
func TestObserveFailedBatchKeepsRatioSane(t *testing.T) {
	s, err := New(Options{Seed: 1}, heterogeneousFleet(0, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	st := &s.states[0]
	// Interleave "successful" and "failed" observations — observe does not
	// distinguish them, which is the property under test.
	s.observe(st, 10, 100, 50)
	s.observe(st, 10, 90, 55) // a failed batch reports its timing too
	s.observe(st, 20, 110, 100)
	r := st.ratio()
	if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
		t.Fatalf("ratio corrupted: %g", r)
	}
	// Queue estimate must stay within the observed envelope.
	if st.queueEst < 90 || st.queueEst > 110 {
		t.Fatalf("queue estimate %g escaped the observation range [90,110]", st.queueEst)
	}
	if st.execEst < 5-1e-9 || st.execEst > 5.5+1e-9 {
		t.Fatalf("exec-per-job estimate %g escaped [5,5.5]", st.execEst)
	}
	if st.batch < minBatch || st.batch > maxBatch {
		t.Fatalf("batch size %d outside [%d,%d]", st.batch, minBatch, maxBatch)
	}
}

// failureFleet is heterogeneousFleet with a per-device failure probability.
func failureFleet(failProb float64) []qpu.Device {
	devs := heterogeneousFleet(0.05, 10)
	for i := range devs {
		devs[i].FailureProb = failProb
	}
	return devs
}

// TestFleetDeterministicWithFailuresAcrossWorkers pins that adaptive (and
// risk-aware) scheduling stays bit-reproducible per seed with FailureProb > 0
// regardless of worker count.
func TestFleetDeterministicWithFailuresAcrossWorkers(t *testing.T) {
	g := testGrid(t)
	for _, risk := range []bool{false, true} {
		type snapshot struct {
			makespan, serial float64
			retries, batches int
			sizes            string
		}
		var base *snapshot
		for _, workers := range []int{1, 4, 13} {
			s, err := New(Options{Seed: 42, Workers: workers, RiskAware: risk}, failureFleet(0.25)...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Run(context.Background(), g, allIndices(g))
			if err != nil {
				t.Fatalf("risk=%v workers=%d: %v", risk, workers, err)
			}
			if rep.Retries == 0 {
				t.Fatalf("risk=%v workers=%d: no retries at 25%% failure probability", risk, workers)
			}
			sizes := ""
			for _, ds := range s.States() {
				sizes += ds.Name + ":" + string(rune('0'+ds.BatchSize%10))
			}
			snap := &snapshot{rep.Makespan, rep.SerialTime, rep.Retries, len(rep.Batches), sizes}
			if base == nil {
				base = snap
			} else if *snap != *base {
				t.Fatalf("risk=%v workers=%d: run diverged: %+v vs %+v", risk, workers, snap, base)
			}
		}
	}
}

// TestRiskQuarantinesDropout pins the quarantine lifecycle under a
// permanently dark device: the run completes, the dark device is benched
// after a few failures, and the risk-aware makespan beats the tail-blind
// adaptive scheduler, which keeps paying full batch latencies to the dark
// device for the whole run.
func TestRiskQuarantinesDropout(t *testing.T) {
	g := testGrid(t)
	mk := func(risk bool) ([]qpu.Device, Options) {
		devs := heterogeneousFleet(0, 1)
		devs[1].Scenario = qpu.Dropout{Start: 0, Duration: 1e12}
		return devs, Options{Seed: 7, RiskAware: risk}
	}

	devs, opt := mk(true)
	s, err := New(opt, devs...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ReconstructStream(context.Background(), g, streamOpts(0.2, 5))
	if err != nil {
		t.Fatalf("risk-aware run under dropout: %v", err)
	}
	if res.Report.Retries == 0 {
		t.Fatal("no retries recorded under a dark device")
	}
	benched := 0
	for _, ev := range res.Quarantines {
		if ev.Benched() {
			benched++
			if ev.Name != "mid" {
				t.Fatalf("benched %q, want the dark device", ev.Name)
			}
		}
	}
	if benched == 0 {
		t.Fatal("dark device never quarantined")
	}
	states := res.DeviceStates
	if live := s.States(); !reflect.DeepEqual(live, states) {
		t.Fatalf("scheduler state %+v after the run, want the end-of-plan %+v", live, states)
	}
	if !states[1].Quarantined || states[1].Quarantines == 0 {
		t.Fatalf("dark device state not quarantined: %+v", states[1])
	}
	if states[1].Jobs != 0 {
		t.Fatalf("dark device completed %d jobs", states[1].Jobs)
	}

	devs, opt = mk(false)
	blind, err := New(opt, devs...)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := blind.ReconstructStream(context.Background(), g, streamOpts(0.2, 5))
	if err != nil {
		t.Fatalf("adaptive run under dropout: %v", err)
	}
	if res.Report.Makespan > bres.Report.Makespan {
		t.Fatalf("risk-aware makespan %g exceeds tail-blind %g under dropout",
			res.Report.Makespan, bres.Report.Makespan)
	}
}

// TestRiskProbeReadmission pins that a device recovering from a dropout
// window is re-probed and re-admitted: it carries jobs again after the
// window, and the event log shows bench followed by probe-succeeded.
func TestRiskProbeReadmission(t *testing.T) {
	g := testGrid(t)
	devs := heterogeneousFleet(0, 1)
	// Dark early, back well before the run can finish.
	devs[0].Scenario = qpu.Dropout{Start: 0, Duration: 800}
	s, err := New(Options{Seed: 11, RiskAware: true}, devs...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ReconstructStream(context.Background(), g, streamOpts(0.8, 3))
	if err != nil {
		t.Fatal(err)
	}
	var benchedAt, readmitAt float64 = -1, -1
	for _, ev := range res.Quarantines {
		if ev.Device != 0 {
			continue
		}
		if ev.Benched() && benchedAt < 0 {
			benchedAt = ev.Time
		}
		if !ev.Benched() {
			readmitAt = ev.Time
		}
	}
	if benchedAt < 0 {
		t.Fatal("dropout device never benched")
	}
	if readmitAt < 0 {
		t.Fatal("recovered device never re-admitted")
	}
	if readmitAt < 800 {
		t.Fatalf("re-admitted at %g while still dark (window ends at 800)", readmitAt)
	}
	if res.DeviceStates[0].Quarantined {
		t.Fatal("device still quarantined at end of run")
	}
	if res.DeviceStates[0].Jobs == 0 {
		t.Fatal("re-admitted device never carried jobs")
	}
}

// TestRiskCapBoundsTailExposure pins the cap formula on crafted state: a
// device with frequent large tails gets its batch capped, one with benign
// tails keeps its learned size.
func TestRiskCapBoundsTailExposure(t *testing.T) {
	s, err := New(Options{Seed: 1, RiskAware: true}, heterogeneousFleet(0, 1)...)
	if err != nil {
		t.Fatal(err)
	}
	s.meanBatch, s.meanSeen = 200, true
	st := &s.states[0]
	st.observed = true
	st.queueEst, st.execEst = 120, 1
	st.batch = 240

	// No tails observed: no cap.
	if got := s.riskCapLocked(0); got != math.MaxInt {
		t.Fatalf("cap without tail observations: %d", got)
	}
	// Isolated events below the evidence gate: still no cap.
	st.tailSeen, st.tailCount, st.tailProb, st.tailMag = true, 1, 0.4, 20
	if got := s.riskCapLocked(0); got != math.MaxInt {
		t.Fatalf("cap engaged on a single tail event: %d", got)
	}
	// Benign rare tails: exposure 0.05*19*(120+k) ≤ 6*200 → no cap bite.
	st.tailCount, st.tailProb, st.tailMag = 5, 0.05, 20
	if got := s.riskCapLocked(0); got < 240 {
		t.Fatalf("benign tails over-capped: %d", got)
	}
	// Frequent heavy tails: 0.5*19*(120+k) ≤ 1200 → k ≤ ~6 → floor minBatch.
	st.tailProb = 0.5
	got := s.riskCapLocked(0)
	if got >= 240 {
		t.Fatalf("heavy tails not capped: %d", got)
	}
	if got < minBatch {
		t.Fatalf("cap %d below minBatch", got)
	}
}

// TestRiskRetryStormSurvives pins that correlated retry storms (all devices
// share one storm scenario) are survived by both schedulers with every
// sample delivered, and the risk-aware scheduler does not lose to the
// tail-blind one.
func TestRiskRetryStormSurvives(t *testing.T) {
	g := testGrid(t)
	run := func(risk bool) *StreamResult {
		devs := heterogeneousFleet(0, 1)
		storm := qpu.NewRetryStorm(21, 300, 400, 0.9)
		for i := range devs {
			devs[i].Scenario = storm
		}
		s, err := New(Options{Seed: 13, RiskAware: risk}, devs...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.ReconstructStream(context.Background(), g, streamOpts(0.3, 5))
		if err != nil {
			t.Fatalf("risk=%v: %v", risk, err)
		}
		return res
	}
	riskRes := run(true)
	blindRes := run(false)
	if riskRes.Report.Retries == 0 || blindRes.Report.Retries == 0 {
		t.Fatalf("storm produced no retries (risk %d, blind %d)",
			riskRes.Report.Retries, blindRes.Report.Retries)
	}
	if len(riskRes.Report.Results) != len(blindRes.Report.Results) {
		t.Fatalf("sample counts diverge: %d vs %d",
			len(riskRes.Report.Results), len(blindRes.Report.Results))
	}
}

// streamOpts builds minimal reconstruction options for streaming tests.
func streamOpts(fraction float64, seed int64) core.Options {
	return core.Options{SamplingFraction: fraction, Seed: seed}
}

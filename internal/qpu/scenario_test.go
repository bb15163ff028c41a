package qpu

import "testing"

func baseCond() Condition {
	return Condition{
		Latency:     LatencyModel{QueueMedian: 30, Sigma: 0.5, Exec: 5},
		FailureProb: 0.01,
	}
}

func TestDriftRampsExec(t *testing.T) {
	d := Drift{Start: 100, Rate: 0.01, Max: 4}
	if got := d.At(50, baseCond()); got != baseCond() {
		t.Fatalf("drift before Start changed the condition: %+v", got)
	}
	got := d.At(200, baseCond())
	want := baseCond().Latency.Exec * 2 // 1 + 0.01*100
	if got.Latency.Exec != want {
		t.Fatalf("exec at t=200: got %g want %g", got.Latency.Exec, want)
	}
	if got.Latency.QueueMedian != baseCond().Latency.QueueMedian {
		t.Fatalf("drift touched queue median")
	}
	// Far into the drift the multiplier is capped at Max.
	got = d.At(1e6, baseCond())
	if want := baseCond().Latency.Exec * 4; got.Latency.Exec != want {
		t.Fatalf("capped exec: got %g want %g", got.Latency.Exec, want)
	}
}

func TestDropoutWindow(t *testing.T) {
	d := Dropout{Start: 100, Duration: 50}
	for _, tc := range []struct {
		t    float64
		down bool
	}{{0, false}, {99, false}, {100, true}, {149, true}, {150, false}, {1e4, false}} {
		if got := d.At(tc.t, baseCond()); got.Down != tc.down {
			t.Fatalf("dropout at t=%g: down=%v want %v", tc.t, got.Down, tc.down)
		}
	}
}

func TestQueueSpikesDeterministicAndOrderIndependent(t *testing.T) {
	// Two instances with the same seed agree at every time, even when one
	// is queried back to front (window materialization must not depend on
	// query order).
	a := NewQueueSpikes(7, 200, 50, 10)
	b := NewQueueSpikes(7, 200, 50, 10)
	times := make([]float64, 0, 200)
	for i := 0; i < 200; i++ {
		times = append(times, float64(i)*13.7)
	}
	spiked := 0
	for _, tt := range times {
		ca := a.At(tt, baseCond())
		if ca.Latency.QueueMedian > baseCond().Latency.QueueMedian {
			spiked++
		}
	}
	for i := len(times) - 1; i >= 0; i-- {
		ca := a.At(times[i], baseCond())
		cb := b.At(times[i], baseCond())
		if ca != cb {
			t.Fatalf("same-seed spikes disagree at t=%g: %+v vs %+v", times[i], ca, cb)
		}
	}
	if spiked == 0 || spiked == len(times) {
		t.Fatalf("spike windows degenerate: %d/%d samples spiked", spiked, len(times))
	}
}

func TestRetryStormRaisesFailureProb(t *testing.T) {
	s := NewRetryStorm(3, 100, 40, 0.8)
	inside, outside := 0, 0
	for i := 0; i < 400; i++ {
		c := s.At(float64(i)*7.3, baseCond())
		switch c.FailureProb {
		case 0.8:
			inside++
		case baseCond().FailureProb:
			outside++
		default:
			t.Fatalf("unexpected failure prob %g", c.FailureProb)
		}
	}
	if inside == 0 || outside == 0 {
		t.Fatalf("storm windows degenerate: %d inside, %d outside", inside, outside)
	}
	// A storm below the device's base rate leaves the base rate alone.
	weak := NewRetryStorm(3, 100, 40, 0.001)
	base := baseCond()
	for i := 0; i < 400; i++ {
		if c := weak.At(float64(i)*7.3, base); c.FailureProb != base.FailureProb {
			t.Fatalf("weak storm lowered failure prob to %g", c.FailureProb)
		}
	}
}

func TestComposeChainsScenarios(t *testing.T) {
	c := Compose(Drift{Start: 0, Rate: 0.01}, Dropout{Start: 100, Duration: 50})
	if got := c.Kind(); got != "drift+dropout" {
		t.Fatalf("composite kind %q", got)
	}
	cond := c.At(120, baseCond())
	if !cond.Down {
		t.Fatalf("composite dropped the dropout")
	}
	if cond.Latency.Exec <= baseCond().Latency.Exec {
		t.Fatalf("composite dropped the drift")
	}
}

func TestConditionAtWithoutScenario(t *testing.T) {
	d := Device{Latency: baseCond().Latency, FailureProb: 0.25}
	got := d.ConditionAt(123)
	if got.Latency != d.Latency || got.FailureProb != 0.25 || got.Down {
		t.Fatalf("bare ConditionAt mangled the base condition: %+v", got)
	}
}

func TestWindowsNonOverlapping(t *testing.T) {
	w := newWindows(9, 50, 20)
	// Force materialization far out, then check ordering invariants.
	w.in(1e5)
	prevEnd := 0.0
	for i, s := range w.starts {
		if s < prevEnd {
			t.Fatalf("window %d starts at %g before previous end %g", i, s, prevEnd)
		}
		prevEnd = s + w.duration
	}
	if len(w.starts) < 100 {
		t.Fatalf("expected many windows materialized, got %d", len(w.starts))
	}
}

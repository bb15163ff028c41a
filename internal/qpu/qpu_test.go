package qpu

import (
	"math/rand"
	"testing"
)

func TestLatencyModel(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	m := DefaultLatency()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	var sum float64
	n := 5000
	tails := 0
	for i := 0; i < n; i++ {
		l := m.Sample(rng)
		if l <= 0 {
			t.Fatalf("latency %g", l)
		}
		if l > 10*m.QueueMedian {
			tails++
		}
		sum += l
	}
	if tails == 0 {
		t.Fatal("no tail events in 5000 samples at 5% tail probability")
	}
	mean := sum / float64(n)
	if mean < m.QueueMedian {
		t.Fatalf("mean %g below median %g (lognormal + tail should exceed)", mean, m.QueueMedian)
	}
	bad := LatencyModel{QueueMedian: -1}
	if err := bad.Validate(); err == nil {
		t.Error("want error for negative median")
	}
	bad2 := LatencyModel{TailProb: 0.5, TailFactor: 0.5}
	if err := bad2.Validate(); err == nil {
		t.Error("want error for tail factor < 1")
	}
}

// TestEagerCutDropsTail cuts a hand-built report whose last tenth of jobs
// landed in a 30x latency tail.
func TestEagerCutDropsTail(t *testing.T) {
	rep := &RunReport{}
	for i := 0; i < 100; i++ {
		done := float64(10 * (i + 1))
		if i >= 90 {
			done *= 30
		}
		rep.Results = append(rep.Results, Result{Index: i, Done: done})
	}
	rep.Makespan = rep.Results[99].Done
	timeout := TimeoutForFraction(rep, 0.9)
	kept, saved := EagerCut(rep, timeout)
	if len(kept) != 90 {
		t.Fatalf("kept %d of 100 at q=0.9, want the 90 jobs before the tail", len(kept))
	}
	if saved != rep.Makespan-timeout || saved <= 0 {
		t.Fatalf("eager cut saved %g, want makespan %g - timeout %g", saved, rep.Makespan, timeout)
	}
	// Completion times of kept jobs all within timeout.
	for _, r := range kept {
		if r.Done > timeout {
			t.Fatal("kept a job past the timeout")
		}
	}
	// Full-fraction timeout equals makespan.
	if TimeoutForFraction(rep, 1) != rep.Makespan {
		t.Fatal("q=1 timeout should be the makespan")
	}
	if TimeoutForFraction(rep, 0) != 0 {
		t.Fatal("q=0 timeout should be 0")
	}
}

func TestSplitIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(162))
	idx := make([]int, 100)
	for i := range idx {
		idx[i] = i * 3
	}
	first, second, err := SplitIndices(idx, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 20 || len(second) != 80 {
		t.Fatalf("split %d/%d", len(first), len(second))
	}
	seen := map[int]bool{}
	for _, v := range append(first, second...) {
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 100 {
		t.Fatal("split lost indices")
	}
	if _, _, err := SplitIndices(idx, 1.5, rng); err == nil {
		t.Error("want error for bad fraction")
	}
}

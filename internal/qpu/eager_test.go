package qpu

import (
	"math"
	"math/rand"
	"testing"
)

// TestTimeoutForFractionEdges pins the quantile-timeout policy on its
// degenerate inputs: empty reports, q at and beyond both ends, and a report
// whose jobs all completed at the same instant.
func TestTimeoutForFractionEdges(t *testing.T) {
	empty := &RunReport{}
	if got := TimeoutForFraction(empty, 0.5); got != 0 {
		t.Errorf("empty report timeout = %g, want 0", got)
	}
	rep := &RunReport{
		Results: []Result{
			{Index: 0, Done: 10},
			{Index: 1, Done: 20},
			{Index: 2, Done: 30},
			{Index: 3, Done: 40},
		},
		Makespan: 40,
	}
	if got := TimeoutForFraction(rep, 0); got != 0 {
		t.Errorf("q=0 timeout = %g, want 0", got)
	}
	if got := TimeoutForFraction(rep, -0.5); got != 0 {
		t.Errorf("q<0 timeout = %g, want 0", got)
	}
	if got := TimeoutForFraction(rep, 1); got != rep.Makespan {
		t.Errorf("q=1 timeout = %g, want makespan %g", got, rep.Makespan)
	}
	if got := TimeoutForFraction(rep, 2); got != rep.Makespan {
		t.Errorf("q>1 timeout = %g, want makespan %g", got, rep.Makespan)
	}
	// Tiny q still keeps at least one job.
	if got := TimeoutForFraction(rep, 1e-9); got != 10 {
		t.Errorf("tiny q timeout = %g, want first completion 10", got)
	}
	if got := TimeoutForFraction(rep, 0.5); got != 20 {
		t.Errorf("q=0.5 timeout = %g, want 20", got)
	}

	// All-equal completion times: every quantile is that time, and the cut
	// keeps everything.
	flat := &RunReport{
		Results:  []Result{{Done: 7}, {Done: 7}, {Done: 7}},
		Makespan: 7,
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if got := TimeoutForFraction(flat, q); got != 7 {
			t.Errorf("flat q=%g timeout = %g, want 7", q, got)
		}
	}
	kept, saved := EagerCut(flat, TimeoutForFraction(flat, 0.5))
	if len(kept) != 3 {
		t.Errorf("flat cut kept %d of 3", len(kept))
	}
	if saved != 0 {
		t.Errorf("flat cut saved %g, want 0", saved)
	}
}

// TestEagerCutEdges pins EagerCut on empty reports and timeouts outside the
// completion range.
func TestEagerCutEdges(t *testing.T) {
	empty := &RunReport{}
	kept, saved := EagerCut(empty, 10)
	if len(kept) != 0 {
		t.Errorf("empty report kept %d jobs", len(kept))
	}
	if saved != 0 {
		t.Errorf("empty report saved %g, want 0 (makespan 0)", saved)
	}
	rep := &RunReport{
		Results:  []Result{{Done: 10}, {Done: 20}},
		Makespan: 20,
	}
	if kept, _ := EagerCut(rep, 0); len(kept) != 0 {
		t.Errorf("timeout 0 kept %d jobs", len(kept))
	}
	kept, saved = EagerCut(rep, 100)
	if len(kept) != 2 || saved != 0 {
		t.Errorf("timeout past makespan: kept %d saved %g, want 2 and 0", len(kept), saved)
	}
}

func TestBatchTimeoutForFraction(t *testing.T) {
	if got := BatchTimeoutForFraction(nil, 0.5); got != 0 {
		t.Errorf("no batches timeout = %g, want 0", got)
	}
	batches := []BatchGroup{
		{Size: 4, Done: 10},
		{Size: 4, Done: 20},
		{Size: 2, Done: 30},
	}
	if got := BatchTimeoutForFraction(batches, 0); got != 0 {
		t.Errorf("q=0 timeout = %g, want 0", got)
	}
	// 40% of 10 jobs = 4: the first group covers it.
	if got := BatchTimeoutForFraction(batches, 0.4); got != 10 {
		t.Errorf("q=0.4 timeout = %g, want 10", got)
	}
	// 50% needs 5 jobs: the cut moves to the second group's boundary.
	if got := BatchTimeoutForFraction(batches, 0.5); got != 20 {
		t.Errorf("q=0.5 timeout = %g, want 20", got)
	}
	if got := BatchTimeoutForFraction(batches, 1); got != 30 {
		t.Errorf("q=1 timeout = %g, want 30", got)
	}
	if got := BatchTimeoutForFraction(batches, 5); got != 30 {
		t.Errorf("q>1 timeout = %g, want last boundary 30", got)
	}
	// Unsorted input: the function orders by completion itself.
	shuffled := []BatchGroup{batches[2], batches[0], batches[1]}
	if got := BatchTimeoutForFraction(shuffled, 0.5); got != 20 {
		t.Errorf("unsorted q=0.5 timeout = %g, want 20", got)
	}
}

// TestSampleBatchParts checks the decomposition sums to the plain draw and
// that both components scale under a forced tail.
func TestSampleBatchParts(t *testing.T) {
	m := LatencyModel{QueueMedian: 30, Sigma: 0.4, Exec: 2, TailProb: 0.1, TailFactor: 20}
	r1 := rand.New(rand.NewSource(5))
	r2 := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		q, e := m.SampleBatchParts(r1, 8)
		if q <= 0 || e <= 0 {
			t.Fatalf("non-positive parts %g %g", q, e)
		}
		if lat := m.SampleBatch(r2, 8); math.Abs(lat-(q+e)) > 1e-12 {
			t.Fatalf("parts %g+%g != total %g", q, e, lat)
		}
	}
	// Certain tail: exec component must carry the tail factor too.
	sure := LatencyModel{QueueMedian: 1, Sigma: 0, Exec: 1, TailProb: 1, TailFactor: 10}
	_, e := sure.SampleBatchParts(rand.New(rand.NewSource(1)), 3)
	if e != 30 {
		t.Fatalf("tail-scaled exec %g, want 30", e)
	}
}

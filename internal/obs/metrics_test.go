package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-4, 2, 4)
	want := []float64{1e-4, 2e-4, 4e-4, 8e-4}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad ExpBuckets args should panic")
		}
	}()
	ExpBuckets(0, 2, 4)
}

func TestHistogramObserveAndRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "help text", map[string]string{"stage": "solve"}, []float64{1, 10})
	h.Observe(0.5)        // bucket le=1
	h.Observe(5)          // bucket le=10
	h.Observe(50)         // +Inf
	h.Observe(math.NaN()) // dropped
	counts, total, sum := h.snapshot()
	if total != 3 {
		t.Fatalf("total = %d, want 3", total)
	}
	if counts[0] != 1 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	if math.Abs(sum-55.5) > 1e-12 {
		t.Fatalf("sum = %g, want 55.5", sum)
	}
	fams := r.Families()
	if len(fams) != 1 || fams[0].Name != "test_seconds" {
		t.Fatalf("families = %+v", fams)
	}
	text := fams[0].Text
	for _, want := range []string{
		"# HELP test_seconds help text",
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{stage="solve",le="1"} 1`,
		`test_seconds_bucket{stage="solve",le="10"} 2`,
		`test_seconds_bucket{stage="solve",le="+Inf"} 3`,
		`test_seconds_sum{stage="solve"} 55.5`,
		`test_seconds_count{stage="solve"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("family text missing %q:\n%s", want, text)
		}
	}
}

func TestRegistryGetOrCreateAndSortedOutput(t *testing.T) {
	r := NewRegistry()
	h1 := r.Histogram("zz_seconds", "z", map[string]string{"stage": "b"}, []float64{1})
	h2 := r.Histogram("zz_seconds", "z", map[string]string{"stage": "b"}, []float64{1})
	if h1 != h2 {
		t.Fatal("same (name,labels) must return the same histogram")
	}
	r.Histogram("aa_seconds", "a", nil, []float64{1}).Observe(0.5)
	r.Histogram("zz_seconds", "z", map[string]string{"stage": "a"}, []float64{1})
	fams := r.Families()
	if len(fams) != 2 || fams[0].Name != "aa_seconds" || fams[1].Name != "zz_seconds" {
		t.Fatalf("families must sort by name: %+v", fams)
	}
	// Series within a family sort by label set.
	zz := fams[1].Text
	ia := strings.Index(zz, `stage="a"`)
	ib := strings.Index(zz, `stage="b"`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("series not sorted by labels:\n%s", zz)
	}
	// Unlabeled series render without empty braces.
	if strings.Contains(fams[0].Text, "{}") {
		t.Fatalf("empty label braces in output:\n%s", fams[0].Text)
	}
	if !strings.Contains(fams[0].Text, "aa_seconds_sum 0.5") {
		t.Fatalf("unlabeled sum missing:\n%s", fams[0].Text)
	}
}

func TestNilRegistryAndHistogram(t *testing.T) {
	var r *Registry
	h := r.Histogram("x", "h", nil, []float64{1})
	if h != nil {
		t.Fatal("nil registry should return nil histogram")
	}
	h.Observe(1) // must not panic
	if r.Families() != nil {
		t.Fatal("nil registry families should be nil")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram("c", "", ExpBuckets(1, 2, 10))
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%512) + 0.5)
			}
		}(w)
	}
	wg.Wait()
	_, total, sum := h.snapshot()
	if total != workers*per {
		t.Fatalf("total = %d, want %d", total, workers*per)
	}
	wantSum := 0.0
	for i := 0; i < per; i++ {
		wantSum += float64(i%512) + 0.5
	}
	wantSum *= workers
	if math.Abs(sum-wantSum)/wantSum > 1e-9 {
		t.Fatalf("sum = %g, want %g", sum, wantSum)
	}
}

func TestEscapeLabel(t *testing.T) {
	for in, want := range map[string]string{
		`a"b\c` + "\nd\x01e": `a\"b\\c\nd e`,
		"plain":              "plain",
		"a\tb":               "a b",
		"a\nb":               `a\nb`,
		`quo"te`:             `quo\"te`,
		`back\slash`:         `back\\slash`,
		"ctrl\x00\x7f":       "ctrl  ",
		"unicode-µ":          "unicode-µ",
	} {
		if got := EscapeLabel(in); got != want {
			t.Errorf("EscapeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram("b", "", DefaultWallBuckets())
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 0.001
		for pb.Next() {
			h.Observe(v)
			v *= 1.000001
		}
	})
}

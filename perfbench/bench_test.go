package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"repro/internal/landscape"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	// 1..1000: p99 is rank ceil(0.99*1000) = 990, with 10 samples above.
	if v, ok := percentile(seq(1000), 99, 10); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	// 1..200: p50 is rank 100.
	if v, ok := percentile(seq(200), 50, 10); !ok || v != 100 {
		t.Fatalf("p50 of 1..200 = %v, %v; want 100, true", v, ok)
	}
	// 1..2001: p99 is rank ceil(1980.99) = 1981.
	if v, ok := percentile(seq(2001), 99, 10); !ok || v != 1981 {
		t.Fatalf("p99 of 1..2001 = %v, %v; want 1981, true", v, ok)
	}
}

func TestP99OmittedWithFewerThanTenBeyond(t *testing.T) {
	// 1..999: p99 is rank 990 with only 9 samples above it.
	for _, n := range []int{0, 1, 9, 100, 999} {
		if v, ok := percentile(seq(n), 99, 10); ok {
			t.Errorf("p99 of %d samples reported as %v; want it omitted", n, v)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// testInterp fits a small surrogate like the ones query-lru serves.
func testInterp(t *testing.T) ([][]float64, *queryReply, *queryReply) {
	t.Helper()
	g, err := landscape.NewGrid(
		landscape.Axis{Name: "beta", Min: 0, Max: 4, N: 5},
		landscape.Axis{Name: "gamma", Min: 0, Max: 1.5, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float64, g.Size())
	for i := range data {
		data[i] = math.Sin(float64(i))
	}
	ip, err := fitArtifact(landscape.NewArtifact(&landscape.Landscape{Grid: g, Data: data}), 1)
	if err != nil {
		t.Fatal(err)
	}
	pts := [][]float64{{0.3, 0.2}, {2.5, 1.1}, {3.9, 0.7}}
	return pts, evalQuery(ip, pts, false), evalQuery(ip, pts, true)
}

func TestFlippedBitQueryFails(t *testing.T) {
	pts, plain, grad := testInterp(t)
	for _, tc := range []struct {
		name string
		r    *queryReply
		op   queryOp
		flip func(r *queryReply)
	}{
		{"value", plain, queryOp{}, func(r *queryReply) { r.Values[1] = math.Float64frombits(math.Float64bits(r.Values[1]) ^ 1) }},
		{"gradient", grad, queryOp{grad: true}, func(r *queryReply) {
			r.Gradients[2][1] = math.Float64frombits(math.Float64bits(r.Gradients[2][1]) ^ (1 << 40))
		}},
	} {
		want := tc.r.hash()
		if err := checkQuery(newServedQuery(tc.op, 0, 200, nil, tc.r), len(pts), want); err != nil {
			t.Fatalf("%s: exact answer rejected: %v", tc.name, err)
		}
		tc.flip(tc.r)
		if err := checkQuery(newServedQuery(tc.op, 0, 200, nil, tc.r), len(pts), want); err == nil {
			t.Errorf("%s: answer with one flipped bit passed the gate", tc.name)
		}
	}
	if err := checkQuery(newServedQuery(queryOp{grad: true}, 0, 200, nil, plain), len(pts), plain.hash()); err == nil {
		t.Error("gradient query answered without gradients passed the gate")
	}
}

func TestJobWithoutArtifactFails(t *testing.T) {
	body := `{"id":"j000001","state":"done","result":{"grid_size":5000,"samples":500,
		"min":-16.6,"max":-7.4,"cache_hits":0,"artifact_id":"ls-c47ce96411476a5b"}}`
	var r jobReply
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatal(err)
	}
	if err := svCold.checkJob(200, &r); err != nil {
		t.Fatalf("complete job rejected: %v", err)
	}
	r.Result.ArtifactID = ""
	if err := svCold.checkJob(200, &r); err == nil {
		t.Error("job without an artifact passed the gate")
	}
	r.Result.ArtifactID = "ls-c47ce96411476a5b"
	r.Result.CacheHits = 3
	if err := svCold.checkJob(200, &r); err == nil {
		t.Error("job served from the execution cache passed the gate")
	}
	var failed jobReply
	if err := json.Unmarshal([]byte(`{"id":"j2","state":"failed","error":"boom"}`), &failed); err != nil {
		t.Fatal(err)
	}
	if err := svCold.checkJob(422, &failed); err == nil {
		t.Error("failed job passed the gate")
	}
}

func TestOpListsAreSeeded(t *testing.T) {
	for _, w := range []*jobWorkload{svCold, fleetP2} {
		w1, a := w.jobOps(7, 50)
		w2, b := w.jobOps(7, 50)
		_, c := w.jobOps(8, 50)
		if string(w1.body) != string(w2.body) {
			t.Errorf("%s: warm-up differs for one seed", w.name)
		}
		seen := map[int64]bool{w1.spec.Problem.Seed: true}
		for i := range a {
			if string(a[i].body) != string(b[i].body) {
				t.Fatalf("%s: op %d differs for one seed", w.name, i)
			}
			if seen[a[i].spec.Problem.Seed] {
				t.Fatalf("%s: problem seed %d repeats, so the cache could hit", w.name, a[i].spec.Problem.Seed)
			}
			seen[a[i].spec.Problem.Seed] = true
		}
		if string(a[0].body) == string(c[0].body) {
			t.Errorf("%s: seeds 7 and 8 give the same first op", w.name)
		}
	}
}

// The per-layer metrics a traced run prints are exactly the ones
// BENCHMARK.json declares.
func TestPerLayerMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside perfbench")
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, m := range spec.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range perLayer {
		want = append(want, m.name+" "+m.unit)
	}
	if !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json per_layer = %v\nperfbench prints %v", got, want)
	}
}

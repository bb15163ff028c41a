package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRandom3Regular(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{4, 6, 8, 12, 16, 20} {
		g, err := Random3Regular(n, rng)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if g.N != n {
			t.Fatalf("n=%d: got N=%d", n, g.N)
		}
		if len(g.Edges) != 3*n/2 {
			t.Fatalf("n=%d: %d edges, want %d", n, len(g.Edges), 3*n/2)
		}
		for _, d := range g.Degree() {
			if d != 3 {
				t.Fatalf("n=%d: degree %d", n, d)
			}
		}
		seen := map[[2]int]bool{}
		for _, e := range g.Edges {
			if e.U >= e.V {
				t.Fatalf("edge not normalized: %v", e)
			}
			key := [2]int{e.U, e.V}
			if seen[key] {
				t.Fatalf("duplicate edge %v", e)
			}
			seen[key] = true
		}
	}
	if _, err := RandomRegular(5, 3, rng); err == nil {
		t.Error("want error for odd n*d")
	}
	if _, err := RandomRegular(4, 4, rng); err == nil {
		t.Error("want error for d >= n")
	}
	if _, err := RandomRegular(4, 0, rng); err == nil {
		t.Error("want error for d=0")
	}
}

func TestMesh(t *testing.T) {
	g, err := Mesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N != 12 {
		t.Fatalf("N=%d", g.N)
	}
	// rows*(cols-1) + (rows-1)*cols edges.
	want := 3*3 + 2*4
	if len(g.Edges) != want {
		t.Fatalf("%d edges, want %d", len(g.Edges), want)
	}
	if _, err := Mesh(0, 3); err == nil {
		t.Error("want error for empty mesh")
	}
}

func TestSK(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g, err := SK(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) != 15 {
		t.Fatalf("%d edges, want 15", len(g.Edges))
	}
	for _, e := range g.Edges {
		if e.Weight != 1 && e.Weight != -1 {
			t.Fatalf("weight %g not ±1", e.Weight)
		}
	}
	if _, err := SK(1, rng); err == nil {
		t.Error("want error for n=1")
	}
}

func TestRingAndComplete(t *testing.T) {
	r, err := Ring(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Edges) != 5 {
		t.Fatalf("ring edges %d", len(r.Edges))
	}
	for _, d := range r.Degree() {
		if d != 2 {
			t.Fatalf("ring degree %d", d)
		}
	}
	k, err := Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.Edges) != 6 {
		t.Fatalf("K4 edges %d", len(k.Edges))
	}
	if _, err := Ring(2); err == nil {
		t.Error("want error for tiny ring")
	}
	if _, err := Complete(1); err == nil {
		t.Error("want error for K1")
	}
}

func TestCutValue(t *testing.T) {
	g, _ := Ring(4)
	if c := g.CutValue([]int{0, 1, 0, 1}); c != 4 {
		t.Fatalf("alternating cut %g want 4", c)
	}
	if c := g.CutValue([]int{0, 0, 0, 0}); c != 0 {
		t.Fatalf("trivial cut %g want 0", c)
	}
}

func TestMaxCutBrute(t *testing.T) {
	g, _ := Ring(5)
	// Odd cycle: max cut = n-1 = 4.
	if c := g.MaxCutBrute(); c != 4 {
		t.Fatalf("C5 maxcut %g want 4", c)
	}
	k, _ := Complete(4)
	// K4 maxcut = 4 (2-2 split).
	if c := k.MaxCutBrute(); c != 4 {
		t.Fatalf("K4 maxcut %g want 4", c)
	}
}

// TestMaxCutUpperBound is a property test: the brute-force optimum never
// exceeds the total positive edge weight and is never negative for graphs
// with a nonnegative-cut option.
func TestMaxCutUpperBound(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(43))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + 2*rng.Intn(4)
		g, err := Random3Regular(n, rng)
		if err != nil {
			return false
		}
		best := g.MaxCutBrute()
		return best >= 0 && best <= float64(len(g.Edges))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

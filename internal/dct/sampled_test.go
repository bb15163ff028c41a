package dct

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sampledShapes mix dense and FFT-path axes, long (zero-skipping) and short
// dense axes, contiguous and strided, and degenerate axes in leading, middle
// and trailing position. The last two hold more than serialMinSize points,
// so their plans shard.
func sampledShapes() [][]int {
	return [][]int{{5000}, {50, 100}, {8, 8, 8, 8}, {1, 5000}, {50, 1, 100}, {3, 64, 40}, {500, 7}, {300}, {20, 30, 1},
		{100, 120}, {8, 8, 8, 8, 3}}
}

// sampledInputs returns the inputs the differential test feeds a length-n
// side of the operator: all zero, one nonzero, −0 entries around a few
// nonzeros, all −0, 22-sparse, and dense.
func sampledInputs(rng *rand.Rand, n int) map[string][]float64 {
	sparse := func(k int, fill float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = fill
		}
		for _, i := range rng.Perm(n)[:min(k, n)] {
			x[i] = rng.NormFloat64()
		}
		return x
	}
	negZero := math.Copysign(0, -1)
	return map[string][]float64{
		"zero":     make([]float64, n),
		"single":   sparse(1, 0),
		"negzero":  sparse(3, negZero),
		"allneg0":  sparse(0, negZero),
		"sparse22": sparse(22, 0),
		"dense":    randVec(rng, n),
	}
}

// TestSampledMatchesFullPlan pins Sampled to the full plan bit for bit, sign
// of zero included: Inverse against PlanND.Inverse then the gather, Forward
// against the scatter then PlanND.Forward, for sorted and unsorted samples
// at 1, 2, 3 and 8 workers.
func TestSampledMatchesFullPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, dims := range sampledShapes() {
		size := 1
		for _, d := range dims {
			size *= d
		}
		m := max(size/10, 1)
		sorted := rng.Perm(size)[:m]
		slices.Sort(sorted)
		unsorted := append([]int(nil), sorted...)
		rng.Shuffle(len(unsorted), func(i, j int) { unsorted[i], unsorted[j] = unsorted[j], unsorted[i] })
		coeffs := sampledInputs(rng, size)
		vals := sampledInputs(rng, m)
		for _, w := range []int{1, 2, 3, 8} {
			full := NewPlanNDWorkers(dims, w)
			for order, idx := range map[string][]int{"sorted": sorted, "unsorted": unsorted} {
				s := NewSampled(NewPlanNDWorkers(dims, w), idx)
				name := fmt.Sprintf("%s/w%d/%s", shapeName(dims), w, order)
				grid := make([]float64, size)
				for in, c := range coeffs {
					keep := append([]float64(nil), c...)
					got := make([]float64, m)
					s.Inverse(got, c)
					full.Inverse(grid, c)
					for j, gi := range idx {
						if math.Float64bits(got[j]) != math.Float64bits(grid[gi]) {
							t.Fatalf("%s: Inverse(%s)[%d] = %v, full plan %v", name, in, j, got[j], grid[gi])
						}
					}
					if !bitsEqual(c, keep) {
						t.Fatalf("%s: Inverse(%s) wrote its input", name, in)
					}
				}
				for in, v := range vals {
					keep := append([]float64(nil), v...)
					got := make([]float64, size)
					for i := range got {
						got[i] = math.NaN() // Forward must write every output
					}
					s.Forward(got, v)
					clear(grid)
					for j, gi := range idx {
						grid[gi] = v[j]
					}
					full.Forward(grid, grid)
					if i := firstBitDiff(got, grid); i >= 0 {
						t.Fatalf("%s: Forward(%s)[%d] = %v, full plan %v", name, in, i, got[i], grid[i])
					}
					if !bitsEqual(v, keep) {
						t.Fatalf("%s: Forward(%s) wrote its input", name, in)
					}
				}
			}
		}
	}
}

// TestSparseLine pins sparseLine to Plan.Inverse bit for bit, on lines that
// are +0, −0, zero but for one entry, 3/4 nonzero, just over 3/4 nonzero,
// and dense; lines with more than 3n/4 nonzeros must be left to matVec,
// untouched.
func TestSparseLine(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	negZero := math.Copysign(0, -1)
	for _, n := range []int{17, 50, 100} {
		p := newDensePlan(n)
		sparse := func(k int, fill float64) []float64 {
			x := make([]float64, n)
			for i := range x {
				x[i] = fill
			}
			for _, i := range rng.Perm(n)[:k] {
				x[i] = rng.NormFloat64()
			}
			return x
		}
		lines := []struct {
			name  string
			x     []float64
			dense bool
		}{
			{"zero", sparse(0, 0), false},
			{"allneg0", sparse(0, negZero), false},
			{"last", append(sparse(0, 0)[:n-1], 1.5), false},
			{"neg0+single", sparse(1, negZero), false},
			{"3/4", sparse(3*n/4, 0), false},
			{"3/4+1", sparse(3*n/4+1, 0), true},
			{"dense", randVec(rng, n), true},
		}
		for _, l := range lines {
			want := make([]float64, n)
			p.Inverse(want, l.x)
			row := append([]float64(nil), l.x...)
			if sparseLine(row, p, make([]int, n)) == l.dense {
				t.Fatalf("n=%d %s: sparseLine took the wrong kernel", n, l.name)
			}
			if l.dense {
				want = l.x
			}
			if i := firstBitDiff(row, want); i >= 0 {
				t.Fatalf("n=%d %s: sparseLine[%d] = %v, want %v", n, l.name, i, row[i], want[i])
			}
		}
	}
}

// TestSampledRejectsBadIndices: out-of-range and repeated sample indices
// panic at construction.
func TestSampledRejectsBadIndices(t *testing.T) {
	p := NewPlanND([]int{4, 5})
	for _, idx := range [][]int{{-1}, {20}, {3, 7, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSampled(%v) did not panic", idx)
				}
			}()
			NewSampled(p, idx)
		}()
	}
}

func bitsEqual(a, b []float64) bool { return firstBitDiff(a, b) < 0 }

// firstBitDiff returns the first index where a and b differ bitwise, or -1.
func firstBitDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestSerialTransformsDoNotAllocate runs every sampledShapes grid on a
// serial plan: full transforms and the sample-pruned pair must allocate
// nothing per call, since the solver runs hundreds of them per solve.
func TestSerialTransformsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, dims := range sampledShapes() {
		p := NewPlanNDWorkers(dims, 1)
		size := p.Size()
		idx := rng.Perm(size)[:max(1, size/5)]
		s := NewSampled(NewPlanNDWorkers(dims, 1), idx)
		grid, out := make([]float64, size), make([]float64, size)
		vals := make([]float64, len(idx))
		for i := range grid {
			grid[i] = rng.NormFloat64()
		}
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		for name, run := range map[string]func(){
			"PlanND.Forward":  func() { p.Forward(out, grid) },
			"PlanND.Inverse":  func() { p.Inverse(out, grid) },
			"Sampled.Forward": func() { s.Forward(out, vals) },
			"Sampled.Inverse": func() { s.Inverse(vals, grid) },
		} {
			if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
				t.Errorf("%s %s: %v allocations per call, want 0", shapeName(dims), name, allocs)
			}
		}
	}
}

package dct

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelLines returns length-n lines that probe the unrolled kernels'
// rounding and their all-zero skip: dense normals, normals with ±0 mixed
// in, subnormals (alone, among zeros and among normals, where products
// underflow to ±0 of either sign), all +0, all −0, mixed ±0, and one
// nonzero at each position among −0s.
func kernelLines(rng *rand.Rand, n int) [][]float64 {
	negZero := math.Copysign(0, -1)
	fill := func(f func(i int) float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = f(i)
		}
		return x
	}
	signedZero := func() float64 {
		if rng.Intn(2) == 0 {
			return negZero
		}
		return 0
	}
	subnormal := func() float64 {
		return float64(rng.Intn(9)-4) * math.SmallestNonzeroFloat64
	}
	lines := [][]float64{
		fill(func(int) float64 { return 0 }),
		fill(func(int) float64 { return negZero }),
		fill(func(int) float64 { return signedZero() }),
		fill(func(int) float64 { return subnormal() }),
		fill(func(i int) float64 {
			if i == n-1 {
				return -math.SmallestNonzeroFloat64
			}
			return negZero
		}),
	}
	for r := 0; r < 8; r++ {
		lines = append(lines,
			fill(func(int) float64 { return rng.NormFloat64() }),
			fill(func(int) float64 {
				if rng.Intn(2) == 0 {
					return signedZero()
				}
				return rng.NormFloat64()
			}),
			fill(func(int) float64 {
				if rng.Intn(3) == 0 {
					return subnormal()
				}
				return rng.NormFloat64() * 1e-300
			}))
	}
	for i := 0; i < n; i++ {
		lines = append(lines, fill(func(j int) float64 {
			if j == i {
				return rng.NormFloat64()
			}
			return negZero
		}))
	}
	return lines
}

// TestUnrolledKernelsMatchGeneric pins the 8-point kernels to matVec and
// matCols by Float64bits, for the forward and the inverse matrix: matVec8
// into a separate line and in place, and matCols8 on blocks whose columns
// are the probe lines, over a column range that leaves the block's other
// columns untouched.
func TestUnrolledKernelsMatchGeneric(t *testing.T) {
	const n = 8
	rng := rand.New(rand.NewSource(22))
	p := newDensePlan(n)
	lines := kernelLines(rng, n)
	for _, m := range []struct {
		name string
		m    []float64
	}{{"mat", p.mat}, {"matT", p.matT}} {
		for l, x := range lines {
			want, got := make([]float64, n), make([]float64, n)
			matVec(want, m.m, x)
			matVec8(got, m.m, x)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("%s line %d: matVec8[%d] = %v, matVec %v", m.name, l, i, got[i], want[i])
			}
			copy(got, x)
			matVec8(got, m.m, got)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("%s line %d: in-place matVec8[%d] = %v, matVec %v", m.name, l, i, got[i], want[i])
			}
		}
		for _, stride := range []int{1, 3, n, 64} {
			// Columns [c0, c1) of the block take the probe lines in turn;
			// the columns either side hold sentinels.
			c0, c1 := min(1, stride-1), stride-min(1, stride-1)
			for first := 0; first < len(lines); first += c1 - c0 {
				block := make([]float64, n*stride)
				for i := range block {
					block[i] = float64(i) + 0.5
				}
				for j := c0; j < c1; j++ {
					x := lines[(first+j-c0)%len(lines)]
					for i := 0; i < n; i++ {
						block[i*stride+j] = x[i]
					}
				}
				want, got := append([]float64(nil), block...), append([]float64(nil), block...)
				matCols(want, m.m, make([]float64, n*(c1-c0)), n, stride, c0, c1)
				matCols8(got, m.m, stride, c0, c1)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("%s stride %d columns [%d,%d) from line %d: matCols8[%d] = %v, matCols %v",
						m.name, stride, c0, c1, first, i, got[i], want[i])
				}
			}
		}
	}
}

// genericND applies the ND transform to x in place with the generic dense
// kernels only: the passes PlanND runs, from the last axis to the first,
// every axis on the dense path. A strided axis covers all its columns in
// one matCols call, whose output does not depend on the column split.
func genericND(x []float64, dims []int, forward bool) {
	stride := 1
	for k := len(dims) - 1; k >= 0; k-- {
		n := dims[k]
		if n > 1 {
			p := newDensePlan(n)
			m := p.mat
			if !forward {
				m = p.matT
			}
			if stride == 1 {
				line := make([]float64, n)
				for r := 0; r < len(x); r += n {
					copy(line, x[r:r+n])
					matVec(x[r:r+n], m, line)
				}
			} else {
				tmp := make([]float64, n*stride)
				for b := 0; b < len(x); b += n * stride {
					matCols(x[b:b+n*stride], m, tmp, n, stride, 0, stride)
				}
			}
		}
		stride *= n
	}
}

// TestUnrolledPlansMatchGeneric pins PlanND and Sampled on grids whose axes
// run the unrolled kernels, contiguous and strided, to the generic kernels
// bit for bit, at 1, 2 and 4 workers. Besides dense random grids, the inputs
// are a solver-like iterate (a few low-frequency coefficients, −0 and
// subnormals elsewhere, so most lines are all zero) and its transform.
func TestUnrolledPlansMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	negZero := math.Copysign(0, -1)
	for _, dims := range [][]int{{8, 8, 8, 8}, {6, 8, 12, 8}} {
		size := 1
		for _, d := range dims {
			size *= d
		}
		sparse := make([]float64, size)
		for i := range sparse {
			switch rng.Intn(40) {
			case 0:
				sparse[i] = negZero
			case 1:
				sparse[i] = math.SmallestNonzeroFloat64
			}
		}
		for _, i := range rng.Perm(size / 8)[:size/64] {
			sparse[i] = rng.NormFloat64()
		}
		spread := append([]float64(nil), sparse...)
		genericND(spread, dims, false)
		inputs := map[string][]float64{"dense": randVec(rng, size), "sparse": sparse, "spread": spread}
		idx := rng.Perm(size)[:size/5]
		for _, w := range []int{1, 2, 4} {
			p := NewPlanNDWorkers(dims, w)
			s := NewSampled(NewPlanNDWorkers(dims, w), idx)
			for in, x := range inputs {
				name := fmt.Sprintf("%s/w%d/%s", shapeName(dims), w, in)
				for _, forward := range []bool{true, false} {
					want := append([]float64(nil), x...)
					genericND(want, dims, forward)
					got := make([]float64, size)
					if forward {
						p.Forward(got, x)
					} else {
						p.Inverse(got, x)
					}
					if i := firstBitDiff(got, want); i >= 0 {
						t.Fatalf("%s forward=%v: PlanND[%d] = %v, generic %v", name, forward, i, got[i], want[i])
					}
				}
				out := make([]float64, len(idx))
				s.Inverse(out, x)
				want := append([]float64(nil), x...)
				genericND(want, dims, false)
				for j, gi := range idx {
					if math.Float64bits(out[j]) != math.Float64bits(want[gi]) {
						t.Fatalf("%s: Sampled.Inverse[%d] = %v, generic %v", name, j, out[j], want[gi])
					}
				}
				vals := x[:len(idx)]
				got := make([]float64, size)
				s.Forward(got, vals)
				clear(want)
				for j, gi := range idx {
					want[gi] = vals[j]
				}
				genericND(want, dims, true)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("%s: Sampled.Forward[%d] = %v, generic %v", name, i, got[i], want[i])
				}
			}
		}
	}
}

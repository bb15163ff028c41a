package cs

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// BenchmarkPartialDCT times one forward+adjoint pair of the measurement
// operator, the unit a FISTA iteration runs, on the full-grid path and on
// the pruned one, at the -cpu worker count: sv-cold's 50x100 grid with 500
// stratified samples and a 24-sparse iterate, and fleet-p2's 8^4 grid with
// 819 samples and a ~13%-dense iterate.
func BenchmarkPartialDCT(b *testing.B) {
	cases := []struct {
		dims    []int
		m, nnz  int
		sampler func(*rand.Rand, []int, int) ([]int, error)
	}{
		{[]int{50, 100}, 500, 24, func(rng *rand.Rand, dims []int, m int) ([]int, error) {
			return StratifiedIndices(rng, dims[0]*dims[1], m)
		}},
		{[]int{8, 8, 8, 8}, 819, 532, StratifiedIndicesND},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(1))
		idx, err := c.sampler(rng, c.dims, c.m)
		if err != nil {
			b.Fatal(err)
		}
		n := 1
		for _, d := range c.dims {
			n *= d
		}
		s := make([]float64, n)
		for _, i := range rng.Perm(n)[:c.nnz] {
			s[i] = rng.NormFloat64()
		}
		r := make([]float64, len(idx))
		for j := range r {
			r[j] = rng.NormFloat64()
		}
		as, atr := make([]float64, len(idx)), make([]float64, n)
		shape := make([]string, len(c.dims))
		for k, d := range c.dims {
			shape[k] = strconv.Itoa(d)
		}
		for _, path := range []struct {
			name   string
			pruned bool
		}{{"full", false}, {"pruned", true}} {
			op := newPartialDCT(c.dims, idx, 0, path.pruned)
			b.Run(fmt.Sprintf("%s/%s", strings.Join(shape, "x"), path.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					op.forward(as, s)
					op.adjoint(atr, r)
				}
			})
		}
	}
}

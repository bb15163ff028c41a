package dct

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// BenchmarkPlanND times one Forward+Inverse pair per op on both transform
// paths, at 1 and 2 workers: the solver's grids (50x100, 8^4, 10x10x12x12),
// query-lru's 32x64, and shapes either side of the dense-path cutoffs
// (128x128 past the power-of-two cutoff; 384x384 and 500x500 either side of
// the other-length one). NewPlanNDWorkers picks, per axis, whichever path
// useDense names.
func BenchmarkPlanND(b *testing.B) {
	shapes := [][]int{{50, 100}, {8, 8, 8, 8}, {10, 10, 12, 12}, {32, 64}, {128, 128}, {384, 384}, {500, 500}}
	paths := []struct {
		name  string
		dense func(int) bool
	}{{"fft", func(int) bool { return false }}, {"dense", func(int) bool { return true }}}
	for _, dims := range shapes {
		x := randND(rand.New(rand.NewSource(1)), dims)
		y := make([]float64, len(x))
		for _, path := range paths {
			for _, w := range []int{1, 2} {
				p := newPlanND(dims, w, path.dense)
				b.Run(fmt.Sprintf("%s/%s/w%d", shapeName(dims), path.name, w), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						p.Forward(y, x)
						p.Inverse(y, y)
					}
				})
			}
		}
	}
}

func shapeName(dims []int) string {
	s := make([]string, len(dims))
	for i, d := range dims {
		s[i] = strconv.Itoa(d)
	}
	return strings.Join(s, "x")
}

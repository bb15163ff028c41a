package interp

import (
	"math"
	"math/rand"
	"testing"
)

// hashFloats is an FNV-1a hash over the exact bit patterns of a float
// slice — one changed bit anywhere changes the hash.
func hashFloats(xs []float64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, x := range xs {
		b := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			h ^= (b >> (8 * i)) & 0xff
			h *= prime
		}
	}
	return h
}

// Golden Fit → AtPoints / GradientAtPoints outputs, captured while 2-axis
// fits still ran through the dedicated bicubic evaluator. Each fixture fits
// seeded normal data on evenly spaced knots and queries 512 seeded points,
// about half of them beyond the hull; the hashes cover the values and the
// flattened gradients and hold for every worker count.
var splineGoldens = []struct {
	name           string
	dims           []int
	seed           int64
	atHash, grHash uint64
}{
	{"32x64", []int{32, 64}, 61, 0x84b0c77d17bda6f8, 0x431f8b0499f8dc61},
	{"50x100", []int{50, 100}, 62, 0x53fed7366cabe340, 0x12749b944b4b9209},
	{"6x7x8x9", []int{6, 7, 8, 9}, 63, 0xa3dbbca0da9fbd62, 0x299781799855863d},
}

func TestFitGolden(t *testing.T) {
	for _, g := range splineGoldens {
		rng := rand.New(rand.NewSource(g.seed))
		axes := make([][]float64, len(g.dims))
		lo := make([]float64, len(g.dims))
		hi := make([]float64, len(g.dims))
		size := 1
		for k, n := range g.dims {
			lo[k], hi[k] = -float64(k+1), float64(k+2)
			axes[k] = knots(lo[k], hi[k], n)
			size *= n
		}
		data := make([]float64, size)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		pts := randomPoints(rng, 512, len(g.dims), lo, hi)
		ip, err := Fit(axes, data)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			ip.(*NDSpline).SetWorkers(workers)
			vals := make([]float64, len(pts))
			if err := ip.AtPoints(vals, pts); err != nil {
				t.Fatal(err)
			}
			grads := make([][]float64, len(pts))
			for i := range grads {
				grads[i] = make([]float64, len(g.dims))
			}
			if err := ip.GradientAtPoints(grads, pts); err != nil {
				t.Fatal(err)
			}
			var flat []float64
			for _, gr := range grads {
				flat = append(flat, gr...)
			}
			if h := hashFloats(vals); h != g.atHash {
				t.Errorf("%s workers=%d: AtPoints hash %#016x, want %#016x", g.name, workers, h, g.atHash)
			}
			if h := hashFloats(flat); h != g.grHash {
				t.Errorf("%s workers=%d: GradientAtPoints hash %#016x, want %#016x", g.name, workers, h, g.grHash)
			}
		}
	}
}

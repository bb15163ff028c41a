package interp

import (
	"compress/gzip"
	"encoding/gob"
	"math"
	"math/rand"
	"os"
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

// Golden Fit → AtPoints / GradientAtPoints outputs of the table-based
// evaluator with analytic gradients. Each fixture fits seeded normal data on
// evenly spaced knots and queries 512 seeded points, about half of them
// beyond the hull; the hashes cover the values and the flattened gradients
// and hold for every worker count.
var splineGoldens = []struct {
	name           string
	dims           []int
	seed           int64
	atHash, grHash uint64
}{
	{"32x64", []int{32, 64}, 61, 0x7ac878dad8519db2, 0x83a4435d67fbb30e},
	{"50x100", []int{50, 100}, 62, 0xf8536338995647f8, 0xa37ef870d9c07d4a},
	{"6x7x8x9", []int{6, 7, 8, 9}, 63, 0x1f5ef3d9967f9229, 0x58cc529795ed7dd1},
}

// goldenFixture fits a golden fixture's spline and draws its query points,
// with the per-axis hull bounds.
func goldenFixture(t *testing.T, dims []int, seed int64) (ip Interpolator, pts [][]float64, lo, hi []float64) {
	rng := rand.New(rand.NewSource(seed))
	axes := make([][]float64, len(dims))
	lo = make([]float64, len(dims))
	hi = make([]float64, len(dims))
	size := 1
	for k, n := range dims {
		lo[k], hi[k] = -float64(k+1), float64(k+2)
		axes[k] = knots(lo[k], hi[k], n)
		size *= n
	}
	data := make([]float64, size)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	pts = randomPoints(rng, 512, len(dims), lo, hi)
	ip, err := Fit(axes, data)
	if err != nil {
		t.Fatal(err)
	}
	return ip, pts, lo, hi
}

func TestFitGolden(t *testing.T) {
	for _, g := range splineGoldens {
		ip, pts, _, _ := goldenFixture(t, g.dims, g.seed)
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

// TestFitGoldenMatchesCollapse bounds the golden values against the
// AtPoints output of the previous evaluator, which collapsed the grid one
// axis at a time with a fresh cross-spline fit per line. testdata holds
// those values per fixture; in exact arithmetic both are the same
// interpolant.
func TestFitGoldenMatchesCollapse(t *testing.T) {
	f, err := os.Open("testdata/fitgolden_collapse.gob.gz")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var ref map[string][]float64
	if err := gob.NewDecoder(zr).Decode(&ref); err != nil {
		t.Fatal(err)
	}
	for _, g := range splineGoldens {
		ip, pts, _, _ := goldenFixture(t, g.dims, g.seed)
		vals := make([]float64, len(pts))
		if err := ip.AtPoints(vals, pts); err != nil {
			t.Fatal(err)
		}
		want := ref[g.name]
		if len(want) != len(vals) {
			t.Fatalf("%s: fixture holds %d values, want %d", g.name, len(want), len(vals))
		}
		worst := 0.0
		for i := range vals {
			worst = math.Max(worst, math.Abs(vals[i]-want[i]))
		}
		t.Logf("%s: max |table - collapse| = %g", g.name, worst)
		if !(worst <= 1e-14) {
			t.Errorf("%s: values differ from the collapse evaluator by up to %g, want <= 1e-14", g.name, worst)
		}
	}
}

// TestFitGoldenGradients checks the analytic gradients on the golden
// fixtures: within 1e-6 of a ±1e-6 central difference of AtPoints along
// every axis where the point lies inside the hull, and exactly zero along
// every axis where it lies outside.
func TestFitGoldenGradients(t *testing.T) {
	const h = 1e-6
	for _, g := range splineGoldens {
		ip, pts, lo, hi := goldenFixture(t, g.dims, g.seed)
		for i, p := range pts {
			gr := ip.GradientAt(p)
			for k, x := range p {
				switch {
				case x < lo[k] || x > hi[k]:
					if gr[k] != 0 || math.Signbit(gr[k]) {
						t.Fatalf("%s point %d: gradient[%d] = %g outside the hull, want 0", g.name, i, k, gr[k])
					}
				case x-h > lo[k] && x+h < hi[k]:
					q := append([]float64(nil), p...)
					q[k] = x + h
					up := ip.AtPoint(q)
					q[k] = x - h
					fd := (up - ip.AtPoint(q)) / (2 * h)
					if math.Abs(gr[k]-fd) > 1e-6 {
						t.Fatalf("%s point %d: gradient[%d] = %.12g, central difference %.12g", g.name, i, k, gr[k], fd)
					}
				}
			}
		}
	}
}

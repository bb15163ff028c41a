package landscape

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustGrid(t *testing.T, axes ...Axis) *Grid {
	t.Helper()
	g, err := NewGrid(axes...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestAxisValues(t *testing.T) {
	a := Axis{Name: "beta", Min: -1, Max: 1, N: 5}
	v := a.Values()
	want := []float64{-1, -0.5, 0, 0.5, 1}
	for i := range v {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Fatalf("v[%d]=%g want %g", i, v[i], want[i])
		}
	}
	if math.Abs(a.Step()-0.5) > 1e-12 {
		t.Fatalf("step %g", a.Step())
	}
}

func TestGridIndexRoundTrip(t *testing.T) {
	g := mustGrid(t,
		Axis{Name: "a", Min: 0, Max: 1, N: 3},
		Axis{Name: "b", Min: 0, Max: 1, N: 4},
		Axis{Name: "c", Min: 0, Max: 1, N: 5},
	)
	if g.Size() != 60 {
		t.Fatalf("size %d", g.Size())
	}
	// Last axis fastest.
	if g.Index(0, 0, 1) != 1 {
		t.Fatalf("Index(0,0,1)=%d", g.Index(0, 0, 1))
	}
	if g.Index(1, 0, 0) != 20 {
		t.Fatalf("Index(1,0,0)=%d", g.Index(1, 0, 0))
	}
	// Point of flat index 27 = (1, 1, 2).
	p := g.Point(27)
	if math.Abs(p[0]-0.5) > 1e-12 || math.Abs(p[1]-1.0/3) > 1e-12 || math.Abs(p[2]-0.5) > 1e-12 {
		t.Fatalf("Point(27)=%v", p)
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(); err == nil {
		t.Error("want error for no axes")
	}
	if _, err := NewGrid(Axis{Name: "x", Min: 0, Max: 1, N: 1}); err == nil {
		t.Error("want error for N=1")
	}
	if _, err := NewGrid(Axis{Name: "x", Min: 1, Max: 0, N: 5}); err == nil {
		t.Error("want error for inverted range")
	}
	huge := Axis{Name: "x", Min: 0, Max: 1, N: 1 << 32}
	if _, err := NewGrid(huge, huge); err == nil {
		t.Error("want error for a point count that overflows int")
	}
}

func TestGenerate(t *testing.T) {
	g := mustGrid(t,
		Axis{Name: "x", Min: 0, Max: 1, N: 11},
		Axis{Name: "y", Min: 0, Max: 2, N: 21},
	)
	f := func(p []float64) (float64, error) { return p[0] + 10*p[1], nil }
	l, err := Generate(g, f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.At(5, 10); math.Abs(got-(0.5+10)) > 1e-12 {
		t.Fatalf("At(5,10)=%g", got)
	}
	minV, argmin := l.Min()
	if math.Abs(minV) > 1e-12 || argmin != 0 {
		t.Fatalf("min %g at %d", minV, argmin)
	}
	maxV, argmax := l.Max()
	if math.Abs(maxV-21) > 1e-12 || argmax != g.Size()-1 {
		t.Fatalf("max %g at %d", maxV, argmax)
	}
}

// TestMinMaxNaNTolerant is the regression test for NaN extrema: NaN entries
// used to poison the scan (every comparison false), returning arg=-1 with
// ±Inf so callers indexing the result panicked.
func TestMinMaxNaNTolerant(t *testing.T) {
	g := mustGrid(t, Axis{Name: "x", Min: 0, Max: 1, N: 2}, Axis{Name: "y", Min: 0, Max: 1, N: 3})
	l := New(g)
	copy(l.Data, []float64{math.NaN(), 3, -2, math.NaN(), 7, math.NaN()})

	minV, argmin := l.Min()
	if minV != -2 || argmin != 2 {
		t.Fatalf("Min = %g at %d, want -2 at 2", minV, argmin)
	}
	maxV, argmax := l.Max()
	if maxV != 7 || argmax != 4 {
		t.Fatalf("Max = %g at %d, want 7 at 4", maxV, argmax)
	}

	// NaN in the first position must not capture the extremum.
	l2 := New(g)
	copy(l2.Data, []float64{math.NaN(), 1, 2, 3, 4, 5})
	if v, i := l2.Min(); v != 1 || i != 1 {
		t.Fatalf("Min with leading NaN = %g at %d", v, i)
	}

	// ±Inf are legitimate values, not holes.
	l3 := New(g)
	copy(l3.Data, []float64{math.Inf(1), 1, 2, 3, 4, math.Inf(-1)})
	if v, i := l3.Min(); !math.IsInf(v, -1) || i != 5 {
		t.Fatalf("Min with -Inf = %g at %d", v, i)
	}
	if v, i := l3.Max(); !math.IsInf(v, 1) || i != 0 {
		t.Fatalf("Max with +Inf = %g at %d", v, i)
	}
}

func TestMinMaxAllNaNSentinel(t *testing.T) {
	g := mustGrid(t, Axis{Name: "x", Min: 0, Max: 1, N: 2}, Axis{Name: "y", Min: 0, Max: 1, N: 2})
	l := New(g)
	for i := range l.Data {
		l.Data[i] = math.NaN()
	}
	if v, i := l.Min(); !math.IsNaN(v) || i != -1 {
		t.Fatalf("all-NaN Min = %g at %d, want NaN at -1", v, i)
	}
	if v, i := l.Max(); !math.IsNaN(v) || i != -1 {
		t.Fatalf("all-NaN Max = %g at %d, want NaN at -1", v, i)
	}
	empty := &Landscape{Grid: g}
	if v, i := empty.Min(); !math.IsNaN(v) || i != -1 {
		t.Fatalf("empty Min = %g at %d, want NaN at -1", v, i)
	}
}

func TestGenerateError(t *testing.T) {
	g := mustGrid(t, Axis{Name: "x", Min: 0, Max: 1, N: 4}, Axis{Name: "y", Min: 0, Max: 1, N: 4})
	sentinel := errors.New("boom")
	_, err := Generate(g, func(p []float64) (float64, error) { return 0, sentinel }, 2)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err=%v", err)
	}
}

func TestSampleMatchesGenerate(t *testing.T) {
	g := mustGrid(t, Axis{Name: "x", Min: -1, Max: 1, N: 9}, Axis{Name: "y", Min: -1, Max: 1, N: 7})
	f := func(p []float64) (float64, error) { return math.Sin(p[0]) * math.Cos(p[1]), nil }
	full, err := Generate(g, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{0, 5, 17, 62}
	vals, err := Sample(g, f, idx, 2)
	if err != nil {
		t.Fatal(err)
	}
	for j, i := range idx {
		if math.Abs(vals[j]-full.Data[i]) > 1e-12 {
			t.Fatalf("sample[%d]=%g want %g", j, vals[j], full.Data[i])
		}
	}
}

func TestNRMSE(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	y := append([]float64(nil), x...)
	v, err := NRMSE(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("NRMSE of identical landscapes %g", v)
	}
	// Shift y by the IQR: NRMSE should equal 1.
	q1, q3 := quartiles(x)
	iqr := q3 - q1
	for i := range y {
		y[i] = x[i] + iqr
	}
	v, err = NRMSE(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-12 {
		t.Fatalf("NRMSE %g want 1", v)
	}
	if _, err := NRMSE(x, y[:3]); err == nil {
		t.Error("want error for length mismatch")
	}
	if _, err := NRMSE(nil, nil); err == nil {
		t.Error("want error for empty input")
	}
}

func TestNRMSEConstantLandscape(t *testing.T) {
	x := []float64{2, 2, 2, 2}
	if v, _ := NRMSE(x, x); v != 0 {
		t.Fatalf("NRMSE %g want 0", v)
	}
	y := []float64{2, 2, 2, 3}
	if v, _ := NRMSE(x, y); !math.IsInf(v, 1) {
		t.Fatalf("NRMSE %g want +Inf for zero IQR with error", v)
	}
}

// TestNRMSEScaleInvariance is the property the paper chose NRMSE for: the
// metric is invariant under affine rescaling of both landscapes.
func TestNRMSEScaleInvariance(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(91))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = x[i] + 0.1*rng.NormFloat64()
		}
		v1, err1 := NRMSE(x, y)
		scale := 1 + 10*rng.Float64()
		shift := rng.NormFloat64() * 5
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range x {
			xs[i] = scale*x[i] + shift
			ys[i] = scale*y[i] + shift
		}
		v2, err2 := NRMSE(xs, ys)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(v1-v2) < 1e-9*(1+v1)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsOnKnownLandscapes(t *testing.T) {
	g := mustGrid(t, Axis{Name: "x", Min: 0, Max: 1, N: 10}, Axis{Name: "y", Min: 0, Max: 1, N: 10})
	flat := New(g)
	for i := range flat.Data {
		flat.Data[i] = 3
	}
	if SecondDerivative(flat) != 0 || VarianceOfGradient(flat) != 0 || Variance(flat) != 0 {
		t.Fatal("constant landscape should have zero metrics")
	}

	// A linear ramp has zero second derivative and zero gradient variance
	// but nonzero variance.
	ramp := New(g)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			ramp.Data[i*10+j] = float64(i) + float64(j)
		}
	}
	if d2 := SecondDerivative(ramp); math.Abs(d2) > 1e-12 {
		t.Fatalf("ramp D2=%g", d2)
	}
	if vg := VarianceOfGradient(ramp); math.Abs(vg) > 1e-12 {
		t.Fatalf("ramp VoG=%g", vg)
	}
	if Variance(ramp) <= 0 {
		t.Fatal("ramp variance should be positive")
	}

	// A jagged alternating landscape has large D2.
	jag := New(g)
	for i := range jag.Data {
		if i%2 == 0 {
			jag.Data[i] = 1
		} else {
			jag.Data[i] = -1
		}
	}
	if SecondDerivative(jag) <= SecondDerivative(ramp) {
		t.Fatal("jagged landscape should be rougher than ramp")
	}
}

func TestDCTEnergyFractionSparseSignal(t *testing.T) {
	g := mustGrid(t, Axis{Name: "x", Min: 0, Max: 1, N: 20}, Axis{Name: "y", Min: 0, Max: 1, N: 20})
	l := New(g)
	// One pure 2-D cosine mode: energy fraction should be 1/(n-1).
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			l.Data[i*20+j] = math.Cos(math.Pi * (2*float64(i) + 1) * 3 / 40)
		}
	}
	frac, err := DCTEnergyFraction(l, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if frac > 2.0/400 {
		t.Fatalf("pure mode energy fraction %g too large", frac)
	}
	if _, err := DCTEnergyFraction(l, 0); err == nil {
		t.Error("want error for zero energy fraction")
	}
	if _, err := DCTEnergyFraction(l, 1.5); err == nil {
		t.Error("want error for >1 energy fraction")
	}
}

func TestDCTEnergyFractionNoisySignalIsDenser(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g := mustGrid(t, Axis{Name: "x", Min: 0, Max: 1, N: 16}, Axis{Name: "y", Min: 0, Max: 1, N: 16})
	smooth := New(g)
	noisy := New(g)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			v := math.Sin(float64(i)/4) * math.Cos(float64(j)/4)
			smooth.Data[i*16+j] = v
			noisy.Data[i*16+j] = v + 0.5*rng.NormFloat64()
		}
	}
	fs, _ := DCTEnergyFraction(smooth, 0.99)
	fn, _ := DCTEnergyFraction(noisy, 0.99)
	if fn <= fs {
		t.Fatalf("noisy fraction %g should exceed smooth %g", fn, fs)
	}
}

func TestClone(t *testing.T) {
	g := mustGrid(t, Axis{Name: "x", Min: 0, Max: 1, N: 3}, Axis{Name: "y", Min: 0, Max: 1, N: 3})
	l := New(g)
	l.Data[4] = 7
	c := l.Clone()
	c.Data[4] = 9
	if l.Data[4] != 7 {
		t.Fatal("clone aliased data")
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	if _, err := LoadArtifact(strings.NewReader("not json")); err == nil {
		t.Error("want error for bad json")
	}
	if _, err := LoadArtifact(strings.NewReader(`{"axes":[{"Name":"x","Min":0,"Max":1,"N":4}],"data":[1,2]}`)); err == nil {
		t.Error("want error for shape mismatch")
	}
	if _, err := LoadArtifact(strings.NewReader(`{"axes":[],"data":[]}`)); err == nil {
		t.Error("want error for no axes")
	}
}

package dct

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// dftDirect computes a reference O(n^2) DFT.
func dftDirect(a []complex128, inv bool) []complex128 {
	n := len(a)
	out := make([]complex128, n)
	sign := -1.0
	if inv {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var s complex128
		for j := 0; j < n; j++ {
			theta := sign * 2 * math.Pi * float64(k) * float64(j) / float64(n)
			s += a[j] * cmplx.Exp(complex(0, theta))
		}
		if inv {
			s /= complex(float64(n), 0)
		}
		out[k] = s
	}
	return out
}

func TestFFTMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 15, 16, 50, 100, 144, 225, 256} {
		p := newFFTPlan(n)
		a := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := dftDirect(a, false)
		got := append([]complex128(nil), a...)
		p.Forward(got)
		for i := range got {
			if cmplx.Abs(got[i]-want[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: FFT[%d]=%v want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 3, 8, 15, 50, 99, 128, 225} {
		p := newFFTPlan(n)
		a := make([]complex128, n)
		for i := range a {
			a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		b := append([]complex128(nil), a...)
		p.Forward(b)
		p.Inverse(b)
		for i := range a {
			if cmplx.Abs(a[i]-b[i]) > 1e-9*float64(n) {
				t.Fatalf("n=%d: roundtrip[%d]=%v want %v", n, i, b[i], a[i])
			}
		}
	}
}

func TestDCTMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 3, 7, 12, 15, 50, 100, 225} {
		p := NewPlan(n)
		x := randVec(rng, n)
		want := ForwardDirect(x)
		got := make([]float64, n)
		p.Forward(got, x)
		for i := range got {
			if !approxEq(got[i], want[i], 1e-9*float64(n)) {
				t.Fatalf("n=%d: DCT[%d]=%g want %g", n, i, got[i], want[i])
			}
		}
		back := make([]float64, n)
		p.Inverse(back, got)
		for i := range back {
			if !approxEq(back[i], x[i], 1e-9*float64(n)) {
				t.Fatalf("n=%d: IDCT roundtrip[%d]=%g want %g", n, i, back[i], x[i])
			}
		}
	}
}

func TestDCTInverseMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{2, 5, 12, 50} {
		p := NewPlan(n)
		y := randVec(rng, n)
		want := InverseDirect(y)
		got := make([]float64, n)
		p.Inverse(got, y)
		for i := range got {
			if !approxEq(got[i], want[i], 1e-9*float64(n)) {
				t.Fatalf("n=%d: IDCT[%d]=%g want %g", n, i, got[i], want[i])
			}
		}
	}
}

// TestDCTIsometry checks the Parseval property of the orthonormal DCT, which
// the CS solver relies on for its unit step size.
func TestDCTIsometry(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(5))}
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 300 {
			raw = raw[:300]
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e8 {
				raw[i] = float64(i%17) - 8
			}
		}
		p := NewPlan(len(raw))
		out := make([]float64, len(raw))
		p.Forward(out, raw)
		var n1, n2 float64
		for i := range raw {
			n1 += raw[i] * raw[i]
			n2 += out[i] * out[i]
		}
		return math.Abs(n1-n2) <= 1e-8*(1+n1)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDCTLinearity is a property test: DCT(a*x + b*y) == a*DCT(x) + b*DCT(y).
func TestDCTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := NewPlan(40)
	for trial := 0; trial < 25; trial++ {
		x := randVec(rng, 40)
		y := randVec(rng, 40)
		a, b := rng.NormFloat64(), rng.NormFloat64()
		mix := make([]float64, 40)
		for i := range mix {
			mix[i] = a*x[i] + b*y[i]
		}
		fx, fy, fm := make([]float64, 40), make([]float64, 40), make([]float64, 40)
		p.Forward(fx, x)
		p.Forward(fy, y)
		p.Forward(fm, mix)
		for i := range fm {
			want := a*fx[i] + b*fy[i]
			if !approxEq(fm[i], want, 1e-9) {
				t.Fatalf("linearity violated at %d: %g want %g", i, fm[i], want)
			}
		}
	}
}

func TestDCTConstantSignal(t *testing.T) {
	n := 64
	p := NewPlan(n)
	x := make([]float64, n)
	for i := range x {
		x[i] = 3.5
	}
	out := make([]float64, n)
	p.Forward(out, x)
	if !approxEq(out[0], 3.5*math.Sqrt(float64(n)), 1e-9) {
		t.Errorf("DC coefficient = %g, want %g", out[0], 3.5*math.Sqrt(float64(n)))
	}
	for k := 1; k < n; k++ {
		if !approxEq(out[k], 0, 1e-9) {
			t.Errorf("AC coefficient %d = %g, want 0", k, out[k])
		}
	}
}

// TestDCTPureCosine checks that a single cosine mode concentrates all energy
// in one coefficient — the sparsity premise of OSCAR.
func TestDCTPureCosine(t *testing.T) {
	n := 100
	p := NewPlan(n)
	for _, mode := range []int{1, 3, 17, 49} {
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Cos(math.Pi * (2*float64(i) + 1) * float64(mode) / (2 * float64(n)))
		}
		out := make([]float64, n)
		p.Forward(out, x)
		for k := range out {
			if k == mode {
				if math.Abs(out[k]) < 1 {
					t.Errorf("mode %d: coefficient too small: %g", mode, out[k])
				}
				continue
			}
			if !approxEq(out[k], 0, 1e-9) {
				t.Errorf("mode %d: leakage at %d: %g", mode, k, out[k])
			}
		}
	}
}

func TestPlanPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for size 0")
		}
	}()
	NewPlan(0)
}

func BenchmarkDCTFFT1024(b *testing.B) {
	p := NewPlan(1024)
	x := randVec(rand.New(rand.NewSource(1)), 1024)
	out := make([]float64, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(out, x)
	}
}

func BenchmarkDCTDirect1024(b *testing.B) {
	x := randVec(rand.New(rand.NewSource(1)), 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForwardDirect(x)
	}
}

// TestKernelName checks that KernelName, which oscard logs at start-up,
// names one of the dense-axis kernels.
func TestKernelName(t *testing.T) {
	switch name := KernelName(); name {
	case "AVX-512", "AVX", "portable Go loop":
		t.Logf("dense-axis kernels: %s", name)
	default:
		t.Fatalf("KernelName() = %q, not a dense-axis kernel", name)
	}
}

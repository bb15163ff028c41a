package qsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/pauli"
)

func TestDensityMatchesStateVector(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		n := 1 + rng.Intn(4)
		c := randomCircuit(n, 20, rng)
		sv, err := Run(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		dm, err := RunDensity(c, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(dm.Trace(), 1, 1e-9) {
			t.Fatalf("trace %g", dm.Trace())
		}
		// Compare expectations of a few observables.
		obs := []pauli.String{
			pauli.SingleZ(n, 0),
			pauli.Identity(n),
		}
		if n > 1 {
			obs = append(obs, pauli.ZZ(n, 0, n-1))
		}
		obs = append(obs, randomPauli(n, rng))
		for _, p := range obs {
			want, err := sv.ExpectationPauli(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dm.ExpectationPauli(p)
			if err != nil {
				t.Fatal(err)
			}
			if !approx(got, want, 1e-8) {
				t.Fatalf("n=%d %s: dm %g vs sv %g", n, p, got, want)
			}
		}
		// Probabilities should match too.
		pd := dm.Probabilities()
		ps := sv.Probabilities()
		for i := range pd {
			if !approx(pd[i], ps[i], 1e-9) {
				t.Fatalf("prob[%d] %g vs %g", i, pd[i], ps[i])
			}
		}
	}
}

func randomPauli(n int, rng *rand.Rand) pauli.String {
	ops := []byte{'I', 'X', 'Y', 'Z'}
	b := make([]byte, n)
	for i := range b {
		b[i] = ops[rng.Intn(4)]
	}
	return pauli.MustString(string(b))
}

func TestDepolarize1QDampsZ(t *testing.T) {
	for _, p := range []float64{0, 0.1, 0.5, 0.75} {
		d := NewDensityMatrix(1)
		if err := d.Depolarize1Q(0, p); err != nil {
			t.Fatal(err)
		}
		z, _ := d.ExpectationPauli(pauli.MustString("Z"))
		want := 1 - 4*p/3
		if !approx(z, want, 1e-9) {
			t.Fatalf("p=%g: <Z>=%g want %g", p, z, want)
		}
		if !approx(d.Trace(), 1, 1e-9) {
			t.Fatalf("p=%g: trace %g", p, d.Trace())
		}
	}
	d := NewDensityMatrix(1)
	if err := d.Depolarize1Q(0, 1.5); err == nil {
		t.Fatal("want error for p>1")
	}
}

func TestDepolarize2QDampsZZ(t *testing.T) {
	d := NewDensityMatrix(2)
	zz0, _ := d.ExpectationPauli(pauli.MustString("ZZ"))
	if !approx(zz0, 1, 1e-12) {
		t.Fatalf("<ZZ> before: %g", zz0)
	}
	p := 0.3
	if err := d.Depolarize2Q(0, 1, p); err != nil {
		t.Fatal(err)
	}
	// Under 2q depolarizing, a weight-2 Pauli expectation scales by
	// (1 - 16p/15): of the 15 non-identity conjugations, ZZ commutes with
	// {ZZ, ZI, IZ} minus sign structure; the closed form for the twirl is
	// E -> (1-p)E + p/15 * sum_P s_P E with sum of signs = -1 for ZZ.
	zz, _ := d.ExpectationPauli(pauli.MustString("ZZ"))
	want := (1-p)*1 + p/15*(-1)
	if !approx(zz, want, 1e-9) {
		t.Fatalf("<ZZ> after: %g want %g", zz, want)
	}
	if !approx(d.Trace(), 1, 1e-9) {
		t.Fatalf("trace %g", d.Trace())
	}
}

func TestNoiseHookRuns(t *testing.T) {
	c := NewCircuit(2).H(0).CNOT(0, 1)
	nCalls := 0
	d, err := RunDensity(c, nil, func(d *DensityMatrix, g Gate) error {
		nCalls++
		if len(g.Qubits) == 1 {
			return d.Depolarize1Q(g.Qubits[0], 0.01)
		}
		if err := d.Depolarize2Q(g.Qubits[0], g.Qubits[1], 0.05); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if nCalls != 2 {
		t.Fatalf("hook called %d times", nCalls)
	}
	zz, _ := d.ExpectationPauli(pauli.MustString("ZZ"))
	if zz >= 1 {
		t.Fatalf("noise did not reduce <ZZ>: %g", zz)
	}
	if !approx(d.Trace(), 1, 1e-9) {
		t.Fatalf("trace %g", d.Trace())
	}
}

func TestApplyReadoutError(t *testing.T) {
	// Deterministic |00> distribution through a confusion channel.
	probs := []float64{1, 0, 0, 0}
	out, err := ApplyReadoutError(probs, 2, 0.1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range out {
		sum += p
	}
	if !approx(sum, 1, 1e-12) {
		t.Fatalf("distribution sum %g", sum)
	}
	if !approx(out[0], 0.81, 1e-12) { // (1-p01)^2
		t.Fatalf("P(00)=%g want 0.81", out[0])
	}
	if !approx(out[3], 0.01, 1e-12) { // p01^2
		t.Fatalf("P(11)=%g want 0.01", out[3])
	}
	if _, err := ApplyReadoutError(probs, 3, 0.1, 0.1); err == nil {
		t.Fatal("want error for dimension mismatch")
	}
	if _, err := ApplyReadoutError(probs, 2, 1.5, 0); err == nil {
		t.Fatal("want error for invalid rate")
	}
}

func TestDensityPauliRotMatchesState(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 6; trial++ {
		n := 2 + rng.Intn(2)
		pre := randomCircuit(n, 10, rng)
		p := randomPauli(n, rng)
		theta := rng.Float64() * 2 * math.Pi
		c := NewCircuit(n)
		c.gates = append(c.gates, pre.gates...)
		c.PauliRot(p, theta)

		sv, _ := Run(c, nil)
		dm, _ := RunDensity(c, nil, nil)
		obs := randomPauli(n, rng)
		want, _ := sv.ExpectationPauli(obs)
		got, _ := dm.ExpectationPauli(obs)
		if !approx(got, want, 1e-8) {
			t.Fatalf("rot %s obs %s: dm %g vs sv %g", p, obs, got, want)
		}
	}
}

func TestSampleDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	probs := []float64{0.25, 0.25, 0.5, 0}
	counts := NewSampler(probs).Sample(40000, rng)
	if counts[3] != 0 {
		t.Fatal("sampled zero-probability outcome")
	}
	f2 := float64(counts[2]) / 40000
	if math.Abs(f2-0.5) > 0.02 {
		t.Fatalf("frequency %g want 0.5", f2)
	}
}

func TestDensityClone(t *testing.T) {
	d := NewDensityMatrix(2)
	c := d.Clone()
	if err := d.Depolarize1Q(0, 0.5); err != nil {
		t.Fatal(err)
	}
	z, _ := c.ExpectationPauli(pauli.MustString("ZI"))
	if !approx(z, 1, 1e-12) {
		t.Fatal("clone mutated by channel on original")
	}
}

package qsim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/pauli"
)

const tol = 1e-10

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestStateInitial(t *testing.T) {
	s := NewState(3)
	if s.N() != 3 {
		t.Fatalf("N=%d", s.N())
	}
	if !approx(s.Norm(), 1, tol) {
		t.Fatalf("norm %g", s.Norm())
	}
	if s.Amplitudes()[0] != 1 {
		t.Fatal("not |000>")
	}
}

func TestHadamardSuperposition(t *testing.T) {
	c := NewCircuit(1).H(0)
	s, err := Run(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Probabilities()
	if !approx(p[0], 0.5, tol) || !approx(p[1], 0.5, tol) {
		t.Fatalf("probs %v", p)
	}
}

// bellCircuit prepares (|00> + |11>)/sqrt(2): H on both qubits, CZ, then
// H on qubit 1 (the CNOT of the textbook circuit as H CZ H).
func bellCircuit() *Circuit { return NewCircuit(2).H(0).H(1).CZ(0, 1).H(1) }

func TestBellState(t *testing.T) {
	c := bellCircuit()
	s, err := Run(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Probabilities()
	if !approx(p[0], 0.5, tol) || !approx(p[3], 0.5, tol) || !approx(p[1], 0, tol) || !approx(p[2], 0, tol) {
		t.Fatalf("probs %v", p)
	}
	zz, err := s.ExpectationPauli(pauli.MustString("ZZ"))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(zz, 1, tol) {
		t.Fatalf("<ZZ>=%g want 1", zz)
	}
	xx, _ := s.ExpectationPauli(pauli.MustString("XX"))
	if !approx(xx, 1, tol) {
		t.Fatalf("<XX>=%g want 1", xx)
	}
	yy, _ := s.ExpectationPauli(pauli.MustString("YY"))
	if !approx(yy, -1, tol) {
		t.Fatalf("<YY>=%g want -1", yy)
	}
}

// TestUnitarity is a property test: any random circuit preserves the norm.
func TestUnitarity(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(21))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		s, err := Run(allKindsCircuit(n, 20, rng))
		if err != nil {
			return false
		}
		return approx(s.Norm(), 1, 1e-9)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRZZMatchesDecomposition checks RZZ(theta) on (0, 2) against the
// textbook CNOT RZ(theta) CNOT: with CNOT = H CZ H on the target and
// H RZ H = RX, that is H CZ RX(theta) CZ H on qubit 2.
func TestRZZMatchesDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		theta := rng.Float64() * 4 * math.Pi
		pre, ang := allKindsCircuit(3, 8, rng)
		k := ang.bind(theta)

		c1 := NewCircuit(3)
		c1.gates = append(c1.gates, pre.gates...)
		c1.RZZP(0, 2, k, 1)

		c2 := NewCircuit(3)
		c2.gates = append(c2.gates, pre.gates...)
		c2.H(2).CZ(0, 2).RXP(2, k, 1).CZ(0, 2).H(2)

		s1, err := Run(c1, ang)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := Run(c2, ang)
		if err != nil {
			t.Fatal(err)
		}
		for i := range s1.amp {
			if cmplx.Abs(s1.amp[i]-s2.amp[i]) > 1e-9 {
				t.Fatalf("trial %d: amp[%d] %v vs %v", trial, i, s1.amp[i], s2.amp[i])
			}
		}
	}
}

// TestPauliRotMatchesNamedRotations checks single-axis and ZZ Pauli
// rotations against the named rotations' matrices applied by the seed
// loops (refApply1Q, refApplyRZZ).
func TestPauliRotMatchesNamedRotations(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rz := func(th float64) [2][2]complex128 {
		return [2][2]complex128{
			{complex(math.Cos(th/2), -math.Sin(th/2)), 0},
			{0, complex(math.Cos(th/2), math.Sin(th/2))},
		}
	}
	cases := []struct {
		p     string
		apply func(amp []complex128, theta float64)
	}{
		{"ZII", func(amp []complex128, th float64) { refApply1Q(amp, 0, rz(th)) }},
		{"IXI", func(amp []complex128, th float64) { refApply1Q(amp, 1, gateMatrix(GateRX, th)) }},
		{"IIY", func(amp []complex128, th float64) { refApply1Q(amp, 2, gateMatrix(GateRY, th)) }},
		{"ZIZ", func(amp []complex128, th float64) { refApplyRZZ(amp, 0, 2, th) }},
	}
	for _, tc := range cases {
		theta := rng.Float64() * 4 * math.Pi
		pre, ang := allKindsCircuit(3, 10, rng)

		c := NewCircuit(3)
		c.gates = append(c.gates, pre.gates...)
		c.PauliRotP(pauli.MustString(tc.p), ang.bind(theta), 1)

		s1, err := Run(c, ang)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := Run(pre, ang)
		if err != nil {
			t.Fatal(err)
		}
		tc.apply(s2.amp, theta)
		for i := range s1.amp {
			if cmplx.Abs(s1.amp[i]-s2.amp[i]) > 1e-9 {
				t.Fatalf("%s: amp[%d] %v vs %v", tc.p, i, s1.amp[i], s2.amp[i])
			}
		}
	}
}

func TestPauliRotXYGenerators(t *testing.T) {
	// exp(-i pi/2 X) = -i X up to global phase: |0> -> -i|1>.
	c := NewCircuit(1).PauliRotP(pauli.MustString("X"), 0, 1)
	s, _ := Run(c, []float64{math.Pi})
	if cmplx.Abs(s.amp[1]-complex(0, -1)) > 1e-9 {
		t.Fatalf("exp(-i pi X/2)|0> amp1 = %v", s.amp[1])
	}
	// exp(-i pi/2 Y)|0> = |1> (up to sign conventions: RY(pi)|0> = |1>).
	c2 := NewCircuit(1).PauliRotP(pauli.MustString("Y"), 0, 1)
	s2, _ := Run(c2, []float64{math.Pi})
	if cmplx.Abs(s2.amp[1]-1) > 1e-9 {
		t.Fatalf("RY(pi)|0> amp1 = %v", s2.amp[1])
	}
}

func TestParametricBinding(t *testing.T) {
	c := NewCircuit(2)
	c.RXP(0, 0, 1.0).RZZP(0, 1, 1, 2.0)
	if c.NumParams() != 2 {
		t.Fatalf("NumParams=%d", c.NumParams())
	}
	if _, err := Run(c, []float64{0.3}); err == nil {
		t.Fatal("want error for missing parameter")
	}
	if _, err := Run(c, []float64{0.3, math.NaN()}); err == nil {
		t.Fatal("want error for NaN parameter")
	}
	s1, err := Run(c, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Run(NewCircuit(2).RXP(0, 0, 1).RZZP(0, 1, 1, 1), []float64{0.3, 1.4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1.amp {
		if cmplx.Abs(s1.amp[i]-s2.amp[i]) > 1e-9 {
			t.Fatalf("amp[%d] %v vs %v", i, s1.amp[i], s2.amp[i])
		}
	}
}

func TestExpectationDiagonalAgainstDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	n := 4
	s, err := Run(allKindsCircuit(n, 25, rng))
	if err != nil {
		t.Fatal(err)
	}
	h := pauli.NewHamiltonian(n)
	h.MustAdd(0.5, pauli.Identity(n))
	h.MustAdd(-0.5, pauli.ZZ(n, 0, 2))
	h.MustAdd(1.25, pauli.ZZ(n, 1, 3))
	h.MustAdd(-0.75, pauli.SingleZ(n, 2))

	direct, err := s.Expectation(h)
	if err != nil {
		t.Fatal(err)
	}
	table, err := h.DiagonalValues()
	if err != nil {
		t.Fatal(err)
	}
	viaDist, err := ExpectationFromDistributionTable(table, s.Probabilities())
	if err != nil {
		t.Fatal(err)
	}
	if !approx(direct, viaDist, 1e-9) {
		t.Fatalf("direct %g vs distribution %g", direct, viaDist)
	}
}

func TestCloneAndReset(t *testing.T) {
	s, _ := Run(bellCircuit(), nil)
	cl := s.Clone()
	s.Reset()
	if !approx(real(s.amp[0]), 1, tol) {
		t.Fatal("reset failed")
	}
	if !approx(real(cl.amp[0]*cmplx.Conj(cl.amp[0])), 0.5, tol) {
		t.Fatal("clone mutated by reset")
	}
}

func TestCircuitValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-range qubit")
		}
	}()
	NewCircuit(2).H(5)
}

func TestCircuitDuplicateQubitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for duplicate qubits in CZ")
		}
	}()
	NewCircuit(2).CZ(1, 1)
}

func TestGateCounts(t *testing.T) {
	c := NewCircuit(4)
	c.H(0).H(1).CZ(0, 1).RZZP(1, 2, 0, 1).RXP(3, 1, 1)
	c.PauliRotP(pauli.MustString("XYZI"), 2, 1)
	if got := c.TwoQubitCount(); got != 4 { // CZ + RZZ + (weight3 rot = 2 CX)
		t.Errorf("TwoQubitCount=%d want 4", got)
	}
	if got := c.CountKind(GateH); got != 2 {
		t.Errorf("CountKind(H)=%d want 2", got)
	}
	if c.OneQubitCount() == 0 {
		t.Error("OneQubitCount=0")
	}
}

func TestKindString(t *testing.T) {
	if GateH.String() != "h" || GateRZZ.String() != "rzz" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should stringify")
	}
}

func TestExpectationDimensionMismatch(t *testing.T) {
	s := NewState(2)
	if _, err := s.ExpectationPauli(pauli.MustString("ZZZ")); err == nil {
		t.Fatal("want error for dimension mismatch")
	}
	h := pauli.NewHamiltonian(3)
	h.MustAdd(1, pauli.Identity(3))
	if _, err := s.Expectation(h); err == nil {
		t.Fatal("want error for Hamiltonian mismatch")
	}
}

// TestKernelName checks that KernelName, which oscard logs at start-up,
// names one of the simulator's kernels.
func TestKernelName(t *testing.T) {
	switch name := KernelName(); name {
	case "AVX-512", "AVX", "portable Go loop":
		t.Logf("simulator kernels: %s", name)
	default:
		t.Fatalf("KernelName() = %q, not a simulator kernel", name)
	}
}

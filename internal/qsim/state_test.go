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

// randomCircuit builds a random fixed-angle circuit touching every gate kind.
func randomCircuit(n, depth int, rng *rand.Rand) *Circuit {
	c := NewCircuit(n)
	for d := 0; d < depth; d++ {
		switch rng.Intn(10) {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.X(rng.Intn(n))
		case 2:
			c.RX(rng.Intn(n), rng.Float64()*2*math.Pi)
		case 3:
			c.RY(rng.Intn(n), rng.Float64()*2*math.Pi)
		case 4:
			c.RZ(rng.Intn(n), rng.Float64()*2*math.Pi)
		case 5:
			if n > 1 {
				a := rng.Intn(n)
				b := (a + 1 + rng.Intn(n-1)) % n
				c.CNOT(a, b)
			}
		case 6:
			if n > 1 {
				a := rng.Intn(n)
				b := (a + 1 + rng.Intn(n-1)) % n
				c.CZ(a, b)
			}
		case 7:
			if n > 1 {
				a := rng.Intn(n)
				b := (a + 1 + rng.Intn(n-1)) % n
				c.RZZ(a, b, rng.Float64()*2*math.Pi)
			}
		case 8:
			c.S(rng.Intn(n)).T(rng.Intn(n))
		default:
			ops := []byte{'I', 'X', 'Y', 'Z'}
			b := make([]byte, n)
			nonI := false
			for i := range b {
				b[i] = ops[rng.Intn(4)]
				if b[i] != 'I' {
					nonI = true
				}
			}
			if !nonI {
				b[0] = 'X'
			}
			c.PauliRot(pauli.MustString(string(b)), rng.Float64()*2*math.Pi)
		}
	}
	return c
}

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

func TestBellState(t *testing.T) {
	c := NewCircuit(2).H(0).CNOT(0, 1)
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
		c := randomCircuit(n, 20, rng)
		s, err := Run(c, nil)
		if err != nil {
			return false
		}
		return approx(s.Norm(), 1, 1e-9)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRZZMatchesDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 10; trial++ {
		theta := rng.Float64() * 4 * math.Pi
		pre := randomCircuit(3, 8, rng)

		c1 := NewCircuit(3)
		c1.gates = append(c1.gates, pre.gates...)
		c1.RZZ(0, 2, theta)

		c2 := NewCircuit(3)
		c2.gates = append(c2.gates, pre.gates...)
		c2.CNOT(0, 2).RZ(2, theta).CNOT(0, 2)

		s1, err := Run(c1, nil)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := Run(c2, nil)
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

func TestPauliRotMatchesNamedRotations(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := []struct {
		p     string
		build func(c *Circuit, theta float64)
	}{
		{"ZII", func(c *Circuit, th float64) { c.RZ(0, th) }},
		{"IXI", func(c *Circuit, th float64) { c.RX(1, th) }},
		{"IIY", func(c *Circuit, th float64) { c.RY(2, th) }},
		{"ZIZ", func(c *Circuit, th float64) { c.RZZ(0, 2, th) }},
	}
	for _, tc := range cases {
		theta := rng.Float64() * 4 * math.Pi
		pre := randomCircuit(3, 10, rng)

		c1 := NewCircuit(3)
		c1.gates = append(c1.gates, pre.gates...)
		c1.PauliRot(pauli.MustString(tc.p), theta)

		c2 := NewCircuit(3)
		c2.gates = append(c2.gates, pre.gates...)
		tc.build(c2, theta)

		s1, _ := Run(c1, nil)
		s2, _ := Run(c2, nil)
		for i := range s1.amp {
			if cmplx.Abs(s1.amp[i]-s2.amp[i]) > 1e-9 {
				t.Fatalf("%s: amp[%d] %v vs %v", tc.p, i, s1.amp[i], s2.amp[i])
			}
		}
	}
}

func TestPauliRotXYGenerators(t *testing.T) {
	// exp(-i pi/2 X) = -i X up to global phase: |0> -> -i|1>.
	c := NewCircuit(1).PauliRot(pauli.MustString("X"), math.Pi)
	s, _ := Run(c, nil)
	if cmplx.Abs(s.amp[1]-complex(0, -1)) > 1e-9 {
		t.Fatalf("exp(-i pi X/2)|0> amp1 = %v", s.amp[1])
	}
	// exp(-i pi/2 Y)|0> = |1> (up to sign conventions: RY(pi)|0> = |1>).
	c2 := NewCircuit(1).PauliRot(pauli.MustString("Y"), math.Pi)
	s2, _ := Run(c2, nil)
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
	s2, err := Run(NewCircuit(2).RX(0, 0.3).RZZ(0, 1, 1.4), nil)
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
	c := randomCircuit(n, 25, rng)
	s, err := Run(c, nil)
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
	c := NewCircuit(2).H(0).CNOT(0, 1)
	s, _ := Run(c, nil)
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
			t.Fatal("want panic for duplicate qubits in CNOT")
		}
	}()
	NewCircuit(2).CNOT(1, 1)
}

func TestGateCounts(t *testing.T) {
	c := NewCircuit(4)
	c.H(0).H(1).CNOT(0, 1).RZZ(1, 2, 0.5).RX(3, 0.1)
	c.PauliRot(pauli.MustString("XYZI"), 0.2)
	if got := c.TwoQubitCount(); got != 4 { // CNOT + RZZ + (weight3 rot = 2 CX)
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

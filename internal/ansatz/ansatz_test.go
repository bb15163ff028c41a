package ansatz

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/problem"
	"repro/internal/qsim"
)

func TestQAOAStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	g, err := graph.Random3Regular(8, rng)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 3; p++ {
		a, err := QAOA(g, p)
		if err != nil {
			t.Fatal(err)
		}
		if a.NumParams != 2*p {
			t.Fatalf("p=%d: NumParams=%d", p, a.NumParams)
		}
		if a.Circuit.CountKind(qsim.GateH) != 8 {
			t.Fatalf("p=%d: H count %d", p, a.Circuit.CountKind(qsim.GateH))
		}
		if a.Circuit.CountKind(qsim.GateRZZ) != p*len(g.Edges) {
			t.Fatalf("p=%d: RZZ count %d", p, a.Circuit.CountKind(qsim.GateRZZ))
		}
		if a.Circuit.CountKind(qsim.GateRX) != p*8 {
			t.Fatalf("p=%d: RX count %d", p, a.Circuit.CountKind(qsim.GateRX))
		}
	}
	if _, err := QAOA(nil, 1); err == nil {
		t.Error("want error for nil graph")
	}
	if _, err := QAOA(g, 0); err == nil {
		t.Error("want error for p=0")
	}
}

// TestGateCounts pins the one- and two-qubit gate counts of every ansatz;
// experiments' noise damping (fig4) is set by them. A Pauli rotation of
// weight w counts w+1 one-qubit and w-1 two-qubit gates.
func TestGateCounts(t *testing.T) {
	g, err := graph.Random3Regular(8, rand.New(rand.NewSource(81))) // 12 edges
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		build    func() (*Ansatz, error)
		one, two int
	}{
		{"qaoa-p1", func() (*Ansatz, error) { return QAOA(g, 1) }, 16, 12},        // 8 H + 8 RX; 12 RZZ
		{"qaoa-p2", func() (*Ansatz, error) { return QAOA(g, 2) }, 24, 24},        // 8 H + 16 RX; 24 RZZ
		{"two-local-n4", func() (*Ansatz, error) { return TwoLocal(4, 1) }, 8, 4}, // 8 RY; 4 CZ
		{"two-local-n6", func() (*Ansatz, error) { return TwoLocal(6, 0) }, 6, 0}, // 6 RY
		{"uccsd-h2", UCCSDH2, 8, 1},    // X; rotations of weight 1, 1, 2
		{"uccsd-lih", UCCSDLiH, 26, 8}, // 2 X; rotations of weight 1 (x4), 2 (x2), 4 (x2)
	}
	for _, tc := range cases {
		a, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		if one, two := a.Circuit.OneQubitCount(), a.Circuit.TwoQubitCount(); one != tc.one || two != tc.two {
			t.Errorf("%s: %d one-qubit and %d two-qubit gates, want %d and %d", tc.name, one, two, tc.one, tc.two)
		}
	}
}

func TestQAOAGridAxes(t *testing.T) {
	bMin, bMax, gMin, gMax := QAOAGridAxes(1)
	if bMin != -math.Pi/4 || bMax != math.Pi/4 || gMin != -math.Pi/2 || gMax != math.Pi/2 {
		t.Fatalf("p=1 axes wrong: %g %g %g %g", bMin, bMax, gMin, gMax)
	}
	bMin2, bMax2, _, _ := QAOAGridAxes(2)
	if bMin2 != -math.Pi/8 || bMax2 != math.Pi/8 {
		t.Fatalf("p=2 beta range wrong: %g %g", bMin2, bMax2)
	}
}

func TestQAOAAtOriginIsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	g, _ := graph.Random3Regular(6, rng)
	a, _ := QAOA(g, 1)
	s, err := qsim.Run(a.Circuit, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 / 64
	for i, p := range s.Probabilities() {
		if math.Abs(p-want) > 1e-12 {
			t.Fatalf("prob[%d]=%g want uniform %g", i, p, want)
		}
	}
}

func TestTwoLocalParamCounts(t *testing.T) {
	cases := []struct{ n, reps, want int }{
		{4, 1, 8}, // paper: 8 params at n=4
		{6, 0, 6}, // paper: 6 params at n=6
		{3, 2, 9},
	}
	for _, tc := range cases {
		a, err := TwoLocal(tc.n, tc.reps)
		if err != nil {
			t.Fatal(err)
		}
		if a.NumParams != tc.want {
			t.Fatalf("n=%d reps=%d: params %d want %d", tc.n, tc.reps, a.NumParams, tc.want)
		}
		if a.Circuit.NumParams() != tc.want {
			t.Fatalf("circuit params %d want %d", a.Circuit.NumParams(), tc.want)
		}
	}
	if _, err := TwoLocal(0, 1); err == nil {
		t.Error("want error for n=0")
	}
	if _, err := TwoLocal(4, -1); err == nil {
		t.Error("want error for negative reps")
	}
}

func TestTwoLocalExpressibility(t *testing.T) {
	// RY(pi) on every qubit flips |0000> to |1111>.
	a, _ := TwoLocal(4, 0)
	params := []float64{math.Pi, math.Pi, math.Pi, math.Pi}
	s, err := qsim.Run(a.Circuit, params)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Probabilities()
	if math.Abs(p[15]-1) > 1e-9 {
		t.Fatalf("P(1111)=%g", p[15])
	}
}

func TestUCCSDH2ReachesGroundState(t *testing.T) {
	a, err := UCCSDH2()
	if err != nil {
		t.Fatal(err)
	}
	if a.NumParams != 3 {
		t.Fatalf("params %d", a.NumParams)
	}
	h2 := problem.H2()
	// Sweep the double-excitation angle with singles at zero: the block
	// containing the HF state must reach the exact ground energy
	// -1.857275 Ha at the optimal rotation.
	best := math.Inf(1)
	for k := 0; k <= 400; k++ {
		theta := -math.Pi + 2*math.Pi*float64(k)/400
		s, err := qsim.Run(a.Circuit, []float64{0, 0, theta})
		if err != nil {
			t.Fatal(err)
		}
		e, err := s.Expectation(h2.Hamiltonian)
		if err != nil {
			t.Fatal(err)
		}
		if e < best {
			best = e
		}
	}
	if best > -1.8570 {
		t.Fatalf("best energy %g, want < -1.8570 (exact -1.857275)", best)
	}
}

func TestUCCSDLiHStructure(t *testing.T) {
	a, err := UCCSDLiH()
	if err != nil {
		t.Fatal(err)
	}
	if a.NumParams != 8 {
		t.Fatalf("params %d want 8", a.NumParams)
	}
	// HF reference: at zero parameters the energy must equal the diagonal
	// energy of the |q0=1,q2=1> state.
	lih := problem.LiH()
	s, err := qsim.Run(a.Circuit, make([]float64, 8))
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.Expectation(lih.Hamiltonian)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(e) || e > -7 {
		t.Fatalf("HF energy %g not LiH-scale", e)
	}
}

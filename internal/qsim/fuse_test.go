package qsim

// fuse_test.go unit-tests the diagonal-fusion peephole pass: which runs
// collapse, which gates break them, how parameter buckets and table
// interning behave, and that the structural bookkeeping (gate counts,
// parameter arity, validation) stays truthful after fusion.

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/pauli"
)

// qaoaLikeCircuit hand-builds the QAOA gate stream the ansatz package emits:
// an H layer, then per layer one adjacent RZZP run (all bound to the same
// gamma) followed by an RXP mixer layer.
func qaoaLikeCircuit(n, p int, edges [][2]int, weights []float64) *Circuit {
	c := NewCircuit(n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for l := 0; l < p; l++ {
		for i, e := range edges {
			c.RZZP(e[0], e[1], p+l, weights[i])
		}
		for q := 0; q < n; q++ {
			c.RXP(q, l, 2)
		}
	}
	return c
}

func ringEdges(n int) ([][2]int, []float64) {
	edges := make([][2]int, n)
	weights := make([]float64, n)
	for q := 0; q < n; q++ {
		edges[q] = [2]int{q, (q + 1) % n}
		weights[q] = 1 + 0.25*float64(q)
	}
	return edges, weights
}

func TestFuseDiagonalsQAOAStructure(t *testing.T) {
	const n, p = 5, 3
	edges, weights := ringEdges(n)
	c := qaoaLikeCircuit(n, p, edges, weights)
	f := c.FuseDiagonals()
	if f == c {
		t.Fatal("expected a fused copy, got the original circuit")
	}
	// Each cost layer (|E| RZZ gates, one shared gamma) collapses to exactly
	// one GateDiagonal: n H + p * (1 + n) gates total.
	want := n + p*(1+n)
	if got := len(f.Gates()); got != want {
		t.Fatalf("fused gate count = %d, want %d", got, want)
	}
	var diags []Gate
	for _, g := range f.Gates() {
		if g.Kind == GateDiagonal {
			diags = append(diags, g)
		}
	}
	if len(diags) != p {
		t.Fatalf("fused circuit has %d diagonal gates, want %d", len(diags), p)
	}
	for l, g := range diags {
		if g.Param != p+l {
			t.Fatalf("layer %d diagonal bound to param %d, want %d", l, g.Param, p+l)
		}
		if g.Scale != 1 {
			t.Fatalf("layer %d diagonal scale = %g, want 1", l, g.Scale)
		}
		// All p layers accumulate identical generators, so interning must
		// hand every layer the same *PhaseTable.
		if g.Diag != diags[0].Diag {
			t.Fatalf("layer %d has a distinct table; interning should share one", l)
		}
	}
	if f.NumParams() != c.NumParams() {
		t.Fatalf("fused NumParams = %d, want %d", f.NumParams(), c.NumParams())
	}
	// Gate-count satellite: the fused circuit reports zero two-qubit gates
	// (the cost layers are now 0-qubit table gates), the original |E|*p.
	if got := c.TwoQubitCount(); got != len(edges)*p {
		t.Fatalf("original TwoQubitCount = %d, want %d", got, len(edges)*p)
	}
	if got := f.TwoQubitCount(); got != 0 {
		t.Fatalf("fused TwoQubitCount = %d, want 0", got)
	}
	if got := f.OneQubitCount(); got != n+p*n {
		t.Fatalf("fused OneQubitCount = %d, want %d", got, n+p*n)
	}
}

func TestFuseDiagonalsMemoized(t *testing.T) {
	edges, weights := ringEdges(4)
	c := qaoaLikeCircuit(4, 1, edges, weights)
	if c.FuseDiagonals() != c.FuseDiagonals() {
		t.Fatal("FuseDiagonals not memoized")
	}
}

func TestFuseDiagonalsBreaksOnNonDiagonal(t *testing.T) {
	// RX, H, and X each split a would-be run; every surviving fragment has
	// one gate, so nothing fuses and the original circuit is returned.
	c := NewCircuit(3)
	c.PauliRotP(pauli.SingleZ(3, 0), 0, 1)
	c.RXP(1, 1, 1)
	c.RZZP(0, 1, 2, 1)
	c.H(2)
	c.CZ(1, 2)
	c.X(0)
	c.PauliRotP(pauli.SingleZ(3, 1), 3, 1)
	if f := c.FuseDiagonals(); f != c {
		t.Fatalf("singleton runs should leave the circuit unfused (got %d gates, had %d)",
			len(f.Gates()), len(c.Gates()))
	}
}

func TestFuseDiagonalsMixedRun(t *testing.T) {
	// One run mixing CZ gates (fixed phases) with gates bound to two
	// different parameters: fusion emits one constant table plus one table
	// per parameter, in ascending order.
	c := NewCircuit(3)
	c.H(0).H(1).H(2)
	c.CZ(0, 1)
	c.CZ(1, 2)
	c.RZZP(0, 1, 1, 0.8)
	c.CZ(0, 2)
	c.RZZP(1, 2, 0, -0.5)
	c.PauliRotP(pauli.SingleZ(3, 0), 1, 2.0)
	f := c.FuseDiagonals()
	if f == c {
		t.Fatal("expected fusion")
	}
	fused := f.Gates()[3:]
	if len(fused) != 3 {
		t.Fatalf("run fused into %d gates, want 3 (const + param0 + param1)", len(fused))
	}
	if fused[0].Param != -1 || fused[0].Theta != 1 {
		t.Fatalf("first fused gate should be the constant bucket, got param %d theta %g",
			fused[0].Param, fused[0].Theta)
	}
	if fused[1].Param != 0 || fused[2].Param != 1 {
		t.Fatalf("param buckets out of order: %d, %d", fused[1].Param, fused[2].Param)
	}
	// A fused run has one table per bucket already, so fusing again (the
	// constant bucket through the Param < 0 branch) leaves it as it is.
	if f.FuseDiagonals() != f {
		t.Fatal("fusing a fused circuit changed it")
	}

	rng := rand.New(rand.NewSource(42))
	params := []float64{rng.Float64() * math.Pi, rng.Float64() * math.Pi}
	orig, err := Run(c, params)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(f, params)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig.amp {
		if d := cabs(got.amp[i] - orig.amp[i]); d > 1e-12 {
			t.Fatalf("amp[%d]: fused %v vs original %v (|diff| %g)", i, got.amp[i], orig.amp[i], d)
		}
	}
}

func cabs(z complex128) float64 { return math.Hypot(real(z), imag(z)) }

func TestFuseDiagonalsPauliRotRuns(t *testing.T) {
	// Diagonal (X-free) Pauli rotations fuse; any X/Y in the string blocks.
	c := NewCircuit(3)
	c.H(0).H(1).H(2)
	c.PauliRotP(pauli.MustString("ZZI"), 0, 0.7)
	c.PauliRotP(pauli.MustString("IZZ"), 0, 0.3)
	c.PauliRotP(pauli.MustString("ZIZ"), 0, 1.2)
	f := c.FuseDiagonals()
	if f == c || len(f.Gates()) != 4 {
		t.Fatalf("ZZ rotations should fuse to one table gate, got %d gates", len(f.Gates()))
	}
	c2 := NewCircuit(3)
	c2.PauliRotP(pauli.MustString("ZZI"), 0, 0.7)
	c2.PauliRotP(pauli.MustString("XZI"), 0, 0.3)
	c2.PauliRotP(pauli.MustString("ZIZ"), 0, 1.2)
	if f2 := c2.FuseDiagonals(); f2 != c2 {
		t.Fatal("X-bearing Pauli rotation should break the run")
	}
}

func TestDiagonalValidation(t *testing.T) {
	edges, weights := ringEdges(3)
	if err := qaoaLikeCircuit(3, 1, edges, weights).FuseDiagonals().Validate([]float64{0.1, 0.2}); err != nil {
		t.Fatalf("valid diagonal circuit rejected: %v", err)
	}
	short := NewPhaseTable(make([]float64, 4))
	// Validate and ApplyGate re-check hand-built gates on both engines.
	for _, g := range []Gate{{Kind: GateDiagonal, Param: -1}, {Kind: GateDiagonal, Diag: short, Param: -1}} {
		c := NewCircuit(3)
		c.gates = append(c.gates, g)
		if err := c.Validate(nil); err == nil {
			t.Fatalf("Validate accepted a diagonal gate with table %v", g.Diag)
		}
	}
	if err := NewState(3).ApplyGate(Gate{Kind: GateDiagonal}, nil); err == nil {
		t.Fatal("state ApplyGate accepted a nil table")
	}
	if err := NewState(3).ApplyGate(Gate{Kind: GateDiagonal, Diag: short}, nil); err == nil {
		t.Fatal("state ApplyGate accepted a wrong-length table")
	}
	if err := NewDensityMatrix(3).ApplyGate(Gate{Kind: GateDiagonal, Diag: short}, nil); err == nil {
		t.Fatal("density ApplyGate accepted a wrong-length table")
	}
	if got := GateDiagonal.String(); got != "diagonal" {
		t.Fatalf("GateDiagonal name = %q", got)
	}
}

// accumDiagGenBranching is accumDiagGen's CZ, RZZ and PauliRot cases as
// they were written before the sign choices lost their branches: the
// reference the fused tables are pinned to.
func accumDiagGenBranching(table []float64, w float64, g *Gate) {
	if w == 0 {
		return
	}
	switch g.Kind {
	case GateCZ:
		ab, bb := 1<<uint(g.Qubits[0]), 1<<uint(g.Qubits[1])
		wpi := w * math.Pi
		for b := range table {
			if b&ab != 0 && b&bb != 0 {
				table[b] += wpi
			}
		}
	case GateRZZ:
		ab, bb := 1<<uint(g.Qubits[0]), 1<<uint(g.Qubits[1])
		half := w / 2
		for b := range table {
			if (b&ab != 0) == (b&bb != 0) {
				table[b] += half
			} else {
				table[b] -= half
			}
		}
	case GatePauliRot:
		z := g.Pauli.ZMask()
		half := w / 2
		for b := range table {
			if bits.OnesCount64(uint64(b)&z)&1 == 0 {
				table[b] += half
			} else {
				table[b] -= half
			}
		}
	default:
		panic("accumDiagGenBranching: " + g.Kind.String())
	}
}

// TestAccumDiagGenMatchesBranchingLoop pins accumDiagGen by Float64bits to
// the branching loops: random single-Z and diagonal PauliRot, CZ and RZZ
// gates with random weights, accumulated into tables that start with ±0,
// subnormal and huge entries. Each circuit opens with single-Z rotations
// and RZZ gates whose lowest qubit is 0 or 1, the masks
// pauli.AddZDiagonal walks in alternating runs of one or two entries.
func TestAccumDiagGenMatchesBranchingLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -3e-310, 1e308, -1e308}
	for _, n := range []int{1, 2, 5, 10} {
		c := NewCircuit(n)
		c.PauliRotP(pauli.SingleZ(n, 0), 0, 1)
		if n >= 2 {
			c.PauliRotP(pauli.SingleZ(n, 1), 0, 1)
			c.RZZP(0, 1, 0, 1)
			c.RZZP(0, n-1, 0, 1)
		}
		if n >= 3 {
			c.RZZP(1, n/2+1, 0, 1)
		}
		for k := 0; k < 6*n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			switch k % 4 {
			case 0:
				c.PauliRotP(pauli.SingleZ(n, a), 0, 1)
			case 1:
				if a != b {
					c.CZ(a, b)
				}
			case 2:
				if a != b {
					c.RZZP(a, b, 0, 1)
				}
			case 3:
				ops := make([]byte, n)
				for q := range ops {
					ops[q] = "IZ"[rng.Intn(2)]
				}
				c.PauliRotP(pauli.MustString(string(ops)), 0, 1)
			}
		}
		got, want := make([]float64, 1<<uint(n)), make([]float64, 1<<uint(n))
		for i := range got {
			got[i] = rng.NormFloat64()
			if rng.Intn(3) == 0 {
				got[i] = specials[rng.Intn(len(specials))]
			}
		}
		copy(want, got)
		gates := c.Gates()
		for i := range gates {
			g := &gates[i]
			w := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			accumDiagGen(got, w, g)
			accumDiagGenBranching(want, w, g)
			for b := range want {
				if math.Float64bits(got[b]) != math.Float64bits(want[b]) {
					t.Fatalf("n=%d gate %d (%s): entry %d = %v, branching loop %v", n, i, g.Kind, b, got[b], want[b])
				}
			}
		}
	}
}

// Package ansatz builds the parameterized circuits evaluated in the paper:
// QAOA, the hardware-efficient Two-local ansatz, and a UCCSD-style
// excitation ansatz for molecules. Every ansatz produces a qsim.Circuit with
// parameter-bound gates, so the same circuit object is reused across all
// landscape points.
package ansatz

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/pauli"
	"repro/internal/qsim"
)

// Ansatz is a named parameterized circuit family instance.
type Ansatz struct {
	Name      string
	Circuit   *qsim.Circuit
	NumParams int
}

// QAOA builds the depth-p QAOA circuit for a cut problem on g.
//
// Parameter layout: params[0..p-1] are the mixer angles beta_1..beta_p and
// params[p..2p-1] are the cost angles gamma_1..gamma_p, matching the (beta,
// gamma) grids of Table 1. Layer l applies exp(-i gamma_l H_ZZ) via
// RZZ(gamma_l * w_e) per edge, then exp(-i beta_l X) per qubit via
// RX(2 beta_l).
//
// Each cost layer is emitted as one adjacent run of RZZ gates bound to the
// same gamma — exactly the shape Circuit.FuseDiagonals collapses into a
// single phase-table gate, which the simulator backends do automatically.
func QAOA(g *graph.Graph, p int) (*Ansatz, error) {
	if g == nil || g.N < 2 {
		return nil, fmt.Errorf("ansatz: invalid graph")
	}
	if p < 1 {
		return nil, fmt.Errorf("ansatz: QAOA depth %d < 1", p)
	}
	c := qsim.NewCircuit(g.N)
	for q := 0; q < g.N; q++ {
		c.H(q)
	}
	for l := 0; l < p; l++ {
		gammaIdx := p + l
		betaIdx := l
		for _, e := range g.Edges {
			c.RZZP(e.U, e.V, gammaIdx, e.Weight)
		}
		for q := 0; q < g.N; q++ {
			c.RXP(q, betaIdx, 2)
		}
	}
	return &Ansatz{
		Name:      fmt.Sprintf("qaoa-p%d", p),
		Circuit:   c,
		NumParams: 2 * p,
	}, nil
}

// QAOAGridAxes returns the paper's Table 1 parameter ranges for depth-p
// QAOA: beta in [-pi/4, pi/4] and gamma in [-pi/2, pi/2] for p=1, halved for
// p=2 (the ranges shrink with depth because of the landscape's periodicity).
func QAOAGridAxes(p int) (betaMin, betaMax, gammaMin, gammaMax float64) {
	scale := 1.0
	if p >= 2 {
		scale = 0.5
	}
	return -math.Pi / 4 * scale, math.Pi / 4 * scale,
		-math.Pi / 2 * scale, math.Pi / 2 * scale
}

// TwoLocal builds the hardware-efficient Two-local ansatz: alternating RY
// rotation layers and CZ ring entanglement, with reps entangling blocks.
// NumParams = n*(reps+1). reps may be 0 (a single rotation layer), which is
// how the paper reaches 6 parameters at n=6.
func TwoLocal(n, reps int) (*Ansatz, error) {
	if n < 1 {
		return nil, fmt.Errorf("ansatz: invalid qubit count %d", n)
	}
	if reps < 0 {
		return nil, fmt.Errorf("ansatz: negative reps %d", reps)
	}
	c := qsim.NewCircuit(n)
	param := 0
	for q := 0; q < n; q++ {
		c.RYP(q, param, 1)
		param++
	}
	for r := 0; r < reps; r++ {
		if n > 1 {
			for q := 0; q+1 < n; q++ {
				c.CZ(q, q+1)
			}
			if n > 2 {
				c.CZ(n-1, 0)
			}
		}
		for q := 0; q < n; q++ {
			c.RYP(q, param, 1)
			param++
		}
	}
	return &Ansatz{
		Name:      fmt.Sprintf("two-local-n%d-r%d", n, reps),
		Circuit:   c,
		NumParams: param,
	}, nil
}

// UCCSDH2 builds the 3-parameter UCCSD-style ansatz for the 2-qubit H2
// Hamiltonian: Hartree-Fock preparation (|01>) followed by two single
// excitations and one double excitation implemented as Pauli rotations.
func UCCSDH2() (*Ansatz, error) {
	c := qsim.NewCircuit(2)
	c.X(1) // Hartree-Fock reference (|q1=1> minimizes the diagonal part)
	// Single excitations: exp(-i theta/2 Y_q) style rotations per qubit.
	c.PauliRotP(pauli.MustString("YI"), 0, 1)
	c.PauliRotP(pauli.MustString("IY"), 1, 1)
	// Double excitation: exp(-i theta/2 XY) entangling rotation.
	c.PauliRotP(pauli.MustString("XY"), 2, 1)
	return &Ansatz{Name: "uccsd-h2", Circuit: c, NumParams: 3}, nil
}

// UCCSDLiH builds the 8-parameter UCCSD-style ansatz for the 4-qubit LiH
// Hamiltonian: Hartree-Fock preparation, four single excitations, and four
// double excitations as weight-2/weight-4 Pauli rotations.
func UCCSDLiH() (*Ansatz, error) {
	c := qsim.NewCircuit(4)
	c.X(1).X(3) // Hartree-Fock reference (qubits with positive Z coefficients)
	singles := []string{"YIII", "IYII", "IIYI", "IIIY"}
	for i, s := range singles {
		c.PauliRotP(pauli.MustString(s), i, 1)
	}
	doubles := []string{"XYII", "IIXY", "YXXX", "XXYX"}
	for i, s := range doubles {
		c.PauliRotP(pauli.MustString(s), 4+i, 1)
	}
	return &Ansatz{Name: "uccsd-lih", Circuit: c, NumParams: 8}, nil
}

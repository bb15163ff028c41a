// Package qsim is a from-scratch quantum circuit simulator: a state-vector
// backend for ideal execution, a density-matrix backend with Kraus noise
// channels for exact noisy execution at small qubit counts, and measurement
// sampling for finite-shot estimates. It executes the parameterized circuits
// (ansatzes) whose cost landscapes OSCAR reconstructs.
package qsim

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/pauli"
)

// Kind identifies a gate type.
type Kind int

// Supported gate kinds.
const (
	GateH Kind = iota
	GateX
	GateY
	GateZ
	GateS
	GateSdg
	GateT
	GateRX
	GateRY
	GateRZ
	GateCNOT
	GateCZ
	GateRZZ
	GateSWAP
	GatePauliRot
	// GateDiagonal multiplies amplitude b by exp(-i * theta * Diag[b]): an
	// n-qubit diagonal unitary driven by a shared phase table, the target
	// representation of FuseDiagonals. theta resolves like any parametric
	// angle, so one angle-independent table serves every parameter value.
	GateDiagonal
)

var kindNames = map[Kind]string{
	GateH: "h", GateX: "x", GateY: "y", GateZ: "z", GateS: "s",
	GateSdg: "sdg", GateT: "t", GateRX: "rx", GateRY: "ry", GateRZ: "rz",
	GateCNOT: "cx", GateCZ: "cz", GateRZZ: "rzz", GateSWAP: "swap",
	GatePauliRot: "pauli-rot", GateDiagonal: "diagonal",
}

// String returns the gate mnemonic.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// qubitCount returns how many qubit operands the kind takes; 0 means
// variable (PauliRot) or whole-register (Diagonal).
func (k Kind) qubitCount() int {
	switch k {
	case GateCNOT, GateCZ, GateRZZ, GateSWAP:
		return 2
	case GatePauliRot, GateDiagonal:
		return 0
	default:
		return 1
	}
}

func (k Kind) parametric() bool {
	switch k {
	case GateRX, GateRY, GateRZ, GateRZZ, GatePauliRot, GateDiagonal:
		return true
	default:
		return false
	}
}

// Gate is one operation in a circuit. Parametric gates either carry a fixed
// angle (Param < 0) or bind angle = Scale*params[Param] at execution time.
type Gate struct {
	Kind   Kind
	Qubits []int
	Theta  float64 // fixed angle when Param < 0
	Param  int     // parameter index, or -1
	Scale  float64 // multiplier applied to the bound parameter
	Pauli  pauli.String
	Diag   *PhaseTable // phase table for GateDiagonal (shared, not owned)
}

// Angle resolves the gate angle against a parameter vector.
func (g Gate) Angle(params []float64) (float64, error) {
	if g.Kind.parametric() && g.Param >= len(params) {
		return 0, fmt.Errorf("qsim: gate %s needs parameter %d, only %d bound", g.Kind, g.Param, len(params))
	}
	return g.resolveAngle(params), nil
}

// resolveAngle is Angle without the bounds check — the single source of the
// resolution rule, shared with the post-Validate gate loops (Validate
// guarantees every bound parameter index is in range, so resolution cannot
// fail there).
func (g *Gate) resolveAngle(params []float64) float64 {
	if !g.Kind.parametric() {
		return 0
	}
	if g.Param < 0 {
		return g.Theta
	}
	return g.Scale*params[g.Param] + g.Theta
}

// Circuit is an ordered gate list on a fixed register. NumParams is the size
// of the parameter vector the circuit expects at execution time.
type Circuit struct {
	n         int
	numParams int
	gates     []Gate

	// fused memoizes FuseDiagonals so every evaluator sharing this circuit
	// (the landscape-batch regime) shares one fused copy and its tables.
	fuseOnce sync.Once
	fused    *Circuit

	// flipSym memoizes flipSymmetric, the half-state path's structural
	// check.
	flipOnce sync.Once
	flipSym  bool
}

// NewCircuit creates an empty circuit on n qubits.
func NewCircuit(n int) *Circuit {
	if n <= 0 || n > 30 {
		panic(fmt.Sprintf("qsim: unsupported qubit count %d", n))
	}
	return &Circuit{n: n}
}

// N reports the qubit count.
func (c *Circuit) N() int { return c.n }

// NumParams reports the number of circuit parameters.
func (c *Circuit) NumParams() int { return c.numParams }

// Gates returns the gate list (do not mutate).
func (c *Circuit) Gates() []Gate { return c.gates }

// Len reports the gate count.
func (c *Circuit) Len() int { return len(c.gates) }

// CountKind counts gates of a specific kind.
func (c *Circuit) CountKind(k Kind) int {
	n := 0
	for _, g := range c.gates {
		if g.Kind == k {
			n++
		}
	}
	return n
}

// TwoQubitCount counts all two-qubit gates, the dominant error source on
// hardware. GateDiagonal counts as zero: it is a simulator-level fusion
// artifact, not a hardware gate, so depth/cost reporting should be taken
// from the unfused circuit (FuseDiagonals keeps the original intact).
func (c *Circuit) TwoQubitCount() int {
	n := 0
	for _, g := range c.gates {
		switch g.Kind {
		case GateCNOT, GateCZ, GateRZZ, GateSWAP:
			n++
		case GatePauliRot:
			if g.Pauli.Weight() > 1 {
				n += g.Pauli.Weight() - 1 // CX ladder cost
			}
		}
	}
	return n
}

// OneQubitCount counts single-qubit gates (PauliRot counts its basis
// rotations; GateDiagonal, like the two-qubit kinds, contributes none).
func (c *Circuit) OneQubitCount() int {
	n := 0
	for _, g := range c.gates {
		switch g.Kind {
		case GateCNOT, GateCZ, GateRZZ, GateSWAP, GateDiagonal:
		case GatePauliRot:
			n += g.Pauli.Weight() + 1
		default:
			n++
		}
	}
	return n
}

func (c *Circuit) checkQubit(qs ...int) {
	for _, q := range qs {
		if q < 0 || q >= c.n {
			panic(fmt.Sprintf("qsim: qubit %d out of range [0,%d)", q, c.n))
		}
	}
	if len(qs) == 2 && qs[0] == qs[1] {
		panic(fmt.Sprintf("qsim: duplicate qubit %d in two-qubit gate", qs[0]))
	}
}

func (c *Circuit) add(g Gate) *Circuit {
	c.gates = append(c.gates, g)
	return c
}

// H appends a Hadamard on q.
func (c *Circuit) H(q int) *Circuit {
	c.checkQubit(q)
	return c.add(Gate{Kind: GateH, Qubits: []int{q}, Param: -1})
}

// X appends a Pauli-X on q.
func (c *Circuit) X(q int) *Circuit {
	c.checkQubit(q)
	return c.add(Gate{Kind: GateX, Qubits: []int{q}, Param: -1})
}

// Y appends a Pauli-Y on q.
func (c *Circuit) Y(q int) *Circuit {
	c.checkQubit(q)
	return c.add(Gate{Kind: GateY, Qubits: []int{q}, Param: -1})
}

// Z appends a Pauli-Z on q.
func (c *Circuit) Z(q int) *Circuit {
	c.checkQubit(q)
	return c.add(Gate{Kind: GateZ, Qubits: []int{q}, Param: -1})
}

// S appends the phase gate on q.
func (c *Circuit) S(q int) *Circuit {
	c.checkQubit(q)
	return c.add(Gate{Kind: GateS, Qubits: []int{q}, Param: -1})
}

// Sdg appends the inverse phase gate on q.
func (c *Circuit) Sdg(q int) *Circuit {
	c.checkQubit(q)
	return c.add(Gate{Kind: GateSdg, Qubits: []int{q}, Param: -1})
}

// T appends the T gate on q.
func (c *Circuit) T(q int) *Circuit {
	c.checkQubit(q)
	return c.add(Gate{Kind: GateT, Qubits: []int{q}, Param: -1})
}

// RX appends a fixed-angle X rotation.
func (c *Circuit) RX(q int, theta float64) *Circuit {
	c.checkQubit(q)
	return c.add(Gate{Kind: GateRX, Qubits: []int{q}, Theta: theta, Param: -1})
}

// RY appends a fixed-angle Y rotation.
func (c *Circuit) RY(q int, theta float64) *Circuit {
	c.checkQubit(q)
	return c.add(Gate{Kind: GateRY, Qubits: []int{q}, Theta: theta, Param: -1})
}

// RZ appends a fixed-angle Z rotation.
func (c *Circuit) RZ(q int, theta float64) *Circuit {
	c.checkQubit(q)
	return c.add(Gate{Kind: GateRZ, Qubits: []int{q}, Theta: theta, Param: -1})
}

// RXP appends a parameter-bound X rotation with angle scale*params[param].
func (c *Circuit) RXP(q, param int, scale float64) *Circuit {
	c.checkQubit(q)
	c.trackParam(param)
	return c.add(Gate{Kind: GateRX, Qubits: []int{q}, Param: param, Scale: scale})
}

// RYP appends a parameter-bound Y rotation.
func (c *Circuit) RYP(q, param int, scale float64) *Circuit {
	c.checkQubit(q)
	c.trackParam(param)
	return c.add(Gate{Kind: GateRY, Qubits: []int{q}, Param: param, Scale: scale})
}

// RZP appends a parameter-bound Z rotation.
func (c *Circuit) RZP(q, param int, scale float64) *Circuit {
	c.checkQubit(q)
	c.trackParam(param)
	return c.add(Gate{Kind: GateRZ, Qubits: []int{q}, Param: param, Scale: scale})
}

// CNOT appends a controlled-X with control ctl and target tgt.
func (c *Circuit) CNOT(ctl, tgt int) *Circuit {
	c.checkQubit(ctl, tgt)
	return c.add(Gate{Kind: GateCNOT, Qubits: []int{ctl, tgt}, Param: -1})
}

// CZ appends a controlled-Z.
func (c *Circuit) CZ(a, b int) *Circuit {
	c.checkQubit(a, b)
	return c.add(Gate{Kind: GateCZ, Qubits: []int{a, b}, Param: -1})
}

// SWAP appends a swap gate.
func (c *Circuit) SWAP(a, b int) *Circuit {
	c.checkQubit(a, b)
	return c.add(Gate{Kind: GateSWAP, Qubits: []int{a, b}, Param: -1})
}

// RZZ appends a fixed-angle ZZ rotation exp(-i theta/2 Z_a Z_b).
func (c *Circuit) RZZ(a, b int, theta float64) *Circuit {
	c.checkQubit(a, b)
	return c.add(Gate{Kind: GateRZZ, Qubits: []int{a, b}, Theta: theta, Param: -1})
}

// RZZP appends a parameter-bound ZZ rotation.
func (c *Circuit) RZZP(a, b, param int, scale float64) *Circuit {
	c.checkQubit(a, b)
	c.trackParam(param)
	return c.add(Gate{Kind: GateRZZ, Qubits: []int{a, b}, Param: param, Scale: scale})
}

// Diagonal appends a fixed-angle phase-table gate: amplitude b is
// multiplied by exp(-i theta t[b]). The table is shared, not copied.
func (c *Circuit) Diagonal(t *PhaseTable, theta float64) *Circuit {
	c.checkDiag(t)
	return c.add(Gate{Kind: GateDiagonal, Diag: t, Theta: theta, Param: -1})
}

// DiagonalP appends a parameter-bound phase-table gate with angle
// scale*params[param]: the table is angle-independent, so one table serves
// every parameter value (e.g. every gamma of a QAOA cost-layer sweep).
func (c *Circuit) DiagonalP(t *PhaseTable, param int, scale float64) *Circuit {
	c.checkDiag(t)
	c.trackParam(param)
	return c.add(Gate{Kind: GateDiagonal, Diag: t, Param: param, Scale: scale})
}

func (c *Circuit) checkDiag(t *PhaseTable) {
	if t == nil {
		panic("qsim: nil phase table")
	}
	if t.Len() != 1<<uint(c.n) {
		panic(fmt.Sprintf("qsim: phase table length %d on %d-qubit circuit", t.Len(), c.n))
	}
}

// PauliRot appends exp(-i theta/2 P) with fixed angle.
func (c *Circuit) PauliRot(p pauli.String, theta float64) *Circuit {
	c.checkPauli(p)
	return c.add(Gate{Kind: GatePauliRot, Pauli: p, Theta: theta, Param: -1})
}

// PauliRotP appends a parameter-bound exp(-i scale*params[param]/2 P).
func (c *Circuit) PauliRotP(p pauli.String, param int, scale float64) *Circuit {
	c.checkPauli(p)
	c.trackParam(param)
	return c.add(Gate{Kind: GatePauliRot, Pauli: p, Param: param, Scale: scale})
}

func (c *Circuit) checkPauli(p pauli.String) {
	if p.N() != c.n {
		panic(fmt.Sprintf("qsim: %d-qubit Pauli rotation on %d-qubit circuit", p.N(), c.n))
	}
}

func (c *Circuit) trackParam(param int) {
	if param < 0 {
		panic("qsim: negative parameter index")
	}
	if param+1 > c.numParams {
		c.numParams = param + 1
	}
}

// Validate checks that a parameter vector has the right arity and that
// every GateDiagonal carries a full-register phase table (length 2^n) —
// hand-built gate lists can miss the builder-time checks.
func (c *Circuit) Validate(params []float64) error {
	if len(params) < c.numParams {
		return fmt.Errorf("qsim: circuit needs %d parameters, got %d", c.numParams, len(params))
	}
	for _, p := range params {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("qsim: non-finite parameter %g", p)
		}
	}
	for i := range c.gates {
		if g := &c.gates[i]; g.Kind == GateDiagonal {
			if g.Diag == nil {
				return fmt.Errorf("qsim: diagonal gate %d has no phase table", i)
			}
			if g.Diag.Len() != 1<<uint(c.n) {
				return fmt.Errorf("qsim: diagonal gate %d table length %d, want %d", i, g.Diag.Len(), 1<<uint(c.n))
			}
		}
	}
	return nil
}

// Package problem defines the benchmark problems of the paper's evaluation:
// MaxCut on 3-regular and mesh graphs, the Sherrington-Kirkpatrick model,
// and the H2 / LiH molecular ground-state problems. Each problem is a qubit
// Hamiltonian whose expectation value is the VQA cost to minimize.
package problem

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/graph"
	"repro/internal/pauli"
)

// Problem couples a cost Hamiltonian with its metadata. Cost convention:
// lower <H> is better (minimization), so for MaxCut the Hamiltonian is
// H = sum_e w_e/2 (Z_u Z_v - 1), whose minimum is -MaxCut.
//
// Problems are shared by pointer (evaluators hold *Problem) and must not be
// copied by value: the lazily built diagonal energy table is guarded by a
// sync.Once.
type Problem struct {
	Name        string
	Hamiltonian *pauli.Hamiltonian
	// Graph is the underlying graph for cut problems; nil for molecules.
	Graph *graph.Graph

	// diagOnce guards the lazily computed diagonal energy table shared by
	// every evaluator on this problem (the O(terms * 2^n) construction is
	// paid once per problem, then each landscape point is a single fused
	// pass, over half the table on the flip-symmetric path — see
	// qsim.State.ExpectationDiagonal).
	diagOnce sync.Once
	diag     []float64
	diagErr  error
}

// N reports the qubit count.
func (p *Problem) N() int { return p.Hamiltonian.N() }

// DiagonalTable returns the memoized 2^n energy vector of a diagonal
// Hamiltonian (entry b is <b|H|b>), computing it on first use. Callers must
// not mutate the returned slice. Off-diagonal Hamiltonians (H2, LiH) return
// an error; their expectations go through the per-term path instead.
func (p *Problem) DiagonalTable() ([]float64, error) {
	p.diagOnce.Do(func() {
		p.diag, p.diagErr = p.Hamiltonian.DiagonalValues()
	})
	return p.diag, p.diagErr
}

// MaxCut builds the MaxCut minimization problem on g.
func MaxCut(name string, g *graph.Graph) (*Problem, error) {
	if g == nil || g.N < 2 {
		return nil, fmt.Errorf("problem: invalid graph")
	}
	if g.N > 30 {
		return nil, fmt.Errorf("problem: %d qubits exceeds simulator limit", g.N)
	}
	h := pauli.NewHamiltonian(g.N)
	for _, e := range g.Edges {
		h.MustAdd(e.Weight/2, pauli.ZZ(g.N, e.U, e.V))
		h.MustAdd(-e.Weight/2, pauli.Identity(g.N))
	}
	return &Problem{Name: name, Hamiltonian: h, Graph: g}, nil
}

// Random3RegularMaxCut builds MaxCut on a random 3-regular graph.
func Random3RegularMaxCut(n int, rng *rand.Rand) (*Problem, error) {
	if n > 30 {
		return nil, fmt.Errorf("problem: %d qubits exceeds simulator limit", n)
	}
	g, err := graph.Random3Regular(n, rng)
	if err != nil {
		return nil, err
	}
	return MaxCut(fmt.Sprintf("3reg-maxcut-n%d", n), g)
}

// MeshMaxCut builds MaxCut on a rows×cols mesh graph.
func MeshMaxCut(rows, cols int) (*Problem, error) {
	if rows > 30 || cols > 30 {
		return nil, fmt.Errorf("problem: %dx%d mesh exceeds simulator limit", rows, cols)
	}
	g, err := graph.Mesh(rows, cols)
	if err != nil {
		return nil, err
	}
	return MaxCut(fmt.Sprintf("mesh-maxcut-%dx%d", rows, cols), g)
}

// SK builds the Sherrington-Kirkpatrick spin-glass minimization problem:
// H = sum_{i<j} J_ij Z_i Z_j with J_ij = ±1 (normalized by 1/sqrt(n) is left
// to callers; the paper's landscapes use unnormalized couplings).
func SK(n int, rng *rand.Rand) (*Problem, error) {
	if n > 30 {
		return nil, fmt.Errorf("problem: %d qubits exceeds simulator limit", n)
	}
	g, err := graph.SK(n, rng)
	if err != nil {
		return nil, err
	}
	h := pauli.NewHamiltonian(n)
	for _, e := range g.Edges {
		h.MustAdd(e.Weight/2, pauli.ZZ(n, e.U, e.V))
		h.MustAdd(-e.Weight/2, pauli.Identity(n))
	}
	return &Problem{Name: fmt.Sprintf("sk-n%d", n), Hamiltonian: h, Graph: g}, nil
}

// H2 returns the 2-qubit hydrogen-molecule Hamiltonian at the equilibrium
// bond length (0.735 Å) in the standard parity-reduced encoding. The
// coefficients are the widely published STO-3G values.
func H2() *Problem {
	h := pauli.NewHamiltonian(2)
	h.MustAdd(-1.052373245772859, pauli.MustString("II"))
	h.MustAdd(0.39793742484318045, pauli.MustString("IZ"))
	h.MustAdd(-0.39793742484318045, pauli.MustString("ZI"))
	h.MustAdd(-0.01128010425623538, pauli.MustString("ZZ"))
	h.MustAdd(0.18093119978423156, pauli.MustString("XX"))
	return &Problem{Name: "h2", Hamiltonian: h}
}

// LiH returns a 4-qubit lithium-hydride-like Hamiltonian.
//
// Substitution note: the paper used a chemistry package to produce the
// frozen-core 4-qubit LiH Hamiltonian. We build a documented Pauli-sum with
// the same structure — a dominant identity offset, single-Z terms with
// LiH-scale coefficients, ZZ couplings, and weak XX/YY/XZ exchange terms —
// which yields the same kind of smooth, DCT-sparse landscape that
// Tables 3 and 4 measure.
func LiH() *Problem {
	h := pauli.NewHamiltonian(4)
	h.MustAdd(-7.49894690201071, pauli.MustString("IIII"))
	h.MustAdd(-0.0029329964409502266, pauli.MustString("ZIII"))
	h.MustAdd(0.42173056396437425, pauli.MustString("IZII"))
	h.MustAdd(-0.0029329964409502266, pauli.MustString("IIZI"))
	h.MustAdd(0.42173056396437425, pauli.MustString("IIIZ"))
	h.MustAdd(0.12357087224898309, pauli.MustString("ZZII"))
	h.MustAdd(0.05575552226867875, pauli.MustString("ZIZI"))
	h.MustAdd(0.05575552226867875, pauli.MustString("IZIZ"))
	h.MustAdd(0.12357087224898309, pauli.MustString("IIZZ"))
	h.MustAdd(0.0839593064396937, pauli.MustString("ZIIZ"))
	h.MustAdd(0.0839593064396937, pauli.MustString("IZZI"))
	h.MustAdd(0.060240981898215784, pauli.MustString("XXII"))
	h.MustAdd(0.060240981898215784, pauli.MustString("IIXX"))
	h.MustAdd(0.011582875157105372, pauli.MustString("YYII"))
	h.MustAdd(0.011582875157105372, pauli.MustString("IIYY"))
	h.MustAdd(0.0181312211755805, pauli.MustString("XZXI"))
	h.MustAdd(0.0181312211755805, pauli.MustString("IXZX"))
	h.MustAdd(0.003930301178426152, pauli.MustString("YZYI"))
	h.MustAdd(0.003930301178426152, pauli.MustString("IYZY"))
	return &Problem{Name: "lih", Hamiltonian: h}
}

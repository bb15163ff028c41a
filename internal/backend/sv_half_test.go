package backend

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ansatz"
	"repro/internal/pauli"
	"repro/internal/problem"
	"repro/internal/qsim"
)

// fullPathEnergy is the full-state oracle for the half path: RunInto on an
// n-qubit state plus the diagonal table, or the per-term expectation for
// off-diagonal Hamiltonians.
func fullPathEnergy(t *testing.T, p *problem.Problem, c *qsim.Circuit, params []float64) float64 {
	t.Helper()
	s := qsim.NewState(c.N())
	if err := qsim.RunInto(s, c, params); err != nil {
		t.Fatal(err)
	}
	var v float64
	var err error
	if p.Hamiltonian.IsDiagonal() {
		table, terr := p.DiagonalTable()
		if terr != nil {
			t.Fatal(terr)
		}
		v, err = s.ExpectationDiagonal(table)
	} else {
		v, err = s.Expectation(p.Hamiltonian)
	}
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// withTerm returns p's Hamiltonian plus coeff*P, on p's graph.
func withTerm(p *problem.Problem, coeff float64, s string) *problem.Problem {
	h := pauli.NewHamiltonian(p.N())
	for _, t := range p.Hamiltonian.Terms() {
		h.MustAdd(t.Coeff, t.P)
	}
	h.MustAdd(coeff, pauli.MustString(s))
	return &problem.Problem{Name: p.Name + "+" + s, Hamiltonian: h, Graph: p.Graph}
}

// TestStateVectorHalfPathSelection: QAOA on MaxCut and SK takes the
// half-state path; a single-Z energy term, an off-diagonal Hamiltonian and
// an RY mixer stay on the full path. Either way every batch value equals the
// full-state oracle bit for bit.
func TestStateVectorHalfPathSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	cut, err := problem.Random3RegularMaxCut(10, rng)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := problem.SK(9, rng)
	if err != nil {
		t.Fatal(err)
	}
	qaoa := func(p *problem.Problem, depth int) *ansatz.Ansatz {
		a, err := ansatz.QAOA(p.Graph, depth)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	ryMixer, err := ansatz.TwoLocal(cut.N(), 1)
	if err != nil {
		t.Fatal(err)
	}
	zAt0 := "Z" + strings.Repeat("I", cut.N()-1)
	xAt0 := "X" + strings.Repeat("I", cut.N()-1)
	cases := []struct {
		name string
		p    *problem.Problem
		a    *ansatz.Ansatz
		half bool
	}{
		{"maxcut p=2", cut, qaoa(cut, 2), true},
		{"sk p=1", sk, qaoa(sk, 1), true},
		{"maxcut + Z term", withTerm(cut, 0.3, zAt0), qaoa(cut, 1), false},
		{"maxcut + X term", withTerm(cut, 0.3, xAt0), qaoa(cut, 1), false},
		{"RY mixer", cut, ryMixer, false},
	}
	for _, tc := range cases {
		sv, err := NewStateVector(tc.p, tc.a)
		if err != nil {
			t.Fatal(err)
		}
		if (sv.half != nil) != tc.half {
			t.Errorf("%s: half path = %v, want %v", tc.name, sv.half != nil, tc.half)
		}
		pts := randParams(rng, 7, tc.a.NumParams)
		for _, w := range []int{1, 3} {
			got, err := sv.SetWorkers(w).EvaluateBatch(context.Background(), pts)
			if err != nil {
				t.Fatal(err)
			}
			for i, params := range pts {
				want := fullPathEnergy(t, tc.p, sv.circ, params)
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("%s workers=%d point %d: %v, full path %v", tc.name, w, i, got[i], want)
				}
			}
		}
	}
}

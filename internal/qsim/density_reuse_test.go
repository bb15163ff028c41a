package qsim

// density_reuse_test.go pins the buffer-reusing density-matrix kernels to
// the seed's allocate-per-call implementations: the accumulate-in-place
// depolarizing channels perform exactly the seed's per-element operations in
// the seed's order, so results must match bit-for-bit, and re-running
// circuits through a reused matrix must equal fresh runs exactly.

import (
	"math/rand"
	"testing"

	"repro/internal/pauli"
)

// refConjugatePauli is the seed P rho P^dagger on a raw matrix.
func refConjugatePauli(rho []complex128, dim int, p pauli.String) []complex128 {
	x := int(p.XMask())
	z := p.ZMask()
	nY := 0
	for q := 0; q < p.N(); q++ {
		if p.At(q) == pauli.Y {
			nY++
		}
	}
	iPow := iPower(nY)
	out := make([]complex128, len(rho))
	for i := 0; i < dim; i++ {
		ci := pauliPhase(uint64(i), z, iPow)
		for j := 0; j < dim; j++ {
			cj := pauliPhase(uint64(j), z, iPow)
			out[(i^x)*dim+(j^x)] = ci * complexConj(cj) * rho[i*dim+j]
		}
	}
	return out
}

// refDepolarize1Q is the seed copy-conjugate-accumulate channel.
func refDepolarize1Q(rho []complex128, dim, n, q int, p float64) []complex128 {
	acc := make([]complex128, len(rho))
	for i := range acc {
		acc[i] = complex(1-p, 0) * rho[i]
	}
	for _, op := range []pauli.Op{pauli.X, pauli.Y, pauli.Z} {
		out := refConjugatePauli(rho, dim, singleOp(n, q, op))
		w := complex(p/3, 0)
		for i := range acc {
			acc[i] += w * out[i]
		}
	}
	return acc
}

func TestDepolarizeBitIdenticalToSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const n = 4
	c, ang := allKindsCircuit(n, 20, rng)
	d, err := RunDensity(c, ang, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := refDepolarize1Q(append([]complex128(nil), d.rho...), d.dim, n, 2, 0.03)
	if err := d.Depolarize1Q(2, 0.03); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if d.rho[i] != want[i] {
			t.Fatalf("rho[%d] = %v, seed %v", i, d.rho[i], want[i])
		}
	}
}

func TestRunDensityIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	const n = 3
	hook := func(d *DensityMatrix, g Gate) error {
		switch len(g.Qubits) {
		case 1:
			return d.Depolarize1Q(g.Qubits[0], 0.01)
		case 2:
			return d.Depolarize2Q(g.Qubits[0], g.Qubits[1], 0.02)
		default:
			return nil
		}
	}
	dst := NewDensityMatrix(n)
	for trial := 0; trial < 6; trial++ {
		c, ang := allKindsCircuit(n, 15, rng)
		if err := RunDensityInto(dst, c, ang, hook); err != nil {
			t.Fatal(err)
		}
		fresh, err := RunDensity(c, ang, hook)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fresh.rho {
			if dst.rho[i] != fresh.rho[i] {
				t.Fatalf("trial %d: rho[%d] = %v, fresh %v", trial, i, dst.rho[i], fresh.rho[i])
			}
		}
	}
	if c, ang := allKindsCircuit(2, 4, rng); RunDensityInto(dst, c, ang, nil) == nil {
		t.Fatal("want dimension mismatch error")
	}
}

func TestDensityExpectationDiagonalMatchesPerTerm(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const n = 4
	c, ang := allKindsCircuit(n, 25, rng)
	d, err := RunDensity(c, ang, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := pauli.NewHamiltonian(n)
	h.MustAdd(0.5, pauli.Identity(n))
	h.MustAdd(-1.25, pauli.ZZ(n, 0, 3))
	h.MustAdd(0.75, pauli.SingleZ(n, 1))
	table, err := h.DiagonalValues()
	if err != nil {
		t.Fatal(err)
	}
	fused, err := d.ExpectationDiagonal(table)
	if err != nil {
		t.Fatal(err)
	}
	perTerm, err := d.Expectation(h)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(fused, perTerm, 1e-10) {
		t.Fatalf("fused %v vs per-term %v", fused, perTerm)
	}
	if _, err := d.ExpectationDiagonal(make([]float64, 3)); err == nil {
		t.Fatal("want table length error")
	}
}

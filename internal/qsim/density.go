package qsim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/pauli"
)

// DensityMatrix is an n-qubit mixed state rho stored row-major as a
// 2^n x 2^n complex matrix. It supports exact simulation of Kraus noise
// channels (depolarizing, readout error), which backs the
// "noisy sim" device profiles in the paper reproduction.
//
// A DensityMatrix owns up to two scratch matrices of the same 4^n size,
// allocated lazily and reused across gates and channels, so re-running
// circuits through a reused matrix (RunDensityInto) allocates nothing in
// steady state.
type DensityMatrix struct {
	n   int
	dim int
	rho []complex128
	// scratch and acc are reusable 4^n work buffers for the
	// Pauli-rotation and Kraus-channel kernels. They hold no state between
	// operations; buffers are swapped with rho rather than copied.
	scratch []complex128
	acc     []complex128
	// diagPhase is the reused 2^n phase vector for diagonal-unitary
	// conjugation (see applyDiagonal) — precomputing it once turns the old
	// O(4^n) closure evaluations into O(2^n) plus a pure sweep.
	diagPhase []complex128
	// phaseLUT is the reused per-application LUT for phase-table gates,
	// mirroring State.phaseLUT.
	phaseLUT []complex128
}

// NewDensityMatrix prepares |0...0><0...0| on n qubits. Density-matrix
// simulation costs 4^n memory, so n is capped at 13.
func NewDensityMatrix(n int) *DensityMatrix {
	if n <= 0 || n > 13 {
		panic(fmt.Sprintf("qsim: unsupported density-matrix qubit count %d", n))
	}
	dim := 1 << uint(n)
	d := &DensityMatrix{n: n, dim: dim, rho: make([]complex128, dim*dim)}
	d.rho[0] = 1
	return d
}

// N reports the qubit count.
func (d *DensityMatrix) N() int { return d.n }

// Reset returns the state to |0...0><0...0|.
func (d *DensityMatrix) Reset() {
	for i := range d.rho {
		d.rho[i] = 0
	}
	d.rho[0] = 1
}

// getScratch returns the (lazily allocated) primary scratch matrix.
func (d *DensityMatrix) getScratch() []complex128 {
	if d.scratch == nil {
		d.scratch = make([]complex128, len(d.rho))
	}
	return d.scratch
}

// getAcc returns the (lazily allocated) secondary scratch matrix.
func (d *DensityMatrix) getAcc() []complex128 {
	if d.acc == nil {
		d.acc = make([]complex128, len(d.rho))
	}
	return d.acc
}

// Trace returns Tr(rho), which unitary evolution and trace-preserving
// channels keep at 1.
func (d *DensityMatrix) Trace() float64 {
	var t complex128
	for i := 0; i < d.dim; i++ {
		t += d.rho[i*d.dim+i]
	}
	return real(t)
}

// Clone deep-copies the state (scratch buffers are not carried over).
func (d *DensityMatrix) Clone() *DensityMatrix {
	c := &DensityMatrix{n: d.n, dim: d.dim, rho: make([]complex128, len(d.rho))}
	copy(c.rho, d.rho)
	return c
}

// leftMul1Q computes rho <- (U on qubit q) rho.
func (d *DensityMatrix) leftMul1Q(q int, m [2][2]complex128) {
	bit := 1 << uint(q)
	for col := 0; col < d.dim; col++ {
		for r := 0; r < d.dim; r += bit << 1 {
			for i := r; i < r+bit; i++ {
				a0 := d.rho[i*d.dim+col]
				a1 := d.rho[(i|bit)*d.dim+col]
				d.rho[i*d.dim+col] = m[0][0]*a0 + m[0][1]*a1
				d.rho[(i|bit)*d.dim+col] = m[1][0]*a0 + m[1][1]*a1
			}
		}
	}
}

// rightMul1QDagger computes rho <- rho (U on qubit q)^dagger.
func (d *DensityMatrix) rightMul1QDagger(q int, m [2][2]complex128) {
	bit := 1 << uint(q)
	// (rho U^dagger)_{r,c} = sum_k rho_{r,k} conj(U_{c,k}).
	for row := 0; row < d.dim; row++ {
		base := row * d.dim
		for c0 := 0; c0 < d.dim; c0 += bit << 1 {
			for j := c0; j < c0+bit; j++ {
				a0 := d.rho[base+j]
				a1 := d.rho[base+(j|bit)]
				d.rho[base+j] = a0*complexConj(m[0][0]) + a1*complexConj(m[0][1])
				d.rho[base+(j|bit)] = a0*complexConj(m[1][0]) + a1*complexConj(m[1][1])
			}
		}
	}
}

// applyUnitary1Q conjugates rho by a single-qubit unitary.
func (d *DensityMatrix) applyUnitary1Q(q int, m [2][2]complex128) {
	d.leftMul1Q(q, m)
	d.rightMul1QDagger(q, m)
}

// phase returns the scalar c(i) with P|i> = c(i) |i^x> for a Pauli given by
// masks and Y count.
func pauliPhase(i uint64, z uint64, iPow complex128) complex128 {
	return iPow * signC(i&z)
}

// yCount counts the Y positions of a Pauli string: exactly the qubits with
// both the X and Z mask bits set.
func yCount(p pauli.String) int {
	return bits.OnesCount64(p.XMask() & p.ZMask())
}

// accumPauli adds w * (P src P^dagger) into acc without touching src — the
// copy-free kernel the depolarizing channels sum their Pauli orbit with.
func (d *DensityMatrix) accumPauli(acc, src []complex128, p pauli.String, w complex128) {
	x := int(p.XMask())
	z := p.ZMask()
	iPow := iPower(yCount(p))
	for i := 0; i < d.dim; i++ {
		ci := pauliPhase(uint64(i), z, iPow)
		for j := 0; j < d.dim; j++ {
			cj := pauliPhase(uint64(j), z, iPow)
			t := ci * complexConj(cj) * src[i*d.dim+j]
			acc[(i^x)*d.dim+(j^x)] += w * t
		}
	}
}

// getDiagPhase returns the (lazily allocated) reusable 2^n phase vector.
func (d *DensityMatrix) getDiagPhase() []complex128 {
	if d.diagPhase == nil {
		d.diagPhase = make([]complex128, d.dim)
	}
	return d.diagPhase
}

// applyDiagonal conjugates rho by a diagonal unitary with entries phase(i).
// The 2^n phases are evaluated once into reused scratch and then swept over
// rho, instead of re-evaluating phase(j) in the inner loop (which cost
// O(4^n) closure calls); the per-element arithmetic is unchanged, so results
// are bit-identical to the old sweep.
func (d *DensityMatrix) applyDiagonal(phase func(i int) complex128) {
	pv := d.getDiagPhase()
	for i := range pv {
		pv[i] = phase(i)
	}
	d.applyDiagonalVec(pv)
}

// applyDiagonalVec conjugates rho by the diagonal unitary diag(pv):
// rho_{i,j} *= pv[i] * conj(pv[j]).
func (d *DensityMatrix) applyDiagonalVec(pv []complex128) {
	for i := 0; i < d.dim; i++ {
		pi := pv[i]
		row := d.rho[i*d.dim : (i+1)*d.dim]
		for j := range row {
			row[j] *= pi * complexConj(pv[j])
		}
	}
}

// applyPhaseTableDM conjugates rho by the GateDiagonal unitary
// diag(exp(-i theta table[b])), reusing the same lazy value compression as
// the statevector kernel to build the 2^n phase vector.
func (d *DensityMatrix) applyPhaseTableDM(t *PhaseTable, theta float64) {
	pv := d.getDiagPhase()
	if idx, unique, ok := t.compressed(); ok {
		if cap(d.phaseLUT) < len(unique) {
			d.phaseLUT = make([]complex128, len(unique))
		}
		lut := d.phaseLUT[:len(unique)]
		buildPhaseLUT(lut, theta, unique)
		for b := range pv {
			pv[b] = lut[idx[b]]
		}
	} else {
		vals := t.Values()
		for b := range pv {
			sn, cs := math.Sincos(theta * vals[b])
			pv[b] = complex(cs, -sn)
		}
	}
	d.applyDiagonalVec(pv)
}

// ApplyGate applies one circuit gate with resolved parameters.
func (d *DensityMatrix) ApplyGate(g Gate, params []float64) error {
	theta, err := g.Angle(params)
	if err != nil {
		return err
	}
	if g.Kind == GateDiagonal && (g.Diag == nil || g.Diag.Len() != d.dim) {
		return fmt.Errorf("qsim: diagonal gate table does not match %d-qubit density matrix", d.n)
	}
	d.applyGateKind(&g, theta)
	return nil
}

// applyGateKind dispatches one gate with its angle already resolved.
func (d *DensityMatrix) applyGateKind(g *Gate, theta float64) {
	switch g.Kind {
	case GateCZ:
		ab := 1 << uint(g.Qubits[0])
		bb := 1 << uint(g.Qubits[1])
		d.applyDiagonal(func(i int) complex128 {
			if i&ab != 0 && i&bb != 0 {
				return -1
			}
			return 1
		})
	case GateRZZ:
		ab := 1 << uint(g.Qubits[0])
		bb := 1 << uint(g.Qubits[1])
		plus := complex(math.Cos(theta/2), -math.Sin(theta/2))
		minus := complex(math.Cos(theta/2), math.Sin(theta/2))
		d.applyDiagonal(func(i int) complex128 {
			if (i&ab != 0) == (i&bb != 0) {
				return plus
			}
			return minus
		})
	case GatePauliRot:
		if g.Pauli.XMask() == 0 {
			// Diagonal (X-free) string: exp(-i theta/2 sign(b)) per basis
			// state — a phase sweep instead of the four-term conjugation.
			z := g.Pauli.ZMask()
			plus := complex(math.Cos(theta/2), -math.Sin(theta/2))
			minus := complex(math.Cos(theta/2), math.Sin(theta/2))
			d.applyDiagonal(func(i int) complex128 {
				if bits.OnesCount64(uint64(i)&z)&1 == 0 {
					return plus
				}
				return minus
			})
			return
		}
		d.applyPauliRotDM(g.Pauli, theta)
	case GateDiagonal:
		d.applyPhaseTableDM(g.Diag, theta)
	default:
		d.applyUnitary1Q(g.Qubits[0], gateMatrix(g.Kind, theta))
	}
}

// applyPauliRotDM conjugates rho by exp(-i theta/2 P) using
// U rho U^dag = cos^2 rho + sin^2 P rho P - i sin cos [P, rho].
func (d *DensityMatrix) applyPauliRotDM(p pauli.String, theta float64) {
	c, s := math.Cos(theta/2), math.Sin(theta/2)
	// P rho and rho P are one-sided forms of accumPauli's phased index
	// permutation; build them.
	x := int(p.XMask())
	z := p.ZMask()
	iPow := iPower(yCount(p))
	dim := d.dim
	out := d.getScratch()
	for i := range out {
		out[i] = 0
	}
	cc := complex(c*c, 0)
	ss := complex(s*s, 0)
	isc := complex(0, -s*c)
	for i := 0; i < dim; i++ {
		ci := pauliPhase(uint64(i), z, iPow)
		for j := 0; j < dim; j++ {
			cj := pauliPhase(uint64(j), z, iPow)
			rij := d.rho[i*dim+j]
			// Contributions to out from rho_{i,j}:
			// cos^2 rho at (i,j)
			out[i*dim+j] += cc * rij
			// sin^2 P rho P^dag at (i^x, j^x)
			out[(i^x)*dim+(j^x)] += ss * ci * complexConj(cj) * rij
			// -i sin cos (P rho) at (i^x, j): (P rho)_{i^x,j} = c(i) rho_{i,j}
			out[(i^x)*dim+j] += isc * ci * rij
			// +i sin cos (rho P) at (i, j^x): (rho P)_{i,j^x} = rho_{i,j} c(j)... note P^dag = P.
			// U rho U^dag = (cI - isP) rho (cI + isP) = c^2 rho + s^2 PrhoP - isc(P rho - rho P).
			out[i*dim+(j^x)] += (-isc) * complexConj(cj) * rij
		}
	}
	d.rho, d.scratch = out, d.rho
}

// RunDensity executes a circuit on a density matrix, interleaving the given
// noise hook after every gate (pass nil for ideal evolution).
func RunDensity(c *Circuit, params []float64, afterGate func(d *DensityMatrix, g Gate) error) (*DensityMatrix, error) {
	if err := c.Validate(params); err != nil {
		return nil, err
	}
	d := NewDensityMatrix(c.N())
	if err := d.runGates(c, params, afterGate); err != nil {
		return nil, err
	}
	return d, nil
}

// RunDensityInto executes a circuit from |0...0><0...0| into dst, reusing
// its rho and scratch buffers — the zero-allocation path the noisy batch
// evaluator re-runs circuits through.
func RunDensityInto(dst *DensityMatrix, c *Circuit, params []float64, afterGate func(d *DensityMatrix, g Gate) error) error {
	if dst.n != c.N() {
		return fmt.Errorf("qsim: %d-qubit circuit into %d-qubit density matrix", c.N(), dst.n)
	}
	if err := c.Validate(params); err != nil {
		return err
	}
	dst.Reset()
	return dst.runGates(c, params, afterGate)
}

// runGates applies every gate of a validated circuit, skipping the per-gate
// angle error path (Validate already proved it cannot fail). The afterGate
// hook can still fail, so the error return remains.
func (d *DensityMatrix) runGates(c *Circuit, params []float64, afterGate func(d *DensityMatrix, g Gate) error) error {
	for i := range c.gates {
		g := &c.gates[i]
		d.applyGateKind(g, g.resolveAngle(params))
		if afterGate != nil {
			if err := afterGate(d, *g); err != nil {
				return err
			}
		}
	}
	return nil
}

// Depolarize1Q applies the single-qubit depolarizing channel with
// probability p on qubit q: rho <- (1-p) rho + p/3 (X rho X + Y rho Y + Z rho Z).
// The Pauli orbit is accumulated directly from rho into a reused scratch
// matrix — no per-call copies or allocations.
func (d *DensityMatrix) Depolarize1Q(q int, p float64) error {
	if p < 0 || p > 1 {
		return fmt.Errorf("qsim: depolarizing probability %g out of [0,1]", p)
	}
	if p == 0 {
		return nil
	}
	acc := d.getAcc()
	for i := range acc {
		acc[i] = complex(1-p, 0) * d.rho[i]
	}
	w := complex(p/3, 0)
	for _, op := range []pauli.Op{pauli.X, pauli.Y, pauli.Z} {
		d.accumPauli(acc, d.rho, singleOp(d.n, q, op), w)
	}
	d.rho, d.acc = acc, d.rho
	return nil
}

// Depolarize2Q applies the two-qubit depolarizing channel with probability p
// on qubits a and b: rho <- (1-p) rho + p/15 sum_{P != II} P rho P.
func (d *DensityMatrix) Depolarize2Q(a, b int, p float64) error {
	if p < 0 || p > 1 {
		return fmt.Errorf("qsim: depolarizing probability %g out of [0,1]", p)
	}
	if p == 0 {
		return nil
	}
	acc := d.getAcc()
	for i := range acc {
		acc[i] = complex(1-p, 0) * d.rho[i]
	}
	ops := []pauli.Op{pauli.I, pauli.X, pauli.Y, pauli.Z}
	w := complex(p/15, 0)
	for _, oa := range ops {
		for _, ob := range ops {
			if oa == pauli.I && ob == pauli.I {
				continue
			}
			d.accumPauli(acc, d.rho, doubleOp(d.n, a, b, oa, ob), w)
		}
	}
	d.rho, d.acc = acc, d.rho
	return nil
}

func singleOp(n, q int, op pauli.Op) pauli.String {
	b := make([]byte, n)
	for i := range b {
		b[i] = 'I'
	}
	b[q] = byte(op)
	return pauli.MustString(string(b))
}

func doubleOp(n, a, b int, oa, ob pauli.Op) pauli.String {
	s := make([]byte, n)
	for i := range s {
		s[i] = 'I'
	}
	s[a] = byte(oa)
	s[b] = byte(ob)
	return pauli.MustString(string(s))
}

// ExpectationPauli computes Tr(rho P).
func (d *DensityMatrix) ExpectationPauli(p pauli.String) (float64, error) {
	if p.N() != d.n {
		return 0, fmt.Errorf("qsim: %d-qubit observable on %d-qubit density matrix", p.N(), d.n)
	}
	x := int(p.XMask())
	z := p.ZMask()
	iPow := iPower(yCount(p))
	var acc complex128
	for i := 0; i < d.dim; i++ {
		// Tr(rho P) = Tr(P rho) = sum_i c(i) rho_{i, i^x}.
		acc += d.rho[i*d.dim+(i^x)] * pauliPhase(uint64(i), z, iPow)
	}
	return real(acc), nil
}

// Expectation computes Tr(rho H) for a Pauli-sum Hamiltonian.
func (d *DensityMatrix) Expectation(h *pauli.Hamiltonian) (float64, error) {
	if h.N() != d.n {
		return 0, fmt.Errorf("qsim: %d-qubit Hamiltonian on %d-qubit density matrix", h.N(), d.n)
	}
	var total float64
	for _, t := range h.Terms() {
		e, err := d.ExpectationPauli(t.P)
		if err != nil {
			return 0, err
		}
		total += t.Coeff * e
	}
	return total, nil
}

// ExpectationDiagonal computes Tr(rho H) for a diagonal Hamiltonian from its
// precomputed energy table (table[b] = <b|H|b>): one fused pass over the
// diagonal of rho, independent of the term count.
func (d *DensityMatrix) ExpectationDiagonal(table []float64) (float64, error) {
	if len(table) != d.dim {
		return 0, fmt.Errorf("qsim: energy table length %d for %d-qubit density matrix", len(table), d.n)
	}
	var acc float64
	for i := 0; i < d.dim; i++ {
		acc += real(d.rho[i*d.dim+i]) * table[i]
	}
	return acc, nil
}

// Probabilities returns the computational-basis measurement distribution,
// the diagonal of rho.
func (d *DensityMatrix) Probabilities() []float64 {
	p := make([]float64, d.dim)
	for i := 0; i < d.dim; i++ {
		p[i] = real(d.rho[i*d.dim+i])
		if p[i] < 0 {
			p[i] = 0 // numerical cleanup
		}
	}
	return p
}

// ApplyReadoutError maps measurement probabilities through independent
// per-qubit confusion matrices: p01 = P(read 1 | true 0),
// p10 = P(read 0 | true 1). It returns a new distribution.
func ApplyReadoutError(probs []float64, n int, p01, p10 float64) ([]float64, error) {
	if len(probs) != 1<<uint(n) {
		return nil, fmt.Errorf("qsim: distribution length %d for %d qubits", len(probs), n)
	}
	if p01 < 0 || p01 > 1 || p10 < 0 || p10 > 1 {
		return nil, fmt.Errorf("qsim: readout error rates out of range: p01=%g p10=%g", p01, p10)
	}
	cur := append([]float64(nil), probs...)
	next := make([]float64, len(probs))
	for q := 0; q < n; q++ {
		bit := 1 << uint(q)
		for i := range next {
			next[i] = 0
		}
		for i, p := range cur {
			if p == 0 {
				continue
			}
			if i&bit == 0 {
				next[i] += p * (1 - p01)
				next[i|bit] += p * p01
			} else {
				next[i] += p * (1 - p10)
				next[i&^bit] += p * p10
			}
		}
		cur, next = next, cur
	}
	return cur, nil
}

// ExpectationFromDistributionTable evaluates a diagonal Hamiltonian, given as
// its energy table (table[b] = <b|H|b>), against an explicit probability
// distribution.
func ExpectationFromDistributionTable(table []float64, probs []float64) (float64, error) {
	if len(table) != len(probs) {
		return 0, fmt.Errorf("qsim: Hamiltonian dimension %d vs distribution %d", len(table), len(probs))
	}
	var e float64
	for i, p := range probs {
		e += p * table[i]
	}
	return e, nil
}

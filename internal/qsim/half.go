package qsim

import (
	"fmt"
	"math"
)

// half.go runs bit-flip-symmetric circuits on half the amplitudes. A
// circuit that opens with H on every qubit and then applies only RX gates
// and phase tables with t[b] == t[^b] (the complement of b within n bits)
// commutes with X on every qubit, so its state keeps psi[b] == psi[^b] at
// every step. In floating point this holds bit for bit: the RX matrix has
// equal diagonal and equal off-diagonal entries, and IEEE addition
// commutes. Every QAOA cut circuit with a ZZ-only cost (MaxCut, SK) is of
// this form.
//
// The half path stores only the 2^(n-1) amplitudes whose top qubit is
// clear, in an (n-1)-qubit State. Amplitude b | top is the stored b ^ low,
// with low = 2^(n-1)-1. Gates on qubits 0..n-2 run the ordinary kernels;
// an RX on the top qubit pairs b with b ^ low instead of b with b | top;
// phase tables read their first half. Every stored amplitude receives
// exactly the arithmetic the full-state kernels give it. ExpectationDiagonal
// sums each basis state k of the lower half together with its complement,
// whose term has k's bits on such a state, so the expectation reads only
// the stored half and the table's first half, and the energy is
// bit-identical to RunInto plus ExpectationDiagonal.

// flipSymmetric reports whether the circuit has the structure the half
// path needs: at least three qubits, an opening H on every qubit, and after
// it only RX gates and GateDiagonal gates whose tables are bitwise
// flip-symmetric. The check runs once per circuit and is memoized, like
// FuseDiagonals; the circuit must not be mutated after the first call.
func (c *Circuit) flipSymmetric() bool {
	c.flipOnce.Do(func() { c.flipSym = c.checkFlipSymmetric() })
	return c.flipSym
}

func (c *Circuit) checkFlipSymmetric() bool {
	n := c.n
	if n < 3 || len(c.gates) < n {
		return false
	}
	span := 0
	for _, g := range c.gates[:n] {
		if g.Kind != GateH || span&(1<<uint(g.Qubits[0])) != 0 {
			return false
		}
		span |= 1 << uint(g.Qubits[0])
	}
	checked := map[*PhaseTable]bool{}
	for i := n; i < len(c.gates); i++ {
		switch g := &c.gates[i]; g.Kind {
		case GateRX:
		case GateDiagonal:
			if g.Diag == nil || g.Diag.Len() != 1<<uint(n) {
				return false
			}
			if !checked[g.Diag] {
				if !flipSymmetricTable(g.Diag.vals) {
					return false
				}
				checked[g.Diag] = true
			}
		default:
			return false
		}
	}
	return true
}

// flipSymmetricTable reports whether t[b] and t[^b] have identical bits for
// every b.
func flipSymmetricTable(t []float64) bool {
	full := len(t) - 1
	for b := 0; b < len(t)/2; b++ {
		if math.Float64bits(t[b]) != math.Float64bits(t[b^full]) {
			return false
		}
	}
	return true
}

// HalfEnergy measures a diagonal energy on a flip-symmetric circuit while
// storing half the amplitudes. It is safe for concurrent use; each caller
// brings its own scratch state.
type HalfEnergy struct {
	c     *Circuit
	table []float64
}

// NewHalfEnergy returns the half-state path for circuit c measured against
// the diagonal energy table (table[b] = <b|H|b>). ok is false, and the
// caller must use RunInto plus ExpectationDiagonal, unless c has the
// structure above (see flipSymmetric) and the table is 2^n long and bitwise
// flip-symmetric.
func NewHalfEnergy(c *Circuit, table []float64) (h *HalfEnergy, ok bool) {
	if len(table) != 1<<uint(c.n) || !c.flipSymmetric() || !flipSymmetricTable(table) {
		return nil, false
	}
	return &HalfEnergy{c: c, table: table}, true
}

// N reports the qubit count of the scratch states Energy runs in: one less
// than the circuit's.
func (h *HalfEnergy) N() int { return h.c.n - 1 }

// Energy runs the circuit from |0...0> into dst, an N()-qubit scratch state
// that ends up holding the amplitudes with the top qubit clear, and returns
// <psi|H|psi>: bit-identical to RunInto on an n-qubit state followed by
// ExpectationDiagonal, for every dst worker setting. A depth-p QAOA circuit
// costs the sweeps RunInto does plus the expectation pass, each over half
// the amplitudes.
func (h *HalfEnergy) Energy(dst *State, params []float64) (float64, error) {
	if dst.n != h.N() {
		return 0, fmt.Errorf("qsim: %d-qubit half state for a %d-qubit circuit", dst.n, h.c.n)
	}
	if err := h.c.Validate(params); err != nil {
		return 0, err
	}
	dst.runHalf(h.c, params)
	return dst.expectationMirrored(h.table), nil
}

// runHalf is runGates on the stored half of a flip-symmetric circuit's
// state. prepare needs no change: the opening H layer gives every stored
// amplitude the full-state value (every stored index lies in its span, so
// the pass is a pure gather), and a folded phase table is read at the
// stored indices only.
func (s *State) runHalf(c *Circuit, params []float64) {
	gates := c.gates
	for i := s.prepare(gates, params); i < len(gates); i++ {
		g := &gates[i]
		theta := g.resolveAngle(params)
		if g.Kind == GateDiagonal {
			s.applyPhaseTable(g.Diag, theta)
			continue
		}
		m := gateMatrix(g.Kind, theta)
		if q, mh, ok := mixedPartner(gates, i, m, params); ok {
			s.applyMixedPairMasks(s.flipMask(g.Qubits[0]), s.flipMask(q), mixedOf(m), mixedOf(mh))
			i++
			continue
		}
		if d := s.flipMask(g.Qubits[0]); d&(d-1) == 0 {
			s.apply1Q(g.Qubits[0], m)
		} else if classify(m) == classMixed {
			// The top qubit's RX pairs b with b ^ low. RX(0) is the only
			// other case (classPhase, m11 = 1); it touches only the
			// unstored half, so it is skipped.
			s.applyMixed1Q(d, len(s.amp)>>1-1, mixedOf(m))
		}
	}
}

// flipMask returns the index mask qubit q flips on the stored half: its
// bit for qubits 0..n-2, and the complement mask low for the top qubit,
// whose flip takes a stored b to the mirror of b | top.
func (s *State) flipMask(q int) int {
	if bit := 1 << uint(q); bit < len(s.amp) {
		return bit
	}
	return len(s.amp) - 1
}

// expectationMirrored is ExpectationDiagonal over the full state s stores
// half of. ExpectationDiagonal pairs each k below 2^(n-1) with its
// complement k^full, whose amplitude is the stored amp[k] and whose table
// entry has table[k]'s bits, so term(k^full) has term(k)'s bits. The pass
// therefore reads only the stored half and the table's first half, and
// adds x + x with x = term(k) into accumulator k mod 4: exactly
// ExpectationDiagonal's additions. The stored half has at least 4 entries
// (NewHalfEnergy needs three qubits), a multiple of 4.
func (s *State) expectationMirrored(table []float64) float64 {
	amp := s.amp
	table = table[:len(amp)]
	var a0, a1, a2, a3 float64
	for k := 0; k < len(amp); k += 4 {
		a, t := amp[k:k+4:k+4], table[k:k+4:k+4]
		x0, x1 := energyTerm(a[0], t[0]), energyTerm(a[1], t[1])
		x2, x3 := energyTerm(a[2], t[2]), energyTerm(a[3], t[3])
		a0 += x0 + x0
		a1 += x1 + x1
		a2 += x2 + x2
		a3 += x3 + x3
	}
	return (a0 + a1) + (a2 + a3)
}

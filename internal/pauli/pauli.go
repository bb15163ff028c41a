// Package pauli implements Pauli-string observables and Hamiltonians
// (weighted sums of Pauli strings). VQA cost functions are expectation values
// of such Hamiltonians, so this package is the observable layer shared by the
// problem definitions and the simulators.
package pauli

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// Op is a single-qubit Pauli operator.
type Op byte

// The four single-qubit Pauli operators.
const (
	I Op = 'I'
	X Op = 'X'
	Y Op = 'Y'
	Z Op = 'Z'
)

// String is a Pauli string over n qubits, stored as one Op per qubit with
// qubit 0 first (e.g. "ZZI" acts with Z on qubits 0 and 1 of a 3-qubit
// register).
type String struct {
	ops []Op
}

// NewString parses a Pauli string such as "IZZX". Only characters I, X, Y, Z
// are allowed.
func NewString(s string) (String, error) {
	if len(s) == 0 {
		return String{}, fmt.Errorf("pauli: empty string")
	}
	ops := make([]Op, len(s))
	for i := 0; i < len(s); i++ {
		switch c := Op(s[i]); c {
		case I, X, Y, Z:
			ops[i] = c
		default:
			return String{}, fmt.Errorf("pauli: invalid operator %q at position %d", s[i], i)
		}
	}
	return String{ops: ops}, nil
}

// MustString is NewString that panics on error, for literals in tests and
// problem tables.
func MustString(s string) String {
	p, err := NewString(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Identity returns the n-qubit identity string.
func Identity(n int) String {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = I
	}
	return String{ops: ops}
}

// SingleZ returns the n-qubit string with Z on qubit q.
func SingleZ(n, q int) String {
	s := Identity(n)
	s.ops[q] = Z
	return s
}

// ZZ returns the n-qubit string with Z on qubits a and b.
func ZZ(n, a, b int) String {
	s := Identity(n)
	s.ops[a] = Z
	s.ops[b] = Z
	return s
}

// N reports the number of qubits.
func (p String) N() int { return len(p.ops) }

// At returns the operator on qubit q.
func (p String) At(q int) Op { return p.ops[q] }

// Weight counts the non-identity positions.
func (p String) Weight() int {
	w := 0
	for _, o := range p.ops {
		if o != I {
			w++
		}
	}
	return w
}

// IsDiagonal reports whether the string contains only I and Z, i.e. is
// diagonal in the computational basis.
func (p String) IsDiagonal() bool {
	for _, o := range p.ops {
		if o == X || o == Y {
			return false
		}
	}
	return true
}

// ZMask returns a bitmask with bit q set when the string has Z (or Y) on
// qubit q; used by fast diagonal expectation paths.
func (p String) ZMask() uint64 {
	var m uint64
	for q, o := range p.ops {
		if o == Z || o == Y {
			m |= 1 << uint(q)
		}
	}
	return m
}

// XMask returns a bitmask with bit q set when the string has X (or Y) on
// qubit q.
func (p String) XMask() uint64 {
	var m uint64
	for q, o := range p.ops {
		if o == X || o == Y {
			m |= 1 << uint(q)
		}
	}
	return m
}

// String renders the Pauli string.
func (p String) String() string {
	b := make([]byte, len(p.ops))
	for i, o := range p.ops {
		b[i] = byte(o)
	}
	return string(b)
}

// Term is a weighted Pauli string in a Hamiltonian.
type Term struct {
	Coeff float64
	P     String
}

// Hamiltonian is a real-weighted sum of Pauli strings on a fixed qubit
// count, H = Σ_k c_k P_k.
type Hamiltonian struct {
	n     int
	terms []Term
}

// NewHamiltonian creates an empty Hamiltonian on n qubits.
func NewHamiltonian(n int) *Hamiltonian {
	if n <= 0 {
		panic(fmt.Sprintf("pauli: invalid qubit count %d", n))
	}
	return &Hamiltonian{n: n}
}

// N reports the qubit count.
func (h *Hamiltonian) N() int { return h.n }

// Terms returns the term list (do not mutate).
func (h *Hamiltonian) Terms() []Term { return h.terms }

// Add appends coeff*P, merging with an existing identical string if present.
func (h *Hamiltonian) Add(coeff float64, p String) error {
	if p.N() != h.n {
		return fmt.Errorf("pauli: term on %d qubits added to %d-qubit Hamiltonian", p.N(), h.n)
	}
	key := p.String()
	for i := range h.terms {
		if h.terms[i].P.String() == key {
			h.terms[i].Coeff += coeff
			return nil
		}
	}
	h.terms = append(h.terms, Term{Coeff: coeff, P: p})
	return nil
}

// MustAdd is Add that panics on error.
func (h *Hamiltonian) MustAdd(coeff float64, p String) {
	if err := h.Add(coeff, p); err != nil {
		panic(err)
	}
}

// IsDiagonal reports whether every term is diagonal.
func (h *Hamiltonian) IsDiagonal() bool {
	for _, t := range h.terms {
		if !t.P.IsDiagonal() {
			return false
		}
	}
	return true
}

// IdentityCoeff returns the coefficient of the identity term (the trace part
// of the Hamiltonian divided by 2^n), which noise channels leave untouched.
func (h *Hamiltonian) IdentityCoeff() float64 {
	var c float64
	for _, t := range h.terms {
		if t.P.Weight() == 0 {
			c += t.Coeff
		}
	}
	return c
}

// DiagonalValues evaluates a diagonal Hamiltonian on every computational
// basis state, returning a vector of length 2^n with entry b equal to
// <b|H|b>. It errors if the Hamiltonian has off-diagonal terms.
func (h *Hamiltonian) DiagonalValues() ([]float64, error) {
	if !h.IsDiagonal() {
		return nil, fmt.Errorf("pauli: Hamiltonian has off-diagonal terms")
	}
	dim := 1 << uint(h.n)
	out := make([]float64, dim)
	for _, t := range h.terms {
		AddZDiagonal(out, t.P.ZMask(), t.Coeff)
	}
	return out, nil
}

// AddZDiagonal adds coeff times the diagonal of the Z string with bit mask
// zmask to table: coeff to entry b when b&zmask has even parity, −coeff
// when odd, for a table of 2^n entries. x − c ≡ x + (−c) in IEEE
// arithmetic, so each entry gets exactly the sum a branch on the parity
// would give. Inside an aligned block of the mask's second-lowest bit only
// its lowest bit varies, so the sign is picked once per block and then
// alternates between runs of the lowest bit's length; the adds carry no
// index math, even when that bit is bit 0 or 1.
func AddZDiagonal(table []float64, zmask uint64, coeff float64) {
	n := len(table)
	run, block := lowBit(zmask, n), n
	if run < n {
		block = lowBit(zmask&^uint64(run), n)
	}
	signed := [2]float64{coeff, -coeff}
	for start := 0; start < n; start += block {
		par := bits.OnesCount64(uint64(start)&zmask) & 1
		v, w := signed[par], signed[par^1]
		blk := table[start : start+block]
		switch {
		case run == block:
			for i := range blk {
				blk[i] += v
			}
		case run == 1:
			for i := 0; i+1 < len(blk); i += 2 {
				blk[i] += v
				blk[i+1] += w
			}
		case run == 2:
			for i := 0; i+3 < len(blk); i += 4 {
				blk[i] += v
				blk[i+1] += v
				blk[i+2] += w
				blk[i+3] += w
			}
		default:
			for r := 0; r < len(blk); r += 2 * run {
				pos, neg := blk[r:r+run], blk[r+run:r+2*run]
				for i := range pos {
					pos[i] += v
				}
				for i := range neg {
					neg[i] += w
				}
			}
		}
	}
}

// lowBit returns zmask's lowest set bit below n (a power of two), or n if
// it has none.
func lowBit(zmask uint64, n int) int {
	if low := zmask & -zmask; low != 0 && low < uint64(n) {
		return int(low)
	}
	return n
}

// DiagonalTable is DiagonalValues under the name the simulator's fused
// expectation path uses: the precomputed 2^n energy vector that turns a
// per-term O(terms * 2^n) expectation into a single O(2^n) pass (see
// qsim.State.ExpectationDiagonal, which sums entry b with its complement's,
// so a ZZ-only table lets a flip-symmetric state read only its first
// half). Entry b accumulates terms in term order,
// exactly like EvalBitstring, so the two agree bit-for-bit. The table is
// worth caching — problem.Problem memoizes one per Hamiltonian.
func (h *Hamiltonian) DiagonalTable() ([]float64, error) {
	return h.DiagonalValues()
}

// EvalBitstring evaluates a diagonal Hamiltonian on a single basis state
// given as a bitmask (bit q = qubit q).
func (h *Hamiltonian) EvalBitstring(b uint64) (float64, error) {
	if !h.IsDiagonal() {
		return 0, fmt.Errorf("pauli: Hamiltonian has off-diagonal terms")
	}
	var v float64
	for _, t := range h.terms {
		if parity(b & t.P.ZMask()) {
			v -= t.Coeff
		} else {
			v += t.Coeff
		}
	}
	return v, nil
}

// Bounds returns a crude interval [lo, hi] containing all eigenvalues:
// identity coefficient ± sum of |coeff| of non-identity terms.
func (h *Hamiltonian) Bounds() (lo, hi float64) {
	id := h.IdentityCoeff()
	var r float64
	for _, t := range h.terms {
		if t.P.Weight() > 0 {
			r += math.Abs(t.Coeff)
		}
	}
	return id - r, id + r
}

// String renders the Hamiltonian in a stable, human-readable order.
func (h *Hamiltonian) String() string {
	parts := make([]string, 0, len(h.terms))
	terms := append([]Term(nil), h.terms...)
	sort.Slice(terms, func(i, j int) bool { return terms[i].P.String() < terms[j].P.String() })
	for _, t := range terms {
		parts = append(parts, fmt.Sprintf("%+.6g*%s", t.Coeff, t.P))
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, " ")
}

// parity reports whether x has odd population count, via the hardware
// popcount instruction rather than a hand-rolled xor-fold chain.
func parity(x uint64) bool {
	return bits.OnesCount64(x)&1 == 1
}

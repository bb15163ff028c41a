package qsim

import (
	"math"
	"sort"

	"repro/internal/pauli"
)

// fuse.go implements the circuit-level diagonal-fusion peephole pass: every
// maximal run of adjacent diagonal gates (CZ, RZZ, diagonal Pauli
// rotations, and existing GateDiagonal gates) collapses into at most
// one GateDiagonal per parameter index. A diagonal unitary is exp(-i f(b))
// for a real per-basis exponent f, and diagonal gates commute, so a run's
// exponents simply add: fixed-angle gates accumulate into one constant
// table, and every gate bound to parameter p accumulates scale * gen(b)
// into p's table, applied later as exp(-i * params[p] * table[b]). A QAOA
// cost layer — one RZZ per edge, all bound to the same gamma — becomes a
// single O(2^n) phase pass instead of |E| kernel sweeps.

// IsDiagonal reports whether the gate acts diagonally in the computational
// basis (multiplies each amplitude by a phase), making it fusible.
func (g *Gate) IsDiagonal() bool {
	switch g.Kind {
	case GateCZ, GateRZZ, GateDiagonal:
		return true
	case GatePauliRot:
		return g.Pauli.XMask() == 0
	}
	return false
}

// FuseDiagonals returns an equivalent circuit with adjacent diagonal-gate
// runs collapsed into GateDiagonal phase-table gates. The result is
// memoized: evaluators sharing one circuit (the batch-landscape regime)
// share one fused circuit and its interned tables, so each table's
// O(run * 2^n) construction is paid once per circuit, not once per
// evaluator or per point. Do not mutate the circuit after the first call.
//
// The fused circuit computes each collapsed run as exp(-i * theta *
// table[b]) rather than as a product of per-gate phases, which reorders the
// floating-point phase arithmetic: amplitudes agree with the unfused
// circuit to rounding (~1e-15 per gate), not bit-for-bit. Runs that would
// not shrink (fewer than two gates, or as many tables as gates) are emitted
// unchanged. Parameter arity is preserved.
func (c *Circuit) FuseDiagonals() *Circuit {
	c.fuseOnce.Do(func() { c.fused = c.fuseDiagonals() })
	return c.fused
}

// tableDedup interns phase tables by content so identical runs (the p cost
// layers of a QAOA circuit) share one *PhaseTable — one memoized table, one
// lazy compression, for every layer and every gamma.
type tableDedup map[uint64][]*PhaseTable

func (d tableDedup) intern(vals []float64) *PhaseTable {
	// FNV-1a over whole 8-byte values: a weaker mix than byte-wise FNV,
	// but equalFloats confirms every hit.
	key := uint64(14695981039346656037)
	for _, v := range vals {
		key = (key ^ math.Float64bits(v)) * 1099511628211
	}
	for _, t := range d[key] {
		if equalFloats(t.vals, vals) {
			return t
		}
	}
	t := NewPhaseTable(vals)
	d[key] = append(d[key], t)
	return t
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func (c *Circuit) fuseDiagonals() *Circuit {
	out := &Circuit{n: c.n, numParams: c.numParams}
	dedup := tableDedup{}
	var run []*Gate
	for i := range c.gates {
		g := &c.gates[i]
		if g.IsDiagonal() {
			run = append(run, g)
			continue
		}
		out.flushRun(run, dedup)
		run = run[:0]
		out.gates = append(out.gates, *g)
	}
	out.flushRun(run, dedup)
	if len(out.gates) == len(c.gates) {
		return c // nothing fused: share the original
	}
	return out
}

// flushRun collapses one run of adjacent diagonal gates into per-parameter
// GateDiagonal gates (constant contributions first, then parameters in
// ascending index order), or emits the run unchanged when fusion would not
// reduce the gate count.
func (out *Circuit) flushRun(run []*Gate, dedup tableDedup) {
	if len(run) < 2 {
		for _, g := range run {
			out.gates = append(out.gates, *g)
		}
		return
	}
	dim := 1 << uint(out.n)
	// tables[p] accumulates parameter p's generator; -1 keys the constant
	// (fixed-angle) contributions, applied with angle 1.
	tables := map[int][]float64{}
	get := func(param int) []float64 {
		t := tables[param]
		if t == nil {
			t = make([]float64, dim)
			tables[param] = t
		}
		return t
	}
	for _, g := range run {
		switch {
		case !g.Kind.parametric(): // CZ: a fixed phase
			accumDiagGen(get(-1), 1, g)
		case g.Param < 0:
			accumDiagGen(get(-1), g.Theta, g)
		default:
			accumDiagGen(get(g.Param), g.Scale, g)
			if g.Theta != 0 {
				accumDiagGen(get(-1), g.Theta, g)
			}
		}
	}
	if len(tables) >= len(run) {
		for _, g := range run {
			out.gates = append(out.gates, *g)
		}
		return
	}
	params := make([]int, 0, len(tables))
	for p := range tables {
		params = append(params, p)
	}
	sort.Ints(params)
	for _, p := range params {
		g := Gate{Kind: GateDiagonal, Diag: dedup.intern(tables[p]), Param: p}
		if p < 0 {
			g.Theta = 1
		} else {
			g.Scale = 1
		}
		out.gates = append(out.gates, g)
	}
}

// accumDiagGen adds w times gate g's per-basis phase generator into table,
// where g applied with angle theta multiplies amplitude b by
// exp(-i * theta * gen(b)) (theta taken as 1 for the non-parametric CZ,
// whose full phase lives in the generator).
func accumDiagGen(table []float64, w float64, g *Gate) {
	if w == 0 {
		return
	}
	switch g.Kind {
	case GateCZ: // -1 on |11>
		ab, bb := 1<<uint(g.Qubits[0]), 1<<uint(g.Qubits[1])
		wpi := w * math.Pi
		for b := range table {
			if b&ab != 0 && b&bb != 0 {
				table[b] += wpi
			}
		}
	case GateRZZ: // exp(-i theta/2) on even parity, exp(+i theta/2) on odd
		pauli.AddZDiagonal(table, 1<<uint(g.Qubits[0])|1<<uint(g.Qubits[1]), w/2)
	case GatePauliRot: // diagonal (X-free) string: exp(-i theta/2 * sign(b))
		pauli.AddZDiagonal(table, g.Pauli.ZMask(), w/2)
	case GateDiagonal:
		vals := g.Diag.Values()
		for b := range table {
			table[b] += w * vals[b]
		}
	default:
		panic("qsim: accumDiagGen on non-diagonal gate " + g.Kind.String())
	}
}

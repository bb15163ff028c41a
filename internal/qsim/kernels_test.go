package qsim

// kernels_test.go pins the rebuilt strided gate kernels to the seed
// implementations they replaced: every kernel is compared amplitude-by-
// amplitude against a literal copy of the seed's branchy full-scan loops,
// across gate kinds, qubit counts, and worker counts. Elementwise kernels
// must match bit-for-bit (they perform the same multiplies on the same
// elements, only enumerated differently); expectation reductions, whose
// summation order legitimately changed, are held to 1e-12.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/pauli"
)

// --- seed reference implementations (verbatim semantics) ---

func refParity(x uint64) bool {
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return x&1 == 1
}

func refSignC(masked uint64) complex128 {
	if refParity(masked) {
		return -1
	}
	return 1
}

func refApply1Q(amp []complex128, q int, m [2][2]complex128) {
	bit := 1 << uint(q)
	dim := len(amp)
	for base := 0; base < dim; base += bit << 1 {
		for i := base; i < base+bit; i++ {
			a0 := amp[i]
			a1 := amp[i|bit]
			amp[i] = m[0][0]*a0 + m[0][1]*a1
			amp[i|bit] = m[1][0]*a0 + m[1][1]*a1
		}
	}
}

func refApplyCZ(amp []complex128, a, b int) {
	ab := 1 << uint(a)
	bb := 1 << uint(b)
	for i := range amp {
		if i&ab != 0 && i&bb != 0 {
			amp[i] = -amp[i]
		}
	}
}

func refApplyRZZ(amp []complex128, a, b int, theta float64) {
	ab := 1 << uint(a)
	bb := 1 << uint(b)
	pPlus := complex(math.Cos(theta/2), -math.Sin(theta/2))
	pMinus := complex(math.Cos(theta/2), math.Sin(theta/2))
	for i := range amp {
		even := (i&ab != 0) == (i&bb != 0)
		if even {
			amp[i] *= pPlus
		} else {
			amp[i] *= pMinus
		}
	}
}

func refApplyPauliRot(amp []complex128, p pauli.String, theta float64) {
	x := p.XMask()
	z := p.ZMask()
	nY := 0
	for q := 0; q < p.N(); q++ {
		if p.At(q) == pauli.Y {
			nY++
		}
	}
	cosT := complex(math.Cos(theta/2), 0)
	minusISin := complex(0, -math.Sin(theta/2))
	iPow := iPower(nY)
	if x == 0 {
		for b := range amp {
			sign := complex(1, 0)
			if refParity(uint64(b) & z) {
				sign = -1
			}
			amp[b] *= cosT + minusISin*iPow*sign
		}
		return
	}
	xi := int(x)
	for b := range amp {
		b2 := b ^ xi
		if b > b2 {
			continue
		}
		cb := iPow * refSignC(uint64(b)&z)
		cb2 := iPow * refSignC(uint64(b2)&z)
		a, a2 := amp[b], amp[b2]
		amp[b] = cosT*a + minusISin*cb2*a2
		amp[b2] = cosT*a2 + minusISin*cb*a
	}
}

// refApplyGate dispatches one resolved gate through the seed kernels.
func refApplyGate(amp []complex128, g Gate, params []float64) {
	theta, err := g.Angle(params)
	if err != nil {
		panic(err)
	}
	switch g.Kind {
	case GateCZ:
		refApplyCZ(amp, g.Qubits[0], g.Qubits[1])
	case GateRZZ:
		refApplyRZZ(amp, g.Qubits[0], g.Qubits[1], theta)
	case GatePauliRot:
		refApplyPauliRot(amp, g.Pauli, theta)
	case GateDiagonal:
		refApplyPhaseTable(amp, g.Diag.Values(), theta)
	default:
		refApply1Q(amp, g.Qubits[0], gateMatrix(g.Kind, theta))
	}
}

// refExpectationPauli is the seed full-scan expectation (every index
// visited, each pair's cross terms computed twice).
func refExpectationPauli(amp []complex128, p pauli.String) float64 {
	x := p.XMask()
	z := p.ZMask()
	nY := 0
	for q := 0; q < p.N(); q++ {
		if p.At(q) == pauli.Y {
			nY++
		}
	}
	iPow := iPower(nY)
	var acc complex128
	xi := int(x)
	for b := range amp {
		cb := iPow * refSignC(uint64(b)&z)
		acc += complexConj(amp[b^xi]) * cb * amp[b]
	}
	return real(acc)
}

// angles holds a test circuit's parameter vector, one entry per fixed
// angle: c.RXP(q, a.bind(theta), 1) appends an RX(theta) that Run(c, a)
// resolves to exactly theta (1*theta + 0).
type angles []float64

// bind appends theta and returns its parameter index.
func (a *angles) bind(theta float64) int {
	*a = append(*a, theta)
	return len(*a) - 1
}

// allKindsCircuit builds a random circuit that exercises every gate kind
// the builders make and every single-qubit kernel class, including a
// zero-angle rotation (an exact identity, which takes the phase kernel).
// Every rotation binds its own parameter; the returned angles bind them.
func allKindsCircuit(n, depth int, rng *rand.Rand) (*Circuit, angles) {
	c := NewCircuit(n)
	var ang angles
	angle := func() int { return ang.bind(rng.Float64() * 4 * math.Pi) }
	for d := 0; d < depth; d++ {
		switch k := rng.Intn(8); k {
		case 0:
			c.H(rng.Intn(n))
		case 1:
			c.X(rng.Intn(n))
		case 2:
			c.RXP(rng.Intn(n), angle(), 1)
		case 3:
			c.RYP(rng.Intn(n), angle(), 1)
		case 4:
			if q := rng.Intn(n); rng.Intn(2) == 0 {
				c.RXP(q, ang.bind(0), 1)
			} else {
				c.RYP(q, ang.bind(0), 1)
			}
		case 5, 6:
			if n == 1 {
				c.H(0)
				continue
			}
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			if k == 5 {
				c.CZ(a, b)
			} else {
				c.RZZP(a, b, angle(), 1)
			}
		default:
			ops := []byte{'I', 'X', 'Y', 'Z'}
			b := make([]byte, n)
			nonI := false
			for i := range b {
				b[i] = ops[rng.Intn(4)]
				if b[i] != 'I' {
					nonI = true
				}
			}
			if !nonI {
				b[rng.Intn(n)] = ops[1+rng.Intn(3)]
			}
			c.PauliRotP(pauli.MustString(string(b)), angle(), 1)
		}
	}
	return c, ang
}

// TestKernelsBitIdenticalToSeed drives random circuits gate-by-gate through
// the strided kernels and the seed reference loops, requiring exact
// amplitude equality after every gate, for several qubit counts and worker
// settings.
func TestKernelsBitIdenticalToSeed(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 10} {
		for _, workers := range []int{1, 3} {
			rng := rand.New(rand.NewSource(int64(100*n + workers)))
			c, ang := allKindsCircuit(n, 60, rng)
			s := NewState(n).SetWorkers(workers)
			ref := make([]complex128, 1<<uint(n))
			ref[0] = 1
			for gi, g := range c.Gates() {
				if err := s.ApplyGate(g, ang); err != nil {
					t.Fatal(err)
				}
				refApplyGate(ref, g, ang)
				for i := range ref {
					if s.amp[i] != ref[i] {
						t.Fatalf("n=%d workers=%d gate %d (%s): amp[%d] = %v, seed %v",
							n, workers, gi, g.Kind, i, s.amp[i], ref[i])
					}
				}
			}
		}
	}
}

// TestKernelShardingBitIdentical runs a 15-qubit circuit — large enough
// that every kernel actually shards — under several worker counts and
// requires exact equality with the serial result.
func TestKernelShardingBitIdentical(t *testing.T) {
	const n = 15
	rng := rand.New(rand.NewSource(99))
	c, ang := allKindsCircuit(n, 25, rng)
	serial, err := Run(c, ang)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		s := NewState(n).SetWorkers(workers)
		if err := RunInto(s, c, ang); err != nil {
			t.Fatal(err)
		}
		for i := range serial.amp {
			if s.amp[i] != serial.amp[i] {
				t.Fatalf("workers=%d: amp[%d] = %v, serial %v", workers, i, s.amp[i], serial.amp[i])
			}
		}
	}
}

// TestRunIntoReuse re-runs different circuits through one reused state and
// requires exact equality with fresh runs.
func TestRunIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewState(5)
	for trial := 0; trial < 10; trial++ {
		c, ang := allKindsCircuit(5, 40, rng)
		if err := RunInto(s, c, ang); err != nil {
			t.Fatal(err)
		}
		fresh, err := Run(c, ang)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fresh.amp {
			if s.amp[i] != fresh.amp[i] {
				t.Fatalf("trial %d: amp[%d] = %v, fresh %v", trial, i, s.amp[i], fresh.amp[i])
			}
		}
	}
	if c, ang := allKindsCircuit(3, 5, rng); RunInto(s, c, ang) == nil {
		t.Fatal("want dimension mismatch error")
	}
}

// TestExpectationPauliMatchesSeed compares the pair-once expectation against
// the seed full scan. Diagonal strings keep the seed's exact summation
// (bit-identical); off-diagonal strings halve the visits, which reorders the
// floating-point sum, so they are held to 1e-12.
func TestExpectationPauliMatchesSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 2, 4, 6} {
		s, err := Run(allKindsCircuit(n, 50, rng))
		if err != nil {
			t.Fatal(err)
		}
		ops := []byte{'I', 'X', 'Y', 'Z'}
		for trial := 0; trial < 50; trial++ {
			b := make([]byte, n)
			for i := range b {
				b[i] = ops[rng.Intn(4)]
			}
			p := pauli.MustString(string(b))
			got, err := s.ExpectationPauli(p)
			if err != nil {
				t.Fatal(err)
			}
			want := refExpectationPauli(s.amp, p)
			if p.XMask() == 0 {
				if got != want {
					t.Fatalf("n=%d %s: diagonal expectation %v, seed %v", n, p, got, want)
				}
				continue
			}
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("n=%d %s: expectation %v, seed %v", n, p, got, want)
			}
		}
	}
}

// TestExpectationDiagonalMatchesPerTerm checks the fused table pass against
// the per-term path and pins the table itself to EvalBitstring bit-for-bit.
func TestExpectationDiagonalMatchesPerTerm(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 6
	s, err := Run(allKindsCircuit(n, 60, rng))
	if err != nil {
		t.Fatal(err)
	}
	h := pauli.NewHamiltonian(n)
	h.MustAdd(0.75, pauli.Identity(n))
	for trial := 0; trial < 12; trial++ {
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(n-1)) % n
		h.MustAdd(rng.NormFloat64(), pauli.ZZ(n, a, b))
		h.MustAdd(rng.NormFloat64(), pauli.SingleZ(n, rng.Intn(n)))
	}
	table, err := h.DiagonalValues()
	if err != nil {
		t.Fatal(err)
	}
	for b := range table {
		want, err := h.EvalBitstring(uint64(b))
		if err != nil {
			t.Fatal(err)
		}
		if table[b] != want {
			t.Fatalf("table[%d] = %v, EvalBitstring %v", b, table[b], want)
		}
	}
	fused, err := s.ExpectationDiagonal(table)
	if err != nil {
		t.Fatal(err)
	}
	perTerm, err := s.Expectation(h)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fused-perTerm) > 1e-10*(1+math.Abs(perTerm)) {
		t.Fatalf("fused %v vs per-term %v", fused, perTerm)
	}
	if _, err := s.ExpectationDiagonal(make([]float64, 4)); err == nil {
		t.Fatal("want table length error")
	}
}

// --- fused diagonal phase-table pins ---

// refApplyPhaseTable is the reference phase-table sweep: one Sincos per
// amplitude, no compression, no sharding.
func refApplyPhaseTable(amp []complex128, vals []float64, theta float64) {
	for b := range amp {
		sn, cs := math.Sincos(theta * vals[b])
		amp[b] *= complex(cs, -sn)
	}
}

// TestPhaseTableKernelMatchesReference pins applyPhaseTable against the
// reference sweep on both the LUT path (few distinct values) and the direct
// path (all-distinct values), serial and sharded. Equality is exact: the
// value compression is bit-preserving and both paths evaluate the identical
// Sincos argument per amplitude.
func TestPhaseTableKernelMatchesReference(t *testing.T) {
	for _, n := range []int{4, 8, 15} {
		for _, distinct := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(7*n + 1)))
			dim := 1 << uint(n)
			vals := make([]float64, dim)
			for b := range vals {
				if distinct {
					vals[b] = rng.NormFloat64() * 3
				} else {
					// Two distinct values keeps the LUT path engaged even at
					// n=4, where the compression limit is dim/8 = 2.
					vals[b] = float64(rng.Intn(2)*3 - 1)
				}
			}
			tbl := NewPhaseTable(vals)
			if _, _, lut := tbl.compressed(); lut == distinct {
				t.Fatalf("n=%d distinct=%v: unexpected compression choice %v", n, distinct, lut)
			}
			for _, workers := range []int{1, 3} {
				rs := rand.New(rand.NewSource(int64(n)))
				s := NewState(n).SetWorkers(workers)
				ref := make([]complex128, dim)
				for b := range ref {
					s.amp[b] = complex(rs.NormFloat64(), rs.NormFloat64())
					ref[b] = s.amp[b]
				}
				theta := 0.37
				s.applyPhaseTable(tbl, theta)
				refApplyPhaseTable(ref, vals, theta)
				for b := range ref {
					if s.amp[b] != ref[b] {
						t.Fatalf("n=%d distinct=%v workers=%d: amp[%d] = %v, ref %v",
							n, distinct, workers, b, s.amp[b], ref[b])
					}
				}
			}
		}
	}
}

// fusedPinCase builds the frozen-seed QAOA-shaped circuit and parameters the
// fused-vs-edge-by-edge pins run.
func fusedPinCase(t *testing.T, n, p int) (*Circuit, *Circuit, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(1000*n + p)))
	edges := make([][2]int, 0, n*2)
	weights := make([]float64, 0, n*2)
	for q := 0; q < n; q++ {
		edges = append(edges, [2]int{q, (q + 1) % n})
		weights = append(weights, 0.5+rng.Float64())
		if q+3 < n {
			edges = append(edges, [2]int{q, q + 3})
			weights = append(weights, 0.5+rng.Float64())
		}
	}
	c := qaoaLikeCircuit(n, p, edges, weights)
	f := c.FuseDiagonals()
	if f == c {
		t.Fatal("pin circuit did not fuse")
	}
	params := make([]float64, 2*p)
	for i := range params {
		params[i] = (rng.Float64() - 0.5) * math.Pi
	}
	return c, f, params
}

// TestFusedMatchesEdgeByEdgeStateVector pins the fused statevector path to
// the edge-by-edge kernels on frozen-seed QAOA circuits, p=1 and stacked
// p=2, serial and sharded. Fusion legitimately reorders the phase
// arithmetic (exp of a summed generator instead of a product of per-gate
// phases), so amplitudes are held to 1e-12 — the file's tolerance for
// reordered floating point — while serial and sharded fused runs of the
// same circuit must agree exactly.
func TestFusedMatchesEdgeByEdgeStateVector(t *testing.T) {
	for _, p := range []int{1, 2} {
		const n = 10
		c, f, params := fusedPinCase(t, n, p)
		edge, err := Run(c, params)
		if err != nil {
			t.Fatal(err)
		}
		fused, err := Run(f, params)
		if err != nil {
			t.Fatal(err)
		}
		for i := range edge.amp {
			d := fused.amp[i] - edge.amp[i]
			if math.Hypot(real(d), imag(d)) > 1e-12 {
				t.Fatalf("p=%d: amp[%d] fused %v, edge-by-edge %v", p, i, fused.amp[i], edge.amp[i])
			}
		}
		for _, workers := range []int{2, 3, 8} {
			s := NewState(n).SetWorkers(workers)
			if err := RunInto(s, f, params); err != nil {
				t.Fatal(err)
			}
			for i := range fused.amp {
				if s.amp[i] != fused.amp[i] {
					t.Fatalf("p=%d workers=%d: fused amp[%d] = %v, serial %v",
						p, workers, i, s.amp[i], fused.amp[i])
				}
			}
		}
	}
}

// TestFusedMatchesEdgeByEdgeDensity pins the fused density-matrix path the
// same way: ideal evolution of the fused circuit must match the edge-by-edge
// circuit entrywise to the reordered-arithmetic tolerance.
func TestFusedMatchesEdgeByEdgeDensity(t *testing.T) {
	for _, p := range []int{1, 2} {
		const n = 6
		c, f, params := fusedPinCase(t, n, p)
		edge, err := RunDensity(c, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		fused, err := RunDensity(f, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range edge.rho {
			d := fused.rho[i] - edge.rho[i]
			if math.Hypot(real(d), imag(d)) > 1e-12 {
				t.Fatalf("p=%d: rho[%d] fused %v, edge-by-edge %v", p, i, fused.rho[i], edge.rho[i])
			}
		}
	}
}

// TestDensityDiagonalPrecomputeBitIdentical pins the precomputed-phase-vector
// applyDiagonal (the O(4^n)-closure-call fix) plus the diagonal PauliRot fast
// path against the statevector evolution of the same pure circuit.
func TestDensityDiagonalPrecomputeBitIdentical(t *testing.T) {
	const n = 5
	rng := rand.New(rand.NewSource(31))
	c := NewCircuit(n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	ang := angles{0.8, 1.3, rng.Float64()}
	c.CZ(0, 1)
	c.RZZP(1, 2, 0, 1)
	c.PauliRotP(pauli.MustString("ZZIZZ"), 1, 1)
	c.RXP(3, 2, 1)
	c.CZ(2, 4)
	s, err := Run(c, ang)
	if err != nil {
		t.Fatal(err)
	}
	d, err := RunDensity(c, ang, nil)
	if err != nil {
		t.Fatal(err)
	}
	dim := 1 << uint(n)
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			want := s.amp[i] * complexConj(s.amp[j])
			diff := d.rho[i*dim+j] - want
			if math.Hypot(real(diff), imag(diff)) > 1e-12 {
				t.Fatalf("rho[%d,%d] = %v, |psi><psi| %v", i, j, d.rho[i*dim+j], want)
			}
		}
	}
}

// --- one-pass preparation and paired mixer pins ---

// runGatesCase is one circuit shape for TestRunIntoMatchesSeedGateByGate.
type runGatesCase struct {
	name string
	c    *Circuit
}

// runGatesAngles are the fixed mixer angles of runGatesCases, bound to
// parameters 2 and up after its beta (0) and gamma (1).
var runGatesAngles = []float64{0.3, -0.7, 2.3, 0, 1.1, -1.9, 0.4}

// runGatesCases builds the circuit shapes the preparation pass and the
// paired mixer kernel must reproduce: full, partial, repeated-qubit and
// missing H prefixes; a prefix followed by a compressed or a direct phase
// table; and RX runs on distinct and repeated qubits with odd lengths,
// including an RX(0) that dispatches to the phase kernel instead. The
// phase tables are what FuseDiagonals makes of a diagonal run, as it does
// of a QAOA cost layer: a repeated single-Z rotation has two values (the
// LUT path from n = 4), and ZZ rotations on every pair plus a Z rotation
// on every qubit, at random weights, have all values distinct (the direct
// path).
func runGatesCases(n int, rng *rand.Rand) []runGatesCase {
	z0 := pauli.SingleZ(n, 0)
	lutRun := func(c *Circuit, scale float64) *Circuit {
		return c.PauliRotP(z0, 1, scale).PauliRotP(z0, 1, 2*scale)
	}
	weights := make([]float64, n*(n+1)/2)
	for i := range weights {
		weights[i] = rng.NormFloat64() * 3
	}
	directRun := func(c *Circuit, scale float64) *Circuit {
		w := weights
		for a := 0; a < n; a++ {
			c.PauliRotP(pauli.SingleZ(n, a), 1, scale*w[0])
			w = w[1:]
			for b := a + 1; b < n; b++ {
				c.RZZP(a, b, 1, scale*w[0])
				w = w[1:]
			}
		}
		return c
	}
	perm := rng.Perm(n)

	// mixer appends a QAOA-style RX layer (odd length when n is odd) and a
	// run of RX gates with repeats and an RX(0).
	mixer := func(c *Circuit, param int) *Circuit {
		for _, q := range perm {
			c.RXP(q, param, 2)
		}
		c.RXP(0, 2, 1).RXP(0, 3, 1).RXP(n-1, 4, 1)
		if n > 1 {
			c.RXP(1, 5, 1).RXP(0, 6, 1).RXP(1, 7, 1).RXP(n-2, 8, 1)
		}
		return c
	}
	hLayer := func(c *Circuit, qs []int) *Circuit {
		for _, q := range qs {
			c.H(q)
		}
		return c
	}

	var cases []runGatesCase
	add := func(name string, c *Circuit) { cases = append(cases, runGatesCase{name, c.FuseDiagonals()}) }

	c := lutRun(hLayer(NewCircuit(n), perm), 1)
	add("full-prefix-lut", lutRun(mixer(c, 0), 0.5))
	c = directRun(hLayer(NewCircuit(n), perm), 1)
	add("full-prefix-direct", directRun(mixer(c, 0), -1))
	add("full-prefix-no-diagonal", mixer(hLayer(NewCircuit(n), perm), 0))
	c = lutRun(hLayer(NewCircuit(n), perm[:(n+1)/2]), 1)
	add("partial-prefix-lut", mixer(c, 0))
	c = directRun(hLayer(NewCircuit(n), perm[:(n+1)/2]), 1)
	add("partial-prefix-direct", mixer(c, 0))
	c = NewCircuit(n).H(perm[0]).H(perm[0])
	add("repeated-h", mixer(lutRun(hLayer(c, perm), 1), 0))
	add("no-prefix", mixer(directRun(NewCircuit(n).X(0), 1), 0).H(0))
	add("empty", NewCircuit(n))
	return cases
}

// TestRunIntoMatchesSeedGateByGate pins RunInto — the one-pass preparation
// with its folded phase table, and the paired mixer kernel — against the
// seed kernels applied one gate at a time, after the whole circuit, for
// every circuit shape of runGatesCases and several worker counts (n = 15
// makes every kernel shard). RunInto starts from a state full of garbage, so
// the preparation must write every amplitude. Equality is exact up to the
// sign of exact zeros, which == ignores.
func TestRunIntoMatchesSeedGateByGate(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 10, 15} {
		rng := rand.New(rand.NewSource(int64(500 + n)))
		params := append([]float64{rng.Float64() - 0.5, rng.Float64()*2 - 1}, runGatesAngles...)
		cases := runGatesCases(n, rng)
		if n >= 4 {
			// The fixture's first two shapes must cover both table paths.
			_, _, lut := cases[0].c.Gates()[n].Diag.compressed()
			_, _, direct := cases[1].c.Gates()[n].Diag.compressed()
			if !lut || direct {
				t.Fatalf("n=%d: two-valued table compressed %v, distinct table %v", n, lut, direct)
			}
		}
		for _, tc := range cases {
			ref := make([]complex128, 1<<uint(n))
			ref[0] = 1
			for _, g := range tc.c.Gates() {
				refApplyGate(ref, g, params)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				s := NewState(n).SetWorkers(workers)
				for i := range s.amp {
					s.amp[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				if err := RunInto(s, tc.c, params); err != nil {
					t.Fatal(err)
				}
				for i := range ref {
					if s.amp[i] != ref[i] {
						t.Fatalf("n=%d %s workers=%d: amp[%d] = %v, seed %v",
							n, tc.name, workers, i, s.amp[i], ref[i])
					}
				}
			}
		}
	}
}

// --- preparation and expectation order pins ---

// refPrepare is the preparation pass as it ran before the gather tables:
// the span test and one complex multiply a * lut[idx[b]] per amplitude,
// with a the H layer's value on the span and 0 elsewhere.
func refPrepare(amp []complex128, span int, v complex128, idx []uint32, lut []complex128) {
	for b := range amp {
		a := v
		if b&^span != 0 {
			a = 0
		}
		amp[b] = a * lut[idx[b]]
	}
}

// TestPrepareGatherBitIdentical pins prepare's compressed path, an H run
// followed by a phase table, by Float64bits to refPrepare: H on every
// qubit, on the low half, on the odd qubits and on the top qubit alone,
// each run on an n-qubit state and, as the half path does, on an
// (n-1)-qubit one, serial and at 2 and 4 workers (n = 14 shards).
func TestPrepareGatherBitIdentical(t *testing.T) {
	for _, n := range []int{5, 8, 14} {
		rng := rand.New(rand.NewSource(int64(n)))
		vals := make([]float64, 1<<uint(n))
		for b := range vals {
			vals[b] = []float64{-1, 2.5, math.Copysign(0, -1)}[rng.Intn(3)]
		}
		tbl := NewPhaseTable(vals)
		idx, unique, ok := tbl.compressed()
		if !ok {
			t.Fatalf("n=%d: table not compressed", n)
		}
		spans := map[string][]int{"all": nil, "low-half": nil, "odd": nil, "top-only": {n - 1}}
		for q := 0; q < n; q++ {
			spans["all"] = append(spans["all"], q)
			if q < n/2 {
				spans["low-half"] = append(spans["low-half"], q)
			}
			if q%2 == 1 {
				spans["odd"] = append(spans["odd"], q)
			}
		}
		for name, qubits := range spans {
			c := NewCircuit(n)
			span := 0
			for _, q := range qubits {
				c.H(q)
				span |= 1 << uint(q)
			}
			c.gates = append(c.gates, Gate{Kind: GateDiagonal, Diag: tbl, Param: 0, Scale: 1})
			v := 1.0
			for range qubits {
				v *= 1 / math.Sqrt2
			}
			for _, stored := range []int{n, n - 1} {
				for _, theta := range []float64{0.37, -2.5, 0} {
					lut := make([]complex128, len(unique))
					buildPhaseLUT(lut, theta, unique)
					want := make([]complex128, 1<<uint(stored))
					refPrepare(want, span, complex(v, 0), idx, lut)
					for _, w := range []int{1, 2, 4} {
						s := NewState(stored).SetWorkers(w)
						if k := s.prepare(c.gates, []float64{theta}); k != len(qubits)+1 {
							t.Fatalf("prepare consumed %d gates, want %d", k, len(qubits)+1)
						}
						requireSameBits(t, fmt.Sprintf("n=%d span %s, %d stored qubits, theta %v, %d workers", n, name, stored, theta, w), s.amp, want)
					}
				}
			}
		}
	}
}

// refPairedExpectation is ExpectationDiagonal's order written plainly: k
// ascending over the lower half, term(k) + term(k^full) into accumulator
// k mod 4, then (a0 + a1) + (a2 + a3).
func refPairedExpectation(amp []complex128, table []float64) float64 {
	term := func(b int) float64 {
		a := amp[b]
		return (real(a)*real(a) + imag(a)*imag(a)) * table[b]
	}
	full := len(amp) - 1
	var acc [4]float64
	for k := 0; k < len(amp)/2; k++ {
		acc[k%4] += term(k) + term(k^full)
	}
	return (acc[0] + acc[1]) + (acc[2] + acc[3])
}

// TestExpectationPairedOrderBitIdentical pins ExpectationDiagonal by
// Float64bits to refPairedExpectation on states whose components include
// ±0, subnormals, ±MaxFloat64 and ±Inf, and checks that the half path's
// expectationMirrored gives the full sum's bits on flip-symmetric states.
func TestExpectationPairedOrderBitIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 16} {
		rng := rand.New(rand.NewSource(int64(40 + n)))
		for trial := 0; trial < 8; trial++ {
			s := NewState(n)
			table := make([]float64, len(s.amp))
			for b := range table {
				table[b] = rng.NormFloat64() * 4
			}
			table[0] = math.Copysign(0, -1)
			if trial > 0 {
				specialAmplitudes(s, rng)
			} else {
				for b := range s.amp {
					s.amp[b] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
			}
			got, err := s.ExpectationDiagonal(table)
			if err != nil {
				t.Fatal(err)
			}
			if want := refPairedExpectation(s.amp, table); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d trial %d: %v (%#x), reference order %v (%#x)",
					n, trial, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	for _, n := range []int{3, 4, 5, 7, 9, 15} {
		rng := rand.New(rand.NewSource(int64(60 + n)))
		full := NewState(n)
		half := NewState(n - 1)
		table := make([]float64, len(full.amp))
		mask := len(full.amp) - 1
		for b := range half.amp {
			a := complex(rng.NormFloat64(), rng.NormFloat64())
			e := math.Round(rng.NormFloat64() * 8)
			half.amp[b], full.amp[b], full.amp[b^mask] = a, a, a
			table[b], table[b^mask] = e, e
		}
		want, err := full.ExpectationDiagonal(table)
		if err != nil {
			t.Fatal(err)
		}
		if got := half.expectationMirrored(table); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: half path %v (%#x), full %v (%#x)", n, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

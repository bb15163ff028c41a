package qsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// half_test.go pins the flip-symmetric half-state path to the full-state
// path it replaces: RunInto plus ExpectationDiagonal is the oracle, every
// stored amplitude (mirrored for the unstored half) and the energy must
// match it bit for bit, and circuits or tables that break the symmetry must
// be refused.

// randomEdges returns a connected weighted graph: a ring plus a few chords.
func randomEdges(n int, rng *rand.Rand) ([][2]int, []float64) {
	edges, weights := ringEdges(n)
	for k := 0; k < n/2; k++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			edges = append(edges, [2]int{a, b})
			weights = append(weights, 0.5+rng.Float64())
		}
	}
	for i := range weights {
		weights[i] *= 0.5 + rng.Float64()
	}
	return edges, weights
}

// cutTable is the weighted MaxCut energy table of the edges:
// minus the weight of every cut edge, bitwise flip-symmetric by
// construction.
func cutTable(n int, edges [][2]int, weights []float64) []float64 {
	t := make([]float64, 1<<uint(n))
	for b := range t {
		for i, e := range edges {
			if (b>>uint(e[0]))&1 != (b>>uint(e[1]))&1 {
				t[b] -= weights[i]
			}
		}
	}
	return t
}

// descendingMixers is qaoaLikeCircuit with every RX layer applied from the
// top qubit down, so paired passes put the mirrored qubit first.
func descendingMixers(n, p int, edges [][2]int, weights []float64) *Circuit {
	c := NewCircuit(n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for l := 0; l < p; l++ {
		for i, e := range edges {
			c.RZZP(e[0], e[1], p+l, weights[i])
		}
		for q := n - 1; q >= 0; q-- {
			c.RXP(q, l, 2)
		}
	}
	return c
}

// checkHalfMatchesFull runs c both ways and compares amplitudes and energy.
// exact demands identical bits; otherwise amplitudes compare with ==, which
// lets signed zeros differ (RX(0) multiplies the unstored half by 1).
func checkHalfMatchesFull(t *testing.T, c *Circuit, table []float64, params []float64, workers int, exact bool) {
	t.Helper()
	h, ok := NewHalfEnergy(c, table)
	if !ok {
		t.Fatal("flip-symmetric circuit refused")
	}
	n := c.N()
	full := NewState(n).SetWorkers(workers)
	if err := RunInto(full, c, params); err != nil {
		t.Fatal(err)
	}
	want, err := full.ExpectationDiagonal(table)
	if err != nil {
		t.Fatal(err)
	}
	half := NewState(h.N()).SetWorkers(workers)
	got, err := h.Energy(half, params)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("energy %v (%#x), full path %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
	}
	mask := 1<<uint(n) - 1
	amp := half.Amplitudes()
	for b, w := range full.Amplitudes() {
		g := amp[b&(len(amp)-1)]
		if b >= len(amp) {
			g = amp[b^mask]
		}
		same := g == w
		if exact {
			same = math.Float64bits(real(g)) == math.Float64bits(real(w)) &&
				math.Float64bits(imag(g)) == math.Float64bits(imag(w))
		}
		if !same {
			t.Fatalf("amplitude %d: half %v, full %v", b, g, w)
		}
	}
}

func TestHalfEnergyBitIdenticalToFull(t *testing.T) {
	for _, n := range []int{5, 7, 10, 15, 16} {
		for _, p := range []int{1, 2, 3} {
			if testing.Short() && n >= 15 && p > 1 {
				continue
			}
			rng := rand.New(rand.NewSource(int64(100*n + p)))
			edges, weights := randomEdges(n, rng)
			table := cutTable(n, edges, weights)
			circuits := map[string]*Circuit{
				"ascending":  qaoaLikeCircuit(n, p, edges, weights).FuseDiagonals(),
				"descending": descendingMixers(n, p, edges, weights).FuseDiagonals(),
			}
			for name, c := range circuits {
				params := make([]float64, 2*p)
				for i := range params {
					params[i] = 2*rng.Float64() - 1
				}
				for _, w := range []int{1, 2, 8} {
					checkHalfMatchesFull(t, c, table, params, w, true)
				}
				if t.Failed() {
					t.Fatalf("n=%d p=%d %s", n, p, name)
				}
			}
		}
	}
}

// TestHalfEnergyZeroAngles covers RX(0), which takes the phase kernel on
// the full path and is skipped on the mirrored qubit, and gamma = 0.
func TestHalfEnergyZeroAngles(t *testing.T) {
	n, p := 7, 2
	rng := rand.New(rand.NewSource(3))
	edges, weights := randomEdges(n, rng)
	table := cutTable(n, edges, weights)
	c := qaoaLikeCircuit(n, p, edges, weights).FuseDiagonals()
	for _, params := range [][]float64{{0, 0.3, 0.7, 0}, {0, 0, 0, 0}, {0.4, 0, 0, 0.9}} {
		checkHalfMatchesFull(t, c, table, params, 1, false)
	}
}

// TestHalfEnergyRefusesAsymmetric: every way of breaking the flip symmetry
// must leave NewHalfEnergy refusing, so callers stay on the full path.
func TestHalfEnergyRefusesAsymmetric(t *testing.T) {
	n, p := 6, 1
	rng := rand.New(rand.NewSource(9))
	edges, weights := randomEdges(n, rng)
	table := cutTable(n, edges, weights)
	if _, ok := NewHalfEnergy(qaoaLikeCircuit(n, p, edges, weights).FuseDiagonals(), table); !ok {
		t.Fatal("baseline QAOA circuit refused")
	}

	zTerm := append([]float64(nil), table...)
	for b := range zTerm {
		if b&1 != 0 {
			zTerm[b] -= 0.25
		} else {
			zTerm[b] += 0.25
		}
	}
	mixer := func(add func(c *Circuit, q int)) *Circuit {
		c := NewCircuit(n)
		for q := 0; q < n; q++ {
			c.H(q)
		}
		for i, e := range edges {
			c.RZZP(e[0], e[1], 1, weights[i])
		}
		for q := 0; q < n; q++ {
			add(c, q)
		}
		return c.FuseDiagonals()
	}
	missingH := NewCircuit(n)
	for q := 1; q < n; q++ {
		missingH.H(q)
	}
	for i, e := range edges {
		missingH.RZZP(e[0], e[1], 1, weights[i])
	}
	for q := 0; q < n; q++ {
		missingH.RXP(q, 0, 2)
	}
	zPhase := qaoaLikeCircuit(n, p, edges, weights)
	zPhase.RZ(0, 0.3)
	zPhase.RZ(1, 0.2)

	cases := []struct {
		name  string
		c     *Circuit
		table []float64
	}{
		{"single-Z energy term", qaoaLikeCircuit(n, p, edges, weights).FuseDiagonals(), zTerm},
		{"RY mixer", mixer(func(c *Circuit, q int) { c.RYP(q, 0, 2) }), table},
		{"RZ mixer", mixer(func(c *Circuit, q int) { c.RZP(q, 0, 2) }), table},
		{"missing H", missingH.FuseDiagonals(), table},
		{"asymmetric phase table", zPhase.FuseDiagonals(), table},
		{"unfused RZZ", qaoaLikeCircuit(n, p, edges, weights), table},
		{"short table", qaoaLikeCircuit(n, p, edges, weights).FuseDiagonals(), table[:len(table)/2]},
	}
	for _, tc := range cases {
		if _, ok := NewHalfEnergy(tc.c, tc.table); ok {
			t.Errorf("%s: half path accepted a circuit/table without flip symmetry", tc.name)
		}
	}
}

func TestHalfEnergyValidation(t *testing.T) {
	n := 5
	edges, weights := ringEdges(n)
	c := qaoaLikeCircuit(n, 1, edges, weights).FuseDiagonals()
	h, ok := NewHalfEnergy(c, cutTable(n, edges, weights))
	if !ok {
		t.Fatal("refused")
	}
	if _, err := h.Energy(NewState(n), []float64{0.1, 0.2}); err == nil {
		t.Error("full-size scratch state accepted")
	}
	if _, err := h.Energy(NewState(n-1), []float64{0.1}); err == nil {
		t.Error("short parameter vector accepted")
	}
	if _, err := h.Energy(NewState(n-1), []float64{0.1, math.NaN()}); err == nil {
		t.Error("non-finite parameter accepted")
	}
}

// BenchmarkHalfEnergyPasses splits one n=16 p=1 QAOA energy on a 3-regular
// unit-weight MaxCut (a ring plus its diameters) into the passes it makes
// over the 15-qubit half state, serially, in µs per pass: the preparation
// (H layer and cost table in one gather) and the expectation, each with the
// Go loop and with each kernel the CPU has (prepare/go, prepare/avx,
// prepare/avx512, and so on; prepare/avx512 runs the AVX gather, as
// AVX-512 CPUs do), then each of the 8 paired mixer passes and the whole
// Energy call with the kernel the CPU picks, which logs it.
func BenchmarkHalfEnergyPasses(b *testing.B) {
	const n = 16
	edges, weights := make([][2]int, 0, 3*n/2), make([]float64, 0, 3*n/2)
	for q := 0; q < n; q++ {
		edges, weights = append(edges, [2]int{q, (q + 1) % n}), append(weights, 1)
		if q < n/2 {
			edges, weights = append(edges, [2]int{q, q + n/2}), append(weights, 1)
		}
	}
	c := qaoaLikeCircuit(n, 1, edges, weights).FuseDiagonals()
	table := cutTable(n, edges, weights)
	h, ok := NewHalfEnergy(c, table)
	if !ok {
		b.Fatal("half path refused")
	}
	params := []float64{0.37, 0.61} // beta, gamma
	s := NewState(h.N())
	if _, err := h.Energy(s, params); err != nil {
		b.Fatal(err) // also builds the phase table's compression
	}
	pick := kernel
	pass := func(name string, k simKernel, f func()) {
		b.Run(name, func(b *testing.B) {
			setKernel(k)
			defer setKernel(pick)
			if name == "energy" {
				logKernel(b)
			}
			for i := 0; i < b.N; i++ {
				f()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N), "us/pass")
		})
	}
	kernels := simKernels(b)
	for _, k := range kernels {
		pass("prepare/"+kernelTag(k), k, func() { s.prepare(c.gates, params) })
	}
	m := mixedOf(gateMatrix(GateRX, 2*params[0]))
	for q := 0; q < n; q += 2 {
		da, db := s.flipMask(q), s.flipMask(q+1)
		pass(fmt.Sprintf("mixer-q%d-q%d", q, q+1), pick, func() { s.applyMixedPairMasks(da, db, m, m) })
	}
	for _, k := range kernels {
		pass("expectation/"+kernelTag(k), k, func() { energySink = s.expectationMirrored(table) })
	}
	pass("energy", pick, func() {
		var err error
		if energySink, err = h.Energy(s, params); err != nil {
			b.Fatal(err)
		}
	})
}

// kernelTag is k's sub-benchmark name.
func kernelTag(k simKernel) string { return [...]string{"go", "avx", "avx512"}[k] }

// energySink keeps the compiler from dropping a benchmarked energy.
var energySink float64

package pauli

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewString(t *testing.T) {
	p, err := NewString("IZXY")
	if err != nil {
		t.Fatal(err)
	}
	if p.N() != 4 {
		t.Fatalf("N=%d", p.N())
	}
	if p.At(0) != I || p.At(1) != Z || p.At(2) != X || p.At(3) != Y {
		t.Fatalf("ops wrong: %s", p)
	}
	if p.String() != "IZXY" {
		t.Fatalf("String=%q", p.String())
	}
	if _, err := NewString(""); err == nil {
		t.Error("want error for empty")
	}
	if _, err := NewString("IZQ"); err == nil {
		t.Error("want error for invalid op")
	}
}

func TestMustStringPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	MustString("AB")
}

func TestMasksAndWeight(t *testing.T) {
	p := MustString("IZXY")
	if p.Weight() != 3 {
		t.Fatalf("weight %d", p.Weight())
	}
	if p.ZMask() != 0b1010 { // Z on qubit 1, Y on qubit 3
		t.Fatalf("zmask %b", p.ZMask())
	}
	if p.XMask() != 0b1100 { // X on qubit 2, Y on qubit 3
		t.Fatalf("xmask %b", p.XMask())
	}
	if p.IsDiagonal() {
		t.Fatal("IZXY is not diagonal")
	}
	if !MustString("IZZI").IsDiagonal() {
		t.Fatal("IZZI is diagonal")
	}
}

func TestConstructors(t *testing.T) {
	if Identity(3).String() != "III" {
		t.Error("Identity wrong")
	}
	if SingleZ(3, 1).String() != "IZI" {
		t.Error("SingleZ wrong")
	}
	if ZZ(4, 0, 3).String() != "ZIIZ" {
		t.Error("ZZ wrong")
	}
}

func TestHamiltonianAddMerges(t *testing.T) {
	h := NewHamiltonian(2)
	h.MustAdd(1.0, MustString("ZZ"))
	h.MustAdd(0.5, MustString("ZZ"))
	h.MustAdd(-0.25, MustString("XI"))
	if len(h.Terms()) != 2 {
		t.Fatalf("terms %d want 2 (merged)", len(h.Terms()))
	}
	if h.Terms()[0].Coeff != 1.5 {
		t.Fatalf("merged coeff %g", h.Terms()[0].Coeff)
	}
	if err := h.Add(1, MustString("ZZZ")); err == nil {
		t.Fatal("want error for dimension mismatch")
	}
}

func TestDiagonalValues(t *testing.T) {
	h := NewHamiltonian(2)
	h.MustAdd(1, MustString("ZZ"))
	vals, err := h.DiagonalValues()
	if err != nil {
		t.Fatal(err)
	}
	// |00>:+1 |01>:-1 |10>:-1 |11>:+1  (bit 0 = qubit 0)
	want := []float64{1, -1, -1, 1}
	for i, v := range vals {
		if v != want[i] {
			t.Fatalf("vals[%d]=%g want %g", i, v, want[i])
		}
	}
	h2 := NewHamiltonian(2)
	h2.MustAdd(1, MustString("XI"))
	if _, err := h2.DiagonalValues(); err == nil {
		t.Fatal("want error for off-diagonal")
	}
}

func TestEvalBitstringMatchesDiagonalValues(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	h := NewHamiltonian(4)
	h.MustAdd(0.5, Identity(4))
	for trial := 0; trial < 6; trial++ {
		a, b := rng.Intn(4), rng.Intn(4)
		if a == b {
			continue
		}
		h.MustAdd(rng.NormFloat64(), ZZ(4, min(a, b), max(a, b)))
	}
	vals, err := h.DiagonalValues()
	if err != nil {
		t.Fatal(err)
	}
	for bits := uint64(0); bits < 16; bits++ {
		v, err := h.EvalBitstring(bits)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(v-vals[bits]) > 1e-12 {
			t.Fatalf("bits=%b: %g vs %g", bits, v, vals[bits])
		}
	}
}

func TestIdentityCoeffAndBounds(t *testing.T) {
	h := NewHamiltonian(2)
	h.MustAdd(3, Identity(2))
	h.MustAdd(1, MustString("ZZ"))
	h.MustAdd(-2, MustString("XI"))
	if h.IdentityCoeff() != 3 {
		t.Fatalf("identity coeff %g", h.IdentityCoeff())
	}
	lo, hi := h.Bounds()
	if lo != 0 || hi != 6 {
		t.Fatalf("bounds [%g,%g] want [0,6]", lo, hi)
	}
}

// TestBoundsContainDiagonalSpectrum is a property test on diagonal
// Hamiltonians: every basis-state energy lies within Bounds().
func TestBoundsContainDiagonalSpectrum(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(52))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		h := NewHamiltonian(n)
		for k := 0; k < 5; k++ {
			a := rng.Intn(n)
			b := rng.Intn(n)
			if a == b {
				h.MustAdd(rng.NormFloat64(), SingleZ(n, a))
			} else {
				h.MustAdd(rng.NormFloat64(), ZZ(n, min(a, b), max(a, b)))
			}
		}
		vals, err := h.DiagonalValues()
		if err != nil {
			return false
		}
		lo, hi := h.Bounds()
		for _, v := range vals {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestHamiltonianString(t *testing.T) {
	h := NewHamiltonian(2)
	h.MustAdd(1, MustString("ZZ"))
	h.MustAdd(-0.5, MustString("XI"))
	s := h.String()
	if !strings.Contains(s, "ZZ") || !strings.Contains(s, "XI") {
		t.Fatalf("String=%q", s)
	}
	if NewHamiltonian(1).String() != "0" {
		t.Error("empty Hamiltonian should render as 0")
	}
}

func TestParity(t *testing.T) {
	cases := map[uint64]bool{0: false, 1: true, 3: false, 7: true, 0xFF: false, 1 << 40: true}
	for x, want := range cases {
		if parity(x) != want {
			t.Errorf("parity(%x)=%v want %v", x, parity(x), want)
		}
	}
}

func TestDiagonalTableMatchesEvalBitstring(t *testing.T) {
	h := NewHamiltonian(5)
	h.MustAdd(0.5, Identity(5))
	h.MustAdd(-1.25, ZZ(5, 0, 3))
	h.MustAdd(2, ZZ(5, 1, 4))
	h.MustAdd(-0.75, SingleZ(5, 2))
	table, err := h.DiagonalTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != 1<<5 {
		t.Fatalf("table length %d", len(table))
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
	hx := NewHamiltonian(2)
	hx.MustAdd(1, MustString("XI"))
	if _, err := hx.DiagonalTable(); err == nil {
		t.Fatal("want error for off-diagonal Hamiltonian")
	}
}

// diagonalValuesBranching is DiagonalValues as it was written before its
// sign choice lost the branch: the reference the table is pinned to.
func diagonalValuesBranching(h *Hamiltonian) []float64 {
	dim := 1 << uint(h.n)
	out := make([]float64, dim)
	for _, t := range h.terms {
		mask := t.P.ZMask()
		for b := 0; b < dim; b++ {
			if parity(uint64(b) & mask) {
				out[b] -= t.Coeff
			} else {
				out[b] += t.Coeff
			}
		}
	}
	return out
}

// TestDiagonalValuesMatchesBranchingLoop pins DiagonalValues by Float64bits
// to the branching loop on random weighted Z-string Hamiltonians whose
// coefficients include ±0, subnormals and huge values. Each Hamiltonian
// ends with four strings whose lowest Z is on qubit 0 or 1, alone or with a
// second Z higher up: the masks AddZDiagonal walks in alternating runs of
// one or two entries.
func TestDiagonalValuesMatchesBranchingLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -3e-310, 1e308, -1e308}
	for _, n := range []int{1, 2, 4, 9, 12} {
		lowBitZs := [][]int{{0}, {1}, {0, n - 1}, {1, n/2 + 1}}
		for trial := 0; trial < 4; trial++ {
			h := NewHamiltonian(n)
			for k := 0; k < 3*n+len(lowBitZs); k++ {
				ops := make([]byte, n)
				for q := range ops {
					ops[q] = "IZ"[rng.Intn(2)]
				}
				if k >= 3*n {
					ops = []byte(strings.Repeat("I", n))
					for _, q := range lowBitZs[k-3*n] {
						if q < n {
							ops[q] = 'Z'
						}
					}
				}
				coeff := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
				if rng.Intn(5) == 0 {
					coeff = specials[rng.Intn(len(specials))]
				}
				if err := h.Add(coeff, MustString(string(ops))); err != nil {
					t.Fatal(err)
				}
			}
			got, err := h.DiagonalValues()
			if err != nil {
				t.Fatal(err)
			}
			want := diagonalValuesBranching(h)
			for b := range want {
				if math.Float64bits(got[b]) != math.Float64bits(want[b]) {
					t.Fatalf("n=%d trial %d: entry %d = %v, branching loop %v", n, trial, b, got[b], want[b])
				}
			}
		}
	}
}

// BenchmarkAddZDiagonal times one Z string added into a 2^16-entry table:
// masks whose lowest bit is bit 0 (0x21) or bit 1 (0x202) against one
// with long runs (0x8080).
func BenchmarkAddZDiagonal(b *testing.B) {
	table := make([]float64, 1<<16)
	for _, mask := range []uint64{0x21, 0x202, 0x8080} {
		b.Run(fmt.Sprintf("mask%#x", mask), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AddZDiagonal(table, mask, 0.25)
			}
		})
	}
}

package qsim

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// requireAVX skips the test on a CPU without AVX, where the kernel cannot
// run and mixedPairRange is the portable loop.
func requireAVX(t *testing.T) {
	t.Helper()
	if !hasAVX() {
		t.Skip("CPU without AVX: the mixer runs the portable loop")
	}
}

// TestMixedPairKernelMatchesPortable runs every paired mask a 16-qubit
// mixer issues, on the full state and on the 15-qubit half state, with RX
// matrices for β in {0, π/2, random} (each as gate A and as gate B) and
// amplitudes holding ±0, subnormals and ±Inf. Each pass runs through the
// AVX kernel directly over the whole state and over w random, mostly odd,
// cuts, and with the random β as gate A also over ranges of 1 to 5 groups
// starting at even and odd klo (a lone group, an odd head, an odd tail,
// both, and two-group runs with neither); and through applyMixedPairMasks at 1, 2 and 4 workers. The direct
// calls run on a state with sentinels past its end, which must stay put.
func TestMixedPairKernelMatchesPortable(t *testing.T) {
	requireAVX(t)
	rng := rand.New(rand.NewSource(23))
	betas := []float64{0, math.Pi / 2, rng.Float64() * math.Pi}
	var mats []mixedMatrix
	for _, b := range betas {
		mats = append(mats, mixedOf(gateMatrix(GateRX, 2*b)))
	}
	const pad = 8
	sentinel := complex(math.NaN(), -1)
	for _, n := range []int{16, 15} {
		circuitQubits := 16 // a 15-qubit state is the half of n = 16
		src := NewState(n)
		specialAmplitudes(src, rng)
		want, got := NewState(n), NewState(n)
		quarter := len(src.amp) >> 2
		backing := make([]complex128, len(src.amp)+pad)
		direct := backing[:len(src.amp)]
		// run calls the kernel on direct over [klo, khi) and checks it
		// against the portable loop over the same range.
		run := func(what string, klo, khi, lm, hm, da, db int, ma, mb mixedMatrix) {
			t.Helper()
			copy(want.amp, src.amp)
			want.mixedPairRangeGo(klo, khi, lm, hm, da, db, ma, mb)
			copy(direct, src.amp)
			for i := range backing[len(direct):] {
				backing[len(direct)+i] = sentinel
			}
			mixedPairAVX(direct, klo, khi, lm, hm, da, db, ma, mb)
			requireSameBits(t, fmt.Sprintf("%s groups [%d, %d)", what, klo, khi), direct, want.amp)
			for i, v := range backing[len(direct):] {
				if math.Float64bits(real(v)) != math.Float64bits(real(sentinel)) || imag(v) != -1 {
					t.Fatalf("%s groups [%d, %d): wrote %v past the state, at %d", what, klo, khi, v, len(direct)+i)
				}
			}
		}
		for _, p := range mixerPairs(src, circuitQubits) {
			da, db := p[0], p[1]
			lm, hm := pairMasks(da, db)
			for ia, ma := range mats {
				ib := (ia + 1) % len(mats)
				mb := mats[ib]
				name := fmt.Sprintf("n=%d masks=(%#x,%#x) betas=(%d,%d)", n, da, db, ia, ib)
				run(name, 0, quarter, lm, hm, da, db, ma, mb)
				for _, klo := range []int{0, 1, 2, 7, quarter - 6} {
					for size := 1; size <= 5 && ia == len(mats)-1; size++ {
						run(name, klo, klo+size, lm, hm, da, db, ma, mb)
					}
				}
				copy(want.amp, src.amp)
				want.mixedPairRangeGo(0, quarter, lm, hm, da, db, ma, mb)
				for _, w := range []int{1, 2, 4} {
					copy(got.amp, src.amp)
					got.SetWorkers(w).applyMixedPairMasks(da, db, ma, mb)
					requireSameBits(t, fmt.Sprintf("%s workers=%d", name, w), got.amp, want.amp)

					copy(got.amp, src.amp)
					cuts := []int{0}
					for i := 1; i < w; i++ {
						cuts = append(cuts, i*quarter/w+rng.Intn(64)|1)
					}
					cuts = append(cuts, quarter)
					for i := 0; i+1 < len(cuts); i++ {
						mixedPairAVX(got.amp, cuts[i], cuts[i+1], lm, hm, da, db, ma, mb)
					}
					requireSameBits(t, fmt.Sprintf("%s cuts=%v", name, cuts), got.amp, want.amp)
				}
			}
		}
	}
}

// TestMixerKernelSelected checks the kernel choice against the flags the
// OS reports: a CPU whose /proc/cpuinfo lists avx must run the AVX kernel,
// or every kernel test above would compare the portable loop with itself.
func TestMixerKernelSelected(t *testing.T) {
	kernel := map[bool]string{true: "AVX", false: "portable Go loop"}[useAVX]
	t.Logf("paired mixer kernel: %s", kernel)
	if useAVX != hasAVX() {
		t.Fatalf("useAVX = %v, but the CPU check reports %v", useAVX, hasAVX())
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to check the choice against: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		osAVX := false
		for _, f := range strings.Fields(flags) {
			osAVX = osAVX || f == "avx"
		}
		if osAVX != useAVX {
			t.Fatalf("/proc/cpuinfo lists avx: %v, but the mixer runs the %s", osAVX, kernel)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}

// TestHalfEnergyPortableMixer runs flip-symmetric circuits with useAVX
// cleared, so the portable loop serves every mixer pass, and checks them
// against the full-state oracle and against the AVX kernel's energies.
func TestHalfEnergyPortableMixer(t *testing.T) {
	requireAVX(t)
	defer func(v bool) { useAVX = v }(useAVX)
	for _, n := range []int{7, 12} {
		rng := rand.New(rand.NewSource(int64(27 + n)))
		edges, weights := randomEdges(n, rng)
		table := cutTable(n, edges, weights)
		for _, c := range []*Circuit{
			qaoaLikeCircuit(n, 2, edges, weights).FuseDiagonals(),
			descendingMixers(n, 2, edges, weights).FuseDiagonals(),
		} {
			params := []float64{0.3, -0.7, 0.9, 0.2}
			h, ok := NewHalfEnergy(c, table)
			if !ok {
				t.Fatal("flip-symmetric circuit refused")
			}
			energy := func(avx bool) float64 {
				useAVX = avx
				e, err := h.Energy(NewState(h.N()), params)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			kernel, portable := energy(true), energy(false)
			if math.Float64bits(kernel) != math.Float64bits(portable) {
				t.Fatalf("n=%d: AVX energy %v, portable %v", n, kernel, portable)
			}
			for _, w := range []int{1, 2} {
				checkHalfMatchesFull(t, c, table, params, w, true)
			}
		}
	}
}

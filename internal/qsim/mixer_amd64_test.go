package qsim

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/cpuid"
)

// requireAVX skips the test on a CPU without AVX, where no assembly
// kernel runs and mixedPairRange is the portable loop.
func requireAVX(t *testing.T) {
	t.Helper()
	if !cpuid.AVX() {
		t.Skip("CPU without AVX: the mixer runs the portable loop")
	}
}

// simKernels returns the kernels the CPU runs, the portable loop first.
func simKernels(tb testing.TB) []simKernel {
	tb.Helper()
	kernels := []simKernel{kernelGo}
	if cpuid.AVX() {
		kernels = append(kernels, kernelAVX)
	}
	if cpuid.AVX512() {
		kernels = append(kernels, kernelAVX512)
	} else {
		tb.Log("CPU without AVX-512: the AVX-512 kernel is not checked")
	}
	return kernels
}

// setKernel makes the vector passes run k.
func setKernel(k simKernel) { kernel = k }

// asmPass is the signature of the assembly kernels.
type asmPass func(amp []complex128, klo, khi, lm, hm, da, db int, ma, mb mixedMatrix)

// TestMixedPairKernelMatchesPortable runs every paired mask an n-qubit
// mixer issues, on full states and on the half states of (n+1)-qubit
// circuits for n in {3, 4, 5, 9, 15, 16}, with RX matrices for β in
// {0, π/2, random} (each as gate A and as gate B) and amplitudes holding
// ±0, subnormals and ±Inf. Each pass runs through each assembly kernel the
// CPU has, directly over the whole state and over w random cuts, and with
// the random β as gate A also over ranges of 1 to 9 groups starting at klo
// 0, 1, 2, 3, 7 and quarter−10 (lone groups, heads and tails of every
// length, and runs with neither); and through applyMixedPairMasks at 1, 2
// and 4 workers. The direct calls run on a state with sentinels past its
// end, which must stay put.
func TestMixedPairKernelMatchesPortable(t *testing.T) {
	requireAVX(t)
	defer func(k simKernel) { kernel = k }(kernel)
	passes := map[simKernel]asmPass{kernelAVX: mixedPairAVX, kernelAVX512: mixedPairAVX512}
	rng := rand.New(rand.NewSource(23))
	betas := []float64{0, math.Pi / 2, rng.Float64() * math.Pi}
	var mats []mixedMatrix
	for _, b := range betas {
		mats = append(mats, mixedOf(gateMatrix(GateRX, 2*b)))
	}
	const pad = 8
	sentinel := complex(math.NaN(), -1)
	for _, k := range simKernels(t)[1:] {
		kernelPass := passes[k]
		kernel = k
		for _, n := range []int{3, 4, 5, 9, 15, 16} {
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
				kernelPass(direct, klo, khi, lm, hm, da, db, ma, mb)
				requireSameBits(t, fmt.Sprintf("%s groups [%d, %d)", what, klo, khi), direct, want.amp)
				for i, v := range backing[len(direct):] {
					if math.Float64bits(real(v)) != math.Float64bits(real(sentinel)) || imag(v) != -1 {
						t.Fatalf("%s groups [%d, %d): wrote %v past the state, at %d", what, klo, khi, v, len(direct)+i)
					}
				}
			}
			for _, circuitQubits := range []int{n, n + 1} { // n+1: src is a half state
				for _, p := range mixerPairs(src, circuitQubits) {
					da, db := p[0], p[1]
					lm, hm := pairMasks(da, db)
					for ia, ma := range mats {
						ib := (ia + 1) % len(mats)
						mb := mats[ib]
						name := fmt.Sprintf("%v n=%d/%d masks=(%#x,%#x) betas=(%d,%d)", k, n, circuitQubits, da, db, ia, ib)
						run(name, 0, quarter, lm, hm, da, db, ma, mb)
						for _, klo := range []int{0, 1, 2, 3, 7, quarter - 10} {
							for size := 1; size <= 9 && ia == len(mats)-1 && klo >= 0 && klo+size <= quarter; size++ {
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
								cuts = append(cuts, rng.Intn(quarter+1))
							}
							cuts = append(cuts, quarter)
							sort.Ints(cuts)
							for i := 0; i+1 < len(cuts); i++ {
								kernelPass(got.amp, cuts[i], cuts[i+1], lm, hm, da, db, ma, mb)
							}
							requireSameBits(t, fmt.Sprintf("%s cuts=%v", name, cuts), got.amp, want.amp)
						}
					}
				}
			}
		}
	}
}

// TestMixerKernelSelected checks the kernel choice against the flags the
// OS reports: a CPU whose /proc/cpuinfo lists avx512f must run the AVX-512
// kernels, and one that lists avx but not avx512f the AVX kernels, or the
// kernel tests would not check the kernels the CPU runs. The one choice
// covers all three vector passes: mixedPairRange, gatherLUT and
// mirroredSums each switch on kernel and on nothing else, and KernelName
// reports it.
func TestMixerKernelSelected(t *testing.T) {
	t.Logf("mixer, preparation gather and expectation sum kernel: %v", kernel)
	if kernel != cpuKernel() {
		t.Fatalf("kernel = %v, but the CPU check picks %v", kernel, cpuKernel())
	}
	if KernelName() != kernel.String() {
		t.Fatalf("KernelName() = %q, but the passes run the %v kernel", KernelName(), kernel)
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
		want := kernelGo
		for _, f := range strings.Fields(flags) {
			switch {
			case f == "avx512f":
				want = kernelAVX512
			case f == "avx" && want == kernelGo:
				want = kernelAVX
			}
		}
		if kernel != want {
			t.Fatalf("/proc/cpuinfo flags call for the %v kernel, but the passes run the %v", want, kernel)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}

// TestHalfEnergyPortableMixer runs flip-symmetric circuits with each kernel
// the CPU has serving every mixer pass, the portable loop included, and
// checks that their energies agree bit for bit and match the full-state
// oracle.
func TestHalfEnergyPortableMixer(t *testing.T) {
	requireAVX(t)
	defer func(k simKernel) { kernel = k }(kernel)
	kernels := simKernels(t)
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
			var portable float64
			for _, k := range kernels {
				kernel = k
				e, err := h.Energy(NewState(h.N()), params)
				if err != nil {
					t.Fatal(err)
				}
				if k == kernelGo {
					portable = e
				} else if math.Float64bits(e) != math.Float64bits(portable) {
					t.Fatalf("n=%d: %v energy %v, portable %v", n, k, e, portable)
				}
				for _, w := range []int{1, 2} {
					checkHalfMatchesFull(t, c, table, params, w, true)
				}
			}
		}
	}
}

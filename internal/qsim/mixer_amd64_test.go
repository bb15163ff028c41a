package qsim

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
)

// requireAVX skips the test on a CPU without AVX, where no assembly
// kernel runs and mixedPairRange is the portable loop.
func requireAVX(t *testing.T) {
	t.Helper()
	if !hasAVX() {
		t.Skip("CPU without AVX: the mixer runs the portable loop")
	}
}

// mixerKernels returns the kernels the CPU runs, the portable loop first.
func mixerKernels(t *testing.T) []mixerKernel {
	t.Helper()
	kernels := []mixerKernel{mixerGo}
	if hasAVX() {
		kernels = append(kernels, mixerAVX)
	}
	if hasAVX512() {
		kernels = append(kernels, mixerAVX512)
	} else {
		t.Log("CPU without AVX-512: the AVX-512 kernel is not checked")
	}
	return kernels
}

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
	defer func(k mixerKernel) { mixer = k }(mixer)
	passes := map[mixerKernel]asmPass{mixerAVX: mixedPairAVX, mixerAVX512: mixedPairAVX512}
	rng := rand.New(rand.NewSource(23))
	betas := []float64{0, math.Pi / 2, rng.Float64() * math.Pi}
	var mats []mixedMatrix
	for _, b := range betas {
		mats = append(mats, mixedOf(gateMatrix(GateRX, 2*b)))
	}
	const pad = 8
	sentinel := complex(math.NaN(), -1)
	for _, kernel := range mixerKernels(t)[1:] {
		kernelPass := passes[kernel]
		mixer = kernel
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
						name := fmt.Sprintf("%v n=%d/%d masks=(%#x,%#x) betas=(%d,%d)", kernel, n, circuitQubits, da, db, ia, ib)
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
// kernel, and one that lists avx but not avx512f the AVX kernel, or the
// kernel tests above would not check the kernel the CPU runs.
func TestMixerKernelSelected(t *testing.T) {
	t.Logf("paired mixer kernel: %v", mixer)
	if mixer != cpuMixer() {
		t.Fatalf("mixer = %v, but the CPU check picks %v", mixer, cpuMixer())
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
		want := mixerGo
		for _, f := range strings.Fields(flags) {
			switch {
			case f == "avx512f":
				want = mixerAVX512
			case f == "avx" && want == mixerGo:
				want = mixerAVX
			}
		}
		if mixer != want {
			t.Fatalf("/proc/cpuinfo flags call for the %v kernel, but the mixer runs the %v", want, mixer)
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
	defer func(k mixerKernel) { mixer = k }(mixer)
	kernels := mixerKernels(t)
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
				mixer = k
				e, err := h.Energy(NewState(h.N()), params)
				if err != nil {
					t.Fatal(err)
				}
				if k == mixerGo {
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

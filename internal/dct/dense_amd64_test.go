package dct

import (
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/cpuid"
)

// denseKernels returns the dense kernels the CPU runs, the Go loop first.
func denseKernels(tb testing.TB) []denseKernel {
	tb.Helper()
	kernels := []denseKernel{denseGo}
	if cpuid.AVX() {
		kernels = append(kernels, denseAVX)
	} else {
		tb.Log("CPU without AVX: only the Go loop is checked")
	}
	if cpuid.AVX512() {
		kernels = append(kernels, denseAVX512)
	} else {
		tb.Log("CPU without AVX-512: the AVX-512 kernel is not checked")
	}
	return kernels
}

// denseKernelLens are the axis lengths the dense kernel tests run: the
// shortest lengths the assembly takes (8 rows, 16 outputs) and their
// neighbours, lengths on either side of a vector or row-block boundary, the
// 50x100 grid's two axes and the longest dense length.
var denseKernelLens = []int{7, 8, 9, 15, 16, 17, 33, 50, 63, 100, 384}

// kernelWidths returns the column widths TestDenseKernelsMatchGo runs on an
// n-point axis: every width from 1 to denseCols up to 63 points, and on
// longer axes, where each width costs more, widths on both sides of each
// vector boundary of either kernel and the 50x100 grid's 50.
func kernelWidths(n int) []int {
	if n > 63 {
		return []int{1, 3, 4, 5, 8, 9, 17, 33, 50, 64}
	}
	w := make([]int, denseCols)
	for i := range w {
		w[i] = i + 1
	}
	return w
}

// specialValue returns a random input: mostly normals, and otherwise ±0, a
// subnormal or ±Inf.
func specialValue(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return float64(rng.Intn(9)-4) * math.SmallestNonzeroFloat64
	case 3:
		return math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // subnormal or +0
	case 4:
		if rng.Intn(4) == 0 {
			return math.Inf(2*rng.Intn(2) - 1)
		}
	}
	return rng.NormFloat64()
}

// sameBits reports the first index where got and want differ in their bits.
func sameBits(got, want []float64) (int, bool) {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestDenseKernelsMatchGo runs matCols and matVecNZ through each kernel the
// CPU has and checks every output bit against the Go loops, with the
// forward and the inverse matrix of each length in denseKernelLens.
//
// matCols runs the widths kernelWidths lists at a column offset and an odd
// stride, on blocks holding ±0, subnormals, ±Inf, all-zero columns (lines of
// the strided axis) and all-zero rows. Elements outside the columns, and a
// guard past the block's end, must stay put. matVecNZ runs term counts from
// 0 (an all-zero line) to n, at random ascending positions, with values
// holding the same specials, into a line between two guards.
func TestDenseKernelsMatchGo(t *testing.T) {
	defer func(k denseKernel) { kernel = k }(kernel)
	kernels := denseKernels(t)[1:]
	if len(kernels) == 0 {
		t.Skip("CPU without AVX: matCols and matVecNZ run the Go loops")
	}
	rng := rand.New(rand.NewSource(31))
	const guard = 9
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	for _, n := range denseKernelLens {
		p := newDensePlan(n)
		for _, m := range [][]float64{p.mat, p.matT} {
			for _, w := range kernelWidths(n) {
				c0 := rng.Intn(5)
				stride := (c0 + w + rng.Intn(4)) | 1
				src := make([]float64, n*stride+guard)
				for i := range src[:n*stride] {
					src[i] = specialValue(rng)
				}
				for i := range src[n*stride:] {
					src[n*stride+i] = sentinel
				}
				for z := 0; z < 1+w/8; z++ {
					c := rng.Intn(stride)
					for i := 0; i < n; i++ {
						src[i*stride+c] = math.Copysign(0, float64(rng.Intn(2)*2-1))
					}
				}
				clear(src[rng.Intn(n)*stride:][:stride])
				want := append([]float64(nil), src...)
				kernel = denseGo
				matCols(want, m, make([]float64, n*w), n, stride, c0, c0+w)
				for _, k := range kernels {
					kernel = k
					got := append([]float64(nil), src...)
					matCols(got, m, make([]float64, n*w), n, stride, c0, c0+w)
					if i, ok := sameBits(got, want); !ok {
						t.Fatalf("%v matCols n=%d columns [%d, %d) stride %d: [%d] = %v (%#x), Go loop %v (%#x)",
							k, n, c0, c0+w, stride, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
			for terms := 0; terms <= n; terms += 1 + n/16 {
				pos := rng.Perm(n)[:terms]
				slices.Sort(pos)
				val := make([]float64, terms)
				for i := range val {
					val[i] = specialValue(rng)
				}
				want := make([]float64, n)
				kernel = denseGo
				matVecNZ(want, m, pos, val)
				for _, k := range kernels {
					kernel = k
					line := make([]float64, n+2*guard)
					for i := range line {
						line[i] = sentinel
					}
					matVecNZ(line[guard:guard+n], m, pos, val)
					for i := range guard {
						if math.Float64bits(line[i]) != math.Float64bits(sentinel) || math.Float64bits(line[guard+n+i]) != math.Float64bits(sentinel) {
							t.Fatalf("%v matVecNZ n=%d with %d terms wrote outside its line", k, n, terms)
						}
					}
					if i, ok := sameBits(line[guard:guard+n], want); !ok {
						t.Fatalf("%v matVecNZ n=%d with %d terms: [%d] = %v (%#x), Go loop %v (%#x)",
							k, n, terms, i, line[guard+i], math.Float64bits(line[guard+i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestPlanNDKernelsBitIdentical runs whole plans and sample-pruned
// operators through each kernel the CPU has, at 1, 2 and 4 workers, on
// grids whose dense axes take the assembly (the 50x100 grid, and shapes
// with 17-, 33- and 63-point axes; 100x120 and 17x33x20 are large enough
// to shard), and checks every output against the serial Go loop bit for
// bit.
func TestPlanNDKernelsBitIdentical(t *testing.T) {
	defer func(k denseKernel) { kernel = k }(kernel)
	rng := rand.New(rand.NewSource(37))
	for _, dims := range [][]int{{50, 100}, {100, 120}, {17, 33, 20}, {63, 130}, {3, 17, 63}} {
		x := randND(rng, dims)
		// A sparse iterate: the solver's Sampled.Inverse skips its zeros.
		s := make([]float64, len(x))
		for _, i := range rng.Perm(len(s))[:len(s)/50+1] {
			s[i] = specialValue(rng)
		}
		idx := rng.Perm(len(x))[:len(x)/10+1]
		vals := randVec(rng, len(idx))
		run := func(workers int) [][]float64 {
			p := NewPlanNDWorkers(dims, workers)
			fwd, inv := make([]float64, len(x)), make([]float64, len(x))
			p.Forward(fwd, x)
			p.Inverse(inv, x)
			sp := NewSampled(p, idx)
			sInv, sFwd := make([]float64, len(idx)), make([]float64, len(x))
			sp.Inverse(sInv, s)
			sp.Forward(sFwd, vals)
			return [][]float64{fwd, inv, sInv, sFwd}
		}
		kernel = denseGo
		want := run(1)
		for _, k := range denseKernels(t) {
			kernel = k
			for _, w := range []int{1, 2, 4} {
				for o, got := range run(w) {
					if i, ok := sameBits(got, want[o]); !ok {
						t.Fatalf("%v dims %v workers %d output %d: [%d] = %v, serial Go loop %v", k, dims, w, o, i, got[i], want[o][i])
					}
				}
			}
		}
	}
}

// TestDenseKernelSelected checks the kernel choice against the flags the
// OS reports: a CPU whose /proc/cpuinfo lists avx512f must run the AVX-512
// kernels, and one that lists avx but not avx512f the AVX kernels, or the
// kernel tests above would not check the kernels the CPU runs.
func TestDenseKernelSelected(t *testing.T) {
	t.Logf("dense kernel: %v", kernel)
	if kernel != cpuDense() {
		t.Fatalf("kernel = %v, but the CPU check picks %v", kernel, cpuDense())
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
		want := denseGo
		for _, f := range strings.Fields(flags) {
			switch {
			case f == "avx512f":
				want = denseAVX512
			case f == "avx" && want == denseGo:
				want = denseAVX
			}
		}
		if kernel != want {
			t.Fatalf("/proc/cpuinfo flags call for the %v kernel, but dct runs the %v", want, kernel)
		}
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}

// BenchmarkDenseKernels times the Go loops against each kernel the CPU has
// on the 50x100 grid's passes: one whole strided pass (the 50-point axis,
// two 50-column blocks) per op, and one sparse 100-point line per op with
// the 10 terms a sample-pruned forward line holds on sv-cold's grid.
func BenchmarkDenseKernels(b *testing.B) {
	defer func(k denseKernel) { kernel = k }(kernel)
	rng := rand.New(rand.NewSource(1))
	const rows, cols = 50, 100
	p50, p100 := newDensePlan(rows), newDensePlan(cols)
	x := randVec(rng, rows*cols)
	tmp := make([]float64, rows*denseCols)
	pos := rng.Perm(cols)[:10]
	slices.Sort(pos)
	val := randVec(rng, len(pos))
	line := make([]float64, cols)
	for _, k := range denseKernels(b) {
		name := [...]string{"go", "avx", "avx512"}[k]
		b.Run("cols/50x100/"+name, func(b *testing.B) {
			kernel = k
			y := append([]float64(nil), x...)
			for i := 0; i < b.N; i++ {
				matCols(y, p50.mat, tmp, rows, cols, 0, cols/2)
				matCols(y, p50.mat, tmp, rows, cols, cols/2, cols)
			}
		})
		b.Run("vecNZ/100-10/"+name, func(b *testing.B) {
			kernel = k
			for i := 0; i < b.N; i++ {
				matVecNZ(line, p100.mat, pos, val)
			}
		})
	}
}

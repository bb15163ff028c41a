package dct

import (
	"fmt"
	"runtime"

	"repro/internal/shard"
)

// PlanND computes separable orthonormal N-dimensional DCTs on row-major data
// (last axis fastest). The transform applies one 1-D pass per axis, from the
// last axis to the first: each pass transforms size/dims[k] independent lines
// along axis k (in 2-D: along every row, then along every column). It is the
// sparsifying transform of the compressed-sensing solver: a landscape X is
// represented as X = IDCT(S) with S sparse.
//
// Each axis takes the path NewPlan chooses for its length. On the dense path
// (short axes) a contiguous axis is one matrix-vector product per line, and a
// strided axis applies the cosine matrix to a block of columns at once, as
// axpys over contiguous rows with no gather/scatter. On the FFT path (long
// axes) each line of a strided axis is gathered into a buffer first.
//
// A plan built with NewPlanNDWorkers shards each axis pass across a worker
// pool: whole lines on the FFT path and on a contiguous axis, (outer block,
// column range) units on a dense strided axis. Every output element is
// computed by one worker in a fixed order, and no pass does any cross-unit
// reduction, so output is bit-identical to the serial plan for every worker
// count.
type PlanND struct {
	dims    []int
	size    int
	workers int
	axes    []ndAxis
}

// ndAxis is one axis pass: its length, the distance between consecutive
// elements of one of its lines, and per-worker-slot state. Degenerate
// (length-1) axes are the exact identity and keep no state.
type ndAxis struct {
	n, stride int
	// plans holds one length-n 1-D plan per worker slot; the clones share
	// the read-only cosine matrices or FFT tables.
	plans []*Plan
	// scratch is per-slot scratch for strided axes: n*min(stride, denseCols)
	// floats of column block on the dense path, a 2n-float gather/transform
	// line pair on the FFT path. A contiguous axis and an unrolled (8-point)
	// one transform in place and need none.
	scratch [][]float64
	// skip marks a dense axis of at least skipZerosMinLen points, where
	// Sampled.Inverse skips zero terms and all-zero slabs. (On 8-point
	// axes every pass skips all-zero lines in the kernels, a pair of lines
	// at a time on amd64's strided passes; see dense.go.)
	skip bool
	// pos is per-slot scratch of a sparse line's n nonzero positions, on a
	// contiguous axis that skips (see sparseLine).
	pos [][]int
}

// skipZerosMinLen is the shortest dense axis where Sampled.Inverse skips zero
// input term by term: on a contiguous axis it transforms each line from its
// nonzero terms, and in its pruned last pass it drops all-zero slabs. On
// longer axes a zero term saves n multiply-adds for one test; on shorter ones
// the per-term tests cost about what they save (on an 8^4 solve's length-8
// axes they cancelled the whole pruning gain). The whole-line test of the 8-point
// kernels is a different trade: one test per line, and it pays
// on a solver iterate, where most lines entering Inverse's first pass are
// all zero. FFT axes never skip: an FFT of a zero line is not guaranteed to
// be +0.
const skipZerosMinLen = denseMaxPow2 + 1

// units is the number of independent work items in the axis pass.
func (a *ndAxis) units(size int) int {
	if a.stride == 1 || a.plans[0].mat == nil {
		return size / a.n // whole lines
	}
	return size / (a.n * a.stride) * a.chunks()
}

// chunks is the number of column ranges a dense strided pass splits each
// outer block into.
func (a *ndAxis) chunks() int { return (a.stride + denseCols - 1) / denseCols }

// serialMinSize is the grid size below which parallel plans fall back to a
// single worker: per-transform work is so small there that goroutine fan-out
// costs more than it saves. Set from the solver's sample-pruned operator
// (forward plus adjoint, 10% samples, a 0.5%-dense iterate) at 1 and 2
// workers on a 2-CPU AVX-512 host, with the vector kernels of dense.go:
// one worker wins by 20-40% on 50x100 (sv-cold's grid) and 96x90, the two
// tie on 100x100 and 10x10x12x12, and two win by 20-30% on 128x130.
const serialMinSize = 10000

// NewPlanND creates a serial N-dimensional DCT plan for row-major data of the
// given per-axis lengths (last axis fastest).
func NewPlanND(dims []int) *PlanND { return NewPlanNDWorkers(dims, 1) }

// NewPlanNDWorkers creates an N-dimensional DCT plan that shards each axis
// pass across up to workers goroutines (0 = GOMAXPROCS). Small grids (fewer
// than serialMinSize = 10000 points, 50x100 among them) fall back to a serial
// plan regardless of workers; the result is bit-identical to NewPlanND's in
// every case.
func NewPlanNDWorkers(dims []int, workers int) *PlanND {
	return newPlanND(dims, workers, useDense)
}

// newPlanND builds the plan with dense(n) choosing each axis's path; only
// tests and benchmarks pass anything but useDense.
func newPlanND(dims []int, workers int, dense func(n int) bool) *PlanND {
	if len(dims) == 0 {
		panic("dct: empty ND DCT shape")
	}
	size := 1
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("dct: invalid ND DCT shape %v", dims))
		}
		size *= d
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if size < serialMinSize {
		workers = 1
	}
	// An axis pass has size/dims[k] independent lines; the busiest pass has
	// size/min(dims) of them (= max(rows, cols) in 2-D), so more workers
	// than that could never all run.
	if m := size / minPositive(dims); workers > m {
		workers = m
	}
	p := &PlanND{
		dims:    append([]int(nil), dims...),
		size:    size,
		workers: workers,
		axes:    make([]ndAxis, len(dims)),
	}
	stride := 1
	for k := len(dims) - 1; k >= 0; k-- {
		d := dims[k]
		a := &p.axes[k]
		a.n, a.stride = d, stride
		stride *= d
		if d <= 1 {
			continue // identity pass, skipped
		}
		a.plans = []*Plan{newPlan(d, dense(d))}
		slots := min(workers, a.units(size))
		for w := 1; w < slots; w++ {
			a.plans = append(a.plans, a.plans[0].clone())
		}
		a.skip = a.plans[0].mat != nil && d >= skipZerosMinLen
		if a.stride == 1 {
			if a.skip {
				a.pos = make([][]int, slots)
				for w := range a.pos {
					a.pos[w] = make([]int, d)
				}
			}
			continue
		}
		if a.plans[0].unrolled {
			continue // cols8 transforms in place
		}
		per := 2 * d
		if a.plans[0].mat != nil {
			per = d * min(a.stride, denseCols)
		}
		a.scratch = make([][]float64, slots)
		for w := range a.scratch {
			a.scratch[w] = make([]float64, per)
		}
	}
	return p
}

func minPositive(dims []int) int {
	m := dims[0]
	for _, d := range dims[1:] {
		if d < m {
			m = d
		}
	}
	return m
}

// Dims reports the per-axis lengths the plan transforms.
func (p *PlanND) Dims() []int { return append([]int(nil), p.dims...) }

// Size reports the total number of points.
func (p *PlanND) Size() int { return p.size }

// Workers reports the effective worker count (1 after the small-grid serial
// fallback).
func (p *PlanND) Workers() int { return p.workers }

// Forward computes the N-dimensional orthonormal DCT-II of src into dst
// (row-major, length Size). dst and src may alias.
func (p *PlanND) Forward(dst, src []float64) { p.apply(dst, src, true) }

// Inverse computes the N-dimensional orthonormal DCT-III of src into dst.
func (p *PlanND) Inverse(dst, src []float64) { p.apply(dst, src, false) }

func (p *PlanND) apply(dst, src []float64, forward bool) {
	if len(dst) != p.size || len(src) != p.size {
		panic(fmt.Sprintf("dct: ND length mismatch dst=%d src=%d want=%d", len(dst), len(src), p.size))
	}
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	// Passes run from the last axis to the first (in 2-D: rows along the
	// last axis first, then columns), the order the bit-identity pins of the
	// compressed-sensing solver rely on.
	for k := len(p.axes) - 1; k >= 0; k-- {
		p.pass(dst, k, forward, false)
	}
}

// pass transforms every line of x along axis k in place. With sparse (set by
// Sampled.Inverse only), a contiguous axis that skips (ndAxis.skip)
// transforms each line from its nonzero terms, bit for bit the same output;
// every other pass runs in full. The length-1 orthonormal DCT is the exact
// identity (bit-for-bit), so degenerate axes skip their pass.
func (p *PlanND) pass(x []float64, k int, forward, sparse bool) {
	a := &p.axes[k]
	if a.n <= 1 {
		return
	}
	sparse = sparse && a.pos != nil
	units := a.units(p.size)
	// A serial plan runs the range directly: a closure handed to
	// shard.ForRange escapes, so building one costs an allocation per pass.
	if p.workers <= 1 {
		a.passRange(x, forward, sparse, 0, 0, units)
		return
	}
	shard.ForRange(p.workers, units, func(slot, lo, hi int) { a.passRange(x, forward, sparse, slot, lo, hi) })
}

// passRange runs units [lo, hi) of a pass along a with slot's scratch.
func (a *ndAxis) passRange(x []float64, forward, sparse bool, slot, lo, hi int) {
	n, stride := a.n, a.stride
	switch {
	case stride == 1:
		// Contiguous lines: transform each in place, all at once on an
		// unrolled axis.
		plan := a.plans[slot]
		if plan.unrolled {
			m, mT := plan.mat, plan.matT
			if !forward {
				m, mT = mT, m
			}
			lines := x[lo*n : hi*n]
			vec8(lines, m, mT, lines)
			return
		}
		for r := lo; r < hi; r++ {
			row := x[r*n : (r+1)*n]
			if sparse && sparseLine(row, plan, a.pos[slot]) {
				continue
			}
			if forward {
				plan.Forward(row, row)
			} else {
				plan.Inverse(row, row)
			}
		}
	case a.plans[0].mat != nil:
		// Unit u covers the j-th of chunks even column ranges of outer
		// block u/chunks, the n rows of length stride starting at
		// (u/chunks)*n*stride.
		plan := a.plans[0]
		chunks := a.chunks()
		m, pairs := plan.mat, plan.matPairs
		if !forward {
			m, pairs = plan.matT, plan.matTPairs
		}
		for u := lo; u < hi; u++ {
			block := x[u/chunks*n*stride : (u/chunks+1)*n*stride]
			j := u % chunks
			c0, c1 := j*stride/chunks, (j+1)*stride/chunks
			if plan.unrolled {
				cols8(block, m, pairs, stride, c0, c1)
			} else {
				matCols(block, m, a.scratch[slot], n, stride, c0, c1)
			}
		}
	default:
		// Strided lines: line l starts at (l/stride)*stride*n + l%stride
		// and steps by stride — the same enumeration landscape metrics
		// use.
		plan := a.plans[slot]
		buf, out := a.scratch[slot][:n], a.scratch[slot][n:]
		for l := lo; l < hi; l++ {
			base := (l/stride)*stride*n + l%stride
			for i := 0; i < n; i++ {
				buf[i] = x[base+i*stride]
			}
			if forward {
				plan.Forward(out, buf)
			} else {
				plan.Inverse(out, buf)
			}
			for i := 0; i < n; i++ {
				x[base+i*stride] = out[i]
			}
		}
	}
}

// sparseLine inverse-transforms the dense-path line row in place from its
// nonzero terms, gathered into pos and the plan's line buffer, and reports
// true; it leaves the line alone and reports false when more than 3/4 of its
// terms are nonzero. That is about where matVec becomes the faster of the two
// bit-identical kernels: on 50- and 100-point lines matVecNZ, gather
// included, wins up to 75% nonzeros and loses from 90% (1.3x at 100% on 50
// points).
func sparseLine(row []float64, plan *Plan, pos []int) bool {
	val := plan.line
	nz := 0
	for i, v := range row {
		if v != 0 {
			if 4*(nz+1) > 3*len(row) {
				return false
			}
			pos[nz], val[nz] = i, v
			nz++
		}
	}
	// The inverse runs matT, whose transpose is mat.
	matVecNZ(row, plan.mat, pos[:nz], val[:nz])
	return true
}

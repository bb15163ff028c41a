package dct

import (
	"fmt"
	"runtime"

	"repro/internal/shard"
)

// PlanND computes separable orthonormal N-dimensional DCTs on row-major data
// (last axis fastest). The transform applies one 1-D pass per axis, from the
// last axis to the first: each pass transforms size/dims[k] independent lines
// along axis k. The 2-D case is exactly Plan2D's row-then-column sweep;
// Plan2D is now a thin 2-axis wrapper over PlanND, so the two are
// bit-identical by construction.
//
// A plan built with NewPlanNDWorkers shards each axis pass's independent
// lines across a worker pool. Each worker transforms whole lines with its own
// clone of the axis's 1-D plan, and no pass does any cross-line reduction, so
// output is bit-identical to the serial plan for every worker count.
type PlanND struct {
	dims    []int
	size    int
	workers int
	// axisPlans[k] holds one length-dims[k] 1-D plan per worker slot; nil
	// for degenerate (length-1) axes, whose pass is the exact identity and
	// is skipped.
	axisPlans [][]*Plan
	// axisBufs/axisOuts are per-slot gather/transform scratch for strided
	// (non-last) axes; the last axis transforms its contiguous lines in
	// place and needs none.
	axisBufs [][][]float64
	axisOuts [][][]float64
}

// NewPlanND creates a serial N-dimensional DCT plan for row-major data of the
// given per-axis lengths (last axis fastest).
func NewPlanND(dims []int) *PlanND { return NewPlanNDWorkers(dims, 1) }

// NewPlanNDWorkers creates an N-dimensional DCT plan that shards each axis
// pass across up to workers goroutines (0 = GOMAXPROCS). Small grids (fewer
// than 4096 points) fall back to a serial plan regardless of workers; the
// result is bit-identical to NewPlanND's in every case.
func NewPlanNDWorkers(dims []int, workers int) *PlanND {
	if len(dims) == 0 {
		panic("dct: empty ND DCT shape")
	}
	size := 1
	maxDim := 0
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("dct: invalid ND DCT shape %v", dims))
		}
		size *= d
		if d > maxDim {
			maxDim = d
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if size < serialMinSize {
		workers = 1
	}
	// An axis pass has size/dims[k] independent lines; the busiest pass has
	// size/min(dims) of them (= max(rows, cols) in 2-D, matching Plan2D's
	// historical cap), so more workers than that could never all run.
	if m := size / minPositive(dims); workers > m {
		workers = m
	}
	p := &PlanND{
		dims:      append([]int(nil), dims...),
		size:      size,
		workers:   workers,
		axisPlans: make([][]*Plan, len(dims)),
		axisBufs:  make([][][]float64, len(dims)),
		axisOuts:  make([][][]float64, len(dims)),
	}
	for k, d := range dims {
		if d <= 1 {
			continue // identity pass, skipped
		}
		lines := size / d
		slots := workers
		if slots > lines {
			slots = lines
		}
		plans := make([]*Plan, slots)
		plans[0] = NewPlan(d)
		for w := 1; w < slots; w++ {
			plans[w] = plans[0].clone()
		}
		p.axisPlans[k] = plans
		if k < len(dims)-1 {
			bufs := make([][]float64, slots)
			outs := make([][]float64, slots)
			for w := 0; w < slots; w++ {
				bufs[w] = make([]float64, d)
				outs[w] = make([]float64, d)
			}
			p.axisBufs[k] = bufs
			p.axisOuts[k] = outs
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
	// Passes run from the last axis to the first — the order Plan2D
	// established (rows along the last axis first, then columns), which the
	// 2-D bit-identity pins rely on. The length-1 orthonormal DCT is the
	// exact identity (bit-for-bit), so degenerate axes skip their pass.
	for k := len(p.dims) - 1; k >= 0; k-- {
		n := p.dims[k]
		if n <= 1 {
			continue
		}
		lines := p.size / n
		if k == len(p.dims)-1 {
			// Contiguous lines: transform each in place.
			shard.ForRange(p.workers, lines, func(slot, lo, hi int) {
				plan := p.axisPlans[k][slot]
				for r := lo; r < hi; r++ {
					row := dst[r*n : (r+1)*n]
					if forward {
						plan.Forward(row, row)
					} else {
						plan.Inverse(row, row)
					}
				}
			})
			continue
		}
		stride := 1
		for i := k + 1; i < len(p.dims); i++ {
			stride *= p.dims[i]
		}
		// Strided lines: line l starts at (l/stride)*stride*n + l%stride and
		// steps by stride — the same enumeration landscape metrics use.
		shard.ForRange(p.workers, lines, func(slot, lo, hi int) {
			plan := p.axisPlans[k][slot]
			buf, out := p.axisBufs[k][slot], p.axisOuts[k][slot]
			for l := lo; l < hi; l++ {
				base := (l/stride)*stride*n + l%stride
				for i := 0; i < n; i++ {
					buf[i] = dst[base+i*stride]
				}
				if forward {
					plan.Forward(out, buf)
				} else {
					plan.Inverse(out, buf)
				}
				for i := 0; i < n; i++ {
					dst[base+i*stride] = out[i]
				}
			}
		})
	}
}

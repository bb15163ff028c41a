package dct

import (
	"fmt"
	"slices"

	"repro/internal/shard"
)

// Sampled is a PlanND restricted to a fixed set of distinct grid samples
// idx, the measurement operator of compressed sensing and its adjoint:
//
//	Inverse: out[j] = IDCT(coeffs)[idx[j]]      (subsample ∘ inverse)
//	Forward: dst    = DCT(grid with vals[j] at idx[j], zero elsewhere)
//
// Both are bit-identical to the full transform followed by the gather, or
// preceded by the scatter, sign of zero included, at every worker count. They
// run the plan's passes in the same order but leave out work the samples
// never see:
//
//   - Inverse's last pass (over the first non-degenerate axis) computes only
//     the sampled outputs, one length-n dot each;
//   - Forward's first pass (over the last non-degenerate axis) runs only
//     over the lines that hold a sample, from their sampled terms;
//   - on a dense axis of skipZerosMinLen points or more, Inverse transforms
//     each contiguous line from its nonzero terms and its pruned last pass
//     drops all-zero slabs;
//   - on 8-point axes, every full pass writes an all-zero line as +0
//     without multiplying (the unrolled kernels of dense.go), which on the
//     solver's sparse iterate skips most lines of Inverse's first pass. On
//     amd64 the strided passes test lines two at a time and skip a pair
//     only when both lines are all zero; a pair with one all-zero line
//     still writes it as +0, since every term of its sums is ±0 added to
//     +0. Inverse's pruned last pass over an 8-point axis is one unrolled
//     8-term dot (acc8) per sample.
//
// A pruned pass is possible on the dense path only; an FFT axis in either
// place keeps the full pass (scatter before it, or gather after it).
//
// A Sampled uses its plan's scratch: it must not run concurrently with the
// plan or with another Sampled built on the same plan.
type Sampled struct {
	p   *PlanND
	idx []int
	// first and last are the first and last non-degenerate axes (-1 when
	// every axis is degenerate), the axes of Inverse's last pass and
	// Forward's first pass.
	first, last int
	// grid is Inverse's working copy of the coefficients.
	grid []float64
	// rowOff and col locate sample j for Inverse's pruned last pass: the
	// row offset r*n of its position r along the first axis in the cosine
	// matrix, and its offset within that axis's slab. rows is the slab
	// list that pass sums over.
	rowOff, col []int
	rows        []int
	// Forward's pruned first pass: lines[l] holds the samples
	// src[start[l]:start[l+1]], at positions pos[...] along the line,
	// ascending.
	lines, start, pos, src []int
}

// NewSampled builds the sample tables for p and idx once; the Sampled reads
// idx on every call, so the caller must not change it. It panics if an index
// is out of range or repeated.
func NewSampled(p *PlanND, idx []int) *Sampled {
	s := &Sampled{p: p, idx: idx, first: -1, last: -1, grid: make([]float64, p.size)}
	for k, a := range p.axes {
		if a.n > 1 {
			if s.first < 0 {
				s.first = k
			}
			s.last = k
		}
	}
	order := make([]int, len(idx))
	for j, gi := range idx {
		if gi < 0 || gi >= p.size {
			panic(fmt.Sprintf("dct: sample index %d out of range [0,%d)", gi, p.size))
		}
		order[j] = j
	}
	slices.SortFunc(order, func(a, b int) int { return idx[a] - idx[b] })
	for t := 1; t < len(order); t++ {
		if idx[order[t]] == idx[order[t-1]] {
			panic(fmt.Sprintf("dct: duplicate sample index %d", idx[order[t]]))
		}
	}
	if s.pruneInverse() {
		// Leading degenerate axes have length 1, so the first axis's slabs
		// of stride points tile the whole grid.
		a := &p.axes[s.first]
		s.rowOff = make([]int, len(idx))
		s.col = make([]int, len(idx))
		for j, gi := range idx {
			s.rowOff[j] = gi / a.stride * a.n
			s.col[j] = gi % a.stride
		}
		s.rows = make([]int, a.n)
	}
	if s.pruneForward() {
		// The last non-degenerate axis is contiguous (stride 1): line l
		// covers flat indices [l*n, (l+1)*n).
		n := p.axes[s.last].n
		s.pos = make([]int, len(idx))
		s.src = order
		for t, j := range order {
			line := idx[j] / n
			if len(s.lines) == 0 || s.lines[len(s.lines)-1] != line {
				s.lines = append(s.lines, line)
				s.start = append(s.start, t)
			}
			s.pos[t] = idx[j] % n
		}
		s.start = append(s.start, len(order))
	}
	return s
}

// pruneInverse reports whether Inverse's last pass is a dense one it can
// prune to the sampled outputs.
func (s *Sampled) pruneInverse() bool {
	return s.first >= 0 && s.p.axes[s.first].plans[0].mat != nil
}

// pruneForward reports whether Forward's first pass is a dense one it can
// prune to the lines that hold a sample.
func (s *Sampled) pruneForward() bool {
	return s.last >= 0 && s.p.axes[s.last].plans[0].mat != nil
}

// Inverse sets out[j] to the inverse transform of coeffs at grid index
// idx[j]. out has one entry per sample and coeffs the plan's Size.
func (s *Sampled) Inverse(out, coeffs []float64) {
	p := s.p
	if len(out) != len(s.idx) || len(coeffs) != p.size {
		panic(fmt.Sprintf("dct: sampled inverse length mismatch out=%d coeffs=%d want=%d,%d", len(out), len(coeffs), len(s.idx), p.size))
	}
	grid := s.grid
	copy(grid, coeffs)
	stop := 0 // the last axis passed over in full
	if s.pruneInverse() {
		stop = s.first + 1
	}
	for k := len(p.axes) - 1; k >= stop; k-- {
		p.pass(grid, k, false, true)
	}
	if !s.pruneInverse() {
		for j, gi := range s.idx {
			out[j] = grid[gi]
		}
		return
	}
	a := &p.axes[s.first]
	n, stride := a.n, a.stride
	m := a.plans[0].matT
	if a.plans[0].unrolled {
		// An 8-point axis never skips, so every dot has all eight terms:
		// acc8 sums them in the generic loop's order.
		shard.ForRange(p.workers, len(s.idx), func(_, lo, hi int) {
			for j := lo; j < hi; j++ {
				x := grid[s.col[j]:][:7*stride+1]
				out[j] = acc8(0, (*[8]float64)(m[s.rowOff[j]:]), x[0], x[stride], x[2*stride], x[3*stride],
					x[4*stride], x[5*stride], x[6*stride], x[7*stride])
			}
		})
		return
	}
	// Slab i (position i along the first axis) feeds term i of every dot;
	// on a skipping axis, all-zero slabs drop out.
	rows := s.rows[:0]
	for i := 0; i < n; i++ {
		if !a.skip || !allZero(grid[i*stride:(i+1)*stride]) {
			rows = append(rows, i)
		}
	}
	shard.ForRange(p.workers, len(s.idx), func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			r := m[s.rowOff[j] : s.rowOff[j]+n]
			x := grid[s.col[j]:]
			var sum float64
			for _, i := range rows {
				sum += r[i] * x[i*stride]
			}
			out[j] = sum
		}
	})
}

// Forward sets dst to the forward transform of the grid that holds vals[j]
// at idx[j] and zero elsewhere. vals has one entry per sample and dst the
// plan's Size.
func (s *Sampled) Forward(dst, vals []float64) {
	p := s.p
	if len(vals) != len(s.idx) || len(dst) != p.size {
		panic(fmt.Sprintf("dct: sampled forward length mismatch dst=%d vals=%d want=%d,%d", len(dst), len(vals), p.size, len(s.idx)))
	}
	clear(dst)
	next := len(p.axes) - 1 // the next axis to pass over
	if s.pruneForward() {
		a := &p.axes[s.last]
		n := a.n
		shard.ForRange(p.workers, len(s.lines), func(slot, lo, hi int) {
			val := a.plans[slot].line
			for l := lo; l < hi; l++ {
				t0, t1 := s.start[l], s.start[l+1]
				for t := t0; t < t1; t++ {
					val[t-t0] = vals[s.src[t]]
				}
				line := s.lines[l] * n
				matVecNZ(dst[line:line+n], a.plans[0].matT, s.pos[t0:t1], val[:t1-t0])
			}
		})
		next = s.last - 1
	} else {
		for j, gi := range s.idx {
			dst[gi] = vals[j]
		}
	}
	for k := next; k >= 0; k-- {
		p.pass(dst, k, true, false)
	}
}

package dct

import (
	"fmt"
	"math"
)

// Plan computes orthonormal DCT-II (forward) and DCT-III (inverse)
// transforms of a fixed length. With the orthonormal convention the forward
// and inverse transforms are transposes of each other, so the transform is an
// isometry: ||Forward(x)||_2 == ||x||_2. That property is what makes the
// partial-DCT compressed-sensing operator have unit Lipschitz constant.
type Plan struct {
	n    int
	fft  *fftPlan // size 2n
	c    []float64
	buf  []complex128
	cosK []complex128 // exp(-i*pi*k/(2n))
}

// NewPlan creates a DCT plan for vectors of length n.
func NewPlan(n int) *Plan {
	if n <= 0 {
		panic(fmt.Sprintf("dct: invalid DCT size %d", n))
	}
	p := &Plan{
		n:    n,
		fft:  newFFTPlan(2 * n),
		c:    make([]float64, n),
		buf:  make([]complex128, 2*n),
		cosK: make([]complex128, n),
	}
	p.c[0] = math.Sqrt(1 / float64(n))
	for k := 1; k < n; k++ {
		p.c[k] = math.Sqrt(2 / float64(n))
	}
	for k := 0; k < n; k++ {
		theta := -math.Pi * float64(k) / float64(2*n)
		p.cosK[k] = complex(math.Cos(theta), math.Sin(theta))
	}
	return p
}

// N reports the transform length.
func (p *Plan) N() int { return p.n }

// Forward computes the orthonormal DCT-II of src into dst. dst and src may
// be the same slice. Both must have length n.
func (p *Plan) Forward(dst, src []float64) {
	p.check(dst, src)
	n := p.n
	// Mirror extension: y = [x, reverse(x)] has a 2n-point DFT whose
	// twiddled real part is the (unnormalized) DCT-II of x.
	for i := 0; i < n; i++ {
		v := complex(src[i], 0)
		p.buf[i] = v
		p.buf[2*n-1-i] = v
	}
	p.fft.Forward(p.buf)
	for k := 0; k < n; k++ {
		d := real(p.buf[k]*p.cosK[k]) / 2
		dst[k] = p.c[k] * d
	}
}

// Inverse computes the orthonormal DCT-III (the inverse of Forward) of src
// into dst. dst and src may be the same slice.
func (p *Plan) Inverse(dst, src []float64) {
	p.check(dst, src)
	n := p.n
	// Reverse the forward pipeline: rebuild the 2n-point spectrum of the
	// mirrored sequence from the cosine coefficients, then inverse DFT.
	p.buf[n] = 0
	for k := 0; k < n; k++ {
		d := complex(2*src[k]/p.c[k], 0)
		v := d * complex(real(p.cosK[k]), -imag(p.cosK[k])) // e^{+i*pi*k/2n}
		p.buf[k] = v
		if k > 0 {
			p.buf[2*n-k] = complex(real(v), -imag(v))
		}
	}
	p.fft.Inverse(p.buf)
	for i := 0; i < n; i++ {
		dst[i] = real(p.buf[i])
	}
}

func (p *Plan) check(dst, src []float64) {
	if len(dst) != p.n || len(src) != p.n {
		panic(fmt.Sprintf("dct: length mismatch dst=%d src=%d plan=%d", len(dst), len(src), p.n))
	}
}

// clone returns a plan that shares p's immutable precomputed tables (twiddle
// factors, bit-reversal permutation, chirp filters, DCT scaling) but owns its
// scratch buffers, so the clone can transform concurrently with p. Because the
// tables are shared, a clone produces bit-identical output to its original.
func (p *Plan) clone() *Plan {
	q := *p
	q.buf = make([]complex128, len(p.buf))
	fft := *p.fft
	if fft.scratch != nil {
		fft.scratch = make([]complex128, len(fft.scratch))
	}
	q.fft = &fft
	return &q
}

// ForwardDirect computes the orthonormal DCT-II by direct O(n^2) summation.
// It exists as a reference implementation for tests and for the DCT ablation
// benchmark.
func ForwardDirect(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		c := math.Sqrt(2 / float64(n))
		if k == 0 {
			c = math.Sqrt(1 / float64(n))
		}
		var s float64
		for i := 0; i < n; i++ {
			s += x[i] * math.Cos(math.Pi*(2*float64(i)+1)*float64(k)/(2*float64(n)))
		}
		out[k] = c * s
	}
	return out
}

// InverseDirect computes the orthonormal DCT-III by direct O(n^2) summation.
func InverseDirect(y []float64) []float64 {
	n := len(y)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for k := 0; k < n; k++ {
			c := math.Sqrt(2 / float64(n))
			if k == 0 {
				c = math.Sqrt(1 / float64(n))
			}
			s += c * y[k] * math.Cos(math.Pi*(2*float64(i)+1)*float64(k)/(2*float64(n)))
		}
		out[i] = s
	}
	return out
}

// Plan2D computes separable orthonormal 2-D DCTs on row-major rows×cols
// data. It is the sparsifying transform the compressed-sensing solver used
// before the API went N-dimensional: a landscape X is represented as
// X = IDCT2(S) with S sparse.
//
// Plan2D is the 2-axis special case of PlanND — it delegates every transform
// to a PlanND over [rows, cols], so the two are bit-identical by
// construction. New code should use PlanND directly; Plan2D remains as the
// 2-D compatibility surface.
type Plan2D struct {
	nd *PlanND
}

// serialMinSize is the grid size below which parallel plans fall back to a
// single worker: per-transform work is so small there that goroutine fan-out
// costs more than it saves.
const serialMinSize = 4096

// NewPlan2D creates a serial 2-D DCT plan for row-major rows×cols grids.
func NewPlan2D(rows, cols int) *Plan2D { return NewPlan2DWorkers(rows, cols, 1) }

// NewPlan2DWorkers creates a 2-D DCT plan that shards the row and column
// passes across up to workers goroutines (0 = GOMAXPROCS). Small grids
// (rows*cols < 4096) fall back to a serial plan regardless of workers; the
// result is bit-identical to NewPlan2D's in every case.
func NewPlan2DWorkers(rows, cols, workers int) *Plan2D {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("dct: invalid 2-D DCT shape %dx%d", rows, cols))
	}
	return &Plan2D{nd: NewPlanNDWorkers([]int{rows, cols}, workers)}
}

// Rows reports the number of rows the plan transforms.
func (p *Plan2D) Rows() int { return p.nd.dims[0] }

// Cols reports the number of columns the plan transforms.
func (p *Plan2D) Cols() int { return p.nd.dims[1] }

// Workers reports the effective worker count (1 after the small-grid serial
// fallback).
func (p *Plan2D) Workers() int { return p.nd.workers }

// Forward computes the 2-D orthonormal DCT-II of src into dst (row-major,
// length rows*cols). dst and src may alias.
func (p *Plan2D) Forward(dst, src []float64) { p.nd.Forward(dst, src) }

// Inverse computes the 2-D orthonormal DCT-III of src into dst.
func (p *Plan2D) Inverse(dst, src []float64) { p.nd.Inverse(dst, src) }

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
//
// Short lengths (see useDense) apply the n×n cosine matrix directly; longer
// ones mirror each line into a 2n-point complex FFT.
type Plan struct {
	n int
	// Dense path: mat[k*n+i] = c_k cos(pi*(2i+1)*k/(2n)) is the orthonormal
	// DCT-II matrix and matT its transpose, the DCT-III. Both are nil on the
	// FFT path; line is the dense path's copy of an aliased input.
	mat, matT []float64
	line      []float64
	// unrolled marks an 8-point dense plan, whose lines run the unrolled
	// kernels of dense.go (matVec8, and matCols8 on a strided ND axis)
	// instead of matVec and matCols.
	unrolled bool
	// FFT path.
	fft  *fftPlan // size 2n
	c    []float64
	buf  []complex128
	cosK []complex128 // exp(-i*pi*k/(2n))
}

// Axis lengths the dense path takes, set from BenchmarkPlanND: every length
// up to denseMaxPow2, and other lengths up to denseMaxLen, where the mirrored
// FFT is a Bluestein of three FFTs of the next power of two >= 4n-1 (dense is
// 1.8x faster at 384x384 and level by 500x500). Power-of-two lengths above
// denseMaxPow2 keep the radix-2 FFT: it is ahead by 128x128, and while dense
// still wins at 32 and 64, staying on the FFT there keeps power-of-two grids'
// reconstructions bit-identical to the FFT-only transform.
const (
	denseMaxPow2 = 16
	denseMaxLen  = 384
)

// useDense is the one rule choosing a length-n transform's path. It depends
// on n alone, so a 1-D plan and every ND axis of the same length agree bit
// for bit.
func useDense(n int) bool { return n <= denseMaxPow2 || (!isPow2(n) && n <= denseMaxLen) }

// NewPlan creates a DCT plan for vectors of length n.
func NewPlan(n int) *Plan {
	if n <= 0 {
		panic(fmt.Sprintf("dct: invalid DCT size %d", n))
	}
	return newPlan(n, useDense(n))
}

// newPlan builds a length-n plan on the dense or the FFT path.
func newPlan(n int, dense bool) *Plan {
	if dense {
		return newDensePlan(n)
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

func newDensePlan(n int) *Plan {
	// cos(pi*(2i+1)k/(2n)) is cos(pi*m/(2n)) for the exact integer
	// m = (2i+1)k mod 4n, so 4n cosines fill the whole matrix.
	table := make([]float64, 4*n)
	for m := range table {
		table[m] = math.Cos(math.Pi * float64(m) / float64(2*n))
	}
	p := &Plan{n: n, mat: make([]float64, n*n), matT: make([]float64, n*n), line: make([]float64, n), unrolled: n == 8}
	for k := 0; k < n; k++ {
		c := math.Sqrt(2 / float64(n))
		if k == 0 {
			c = math.Sqrt(1 / float64(n))
		}
		for i := 0; i < n; i++ {
			v := c * table[(2*i+1)*k%(4*n)]
			p.mat[k*n+i] = v
			p.matT[i*n+k] = v
		}
	}
	return p
}

// N reports the transform length.
func (p *Plan) N() int { return p.n }

// Forward computes the orthonormal DCT-II of src into dst. dst and src may
// be the same slice. Both must have length n.
func (p *Plan) Forward(dst, src []float64) {
	p.check(dst, src)
	if p.mat != nil {
		p.dense(dst, src, p.mat)
		return
	}
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
	if p.mat != nil {
		p.dense(dst, src, p.matT)
		return
	}
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

// dense sets dst = m·src for the n×n row-major matrix m. matVec needs a copy
// of src when the two alias; matVec8 does not.
func (p *Plan) dense(dst, src, m []float64) {
	if p.unrolled {
		matVec8(dst, m, src)
		return
	}
	if &dst[0] == &src[0] {
		copy(p.line, src)
		src = p.line
	}
	matVec(dst, m, src)
}

func (p *Plan) check(dst, src []float64) {
	if len(dst) != p.n || len(src) != p.n {
		panic(fmt.Sprintf("dct: length mismatch dst=%d src=%d plan=%d", len(dst), len(src), p.n))
	}
}

// clone returns a plan that shares p's immutable precomputed tables (cosine
// matrices, twiddle factors, bit-reversal permutation, chirp filters, DCT
// scaling) but owns its scratch buffers, so the clone can transform
// concurrently with p. Because the tables are shared, a clone produces
// bit-identical output to its original.
func (p *Plan) clone() *Plan {
	q := *p
	if p.mat != nil {
		q.line = make([]float64, p.n)
		return &q
	}
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

// Package dct provides fast Fourier and discrete cosine transforms used as
// the sparsifying basis for compressed-sensing landscape reconstruction.
//
// Orthonormal DCT-II/DCT-III transforms (1-D and N-D) take one of two paths
// per axis length. Short axes apply the precomputed n×n cosine matrix
// directly. Long axes mirror each line into a 2n-point complex FFT: an
// iterative radix-2 Cooley-Tukey FFT for power-of-two sizes and Bluestein's
// chirp-z algorithm otherwise. The two paths agree to rounding, not bit for
// bit. All transforms allocate their tables once per size via plans so the
// compressed-sensing solver can call them in a tight loop.
package dct

import (
	"fmt"
	"math"
	"math/cmplx"
)

// fftPlan caches the bit-reversal permutation and twiddle factors for a
// radix-2 FFT of a fixed power-of-two size, plus Bluestein scratch for
// arbitrary sizes.
type fftPlan struct {
	n       int // transform size (arbitrary)
	pow2    int // radix-2 size actually used (n if n is a power of two)
	rev     []int
	twiddle []complex128 // forward twiddles for the radix-2 core

	// Bluestein state (nil when n is a power of two).
	chirp    []complex128 // b[k] = exp(i*pi*k^2/n)
	chirpFFT []complex128 // FFT of the zero-padded chirp filter
	scratch  []complex128
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// newFFTPlan builds a plan for length-n complex FFTs.
func newFFTPlan(n int) *fftPlan {
	if n <= 0 {
		panic(fmt.Sprintf("dct: invalid FFT size %d", n))
	}
	p := &fftPlan{n: n}
	if isPow2(n) {
		p.pow2 = n
		p.initRadix2(n)
		return p
	}
	// Bluestein: convolution size must be >= 2n-1 and a power of two.
	m := nextPow2(2*n - 1)
	p.pow2 = m
	p.initRadix2(m)

	p.chirp = make([]complex128, n)
	for k := 0; k < n; k++ {
		// Reduce k*k mod 2n in int64 (exact for any n below 2^31) so the
		// chirp phase stays small and accurate.
		kk := (int64(k) * int64(k)) % int64(2*n)
		theta := math.Pi * float64(kk) / float64(n)
		p.chirp[k] = cmplx.Exp(complex(0, theta))
	}
	filter := make([]complex128, m)
	filter[0] = p.chirp[0]
	for k := 1; k < n; k++ {
		filter[k] = p.chirp[k]
		filter[m-k] = p.chirp[k]
	}
	p.radix2(filter, false)
	p.chirpFFT = filter
	p.scratch = make([]complex128, m)
	return p
}

func (p *fftPlan) initRadix2(m int) {
	p.rev = make([]int, m)
	bits := 0
	for 1<<bits < m {
		bits++
	}
	for i := 0; i < m; i++ {
		r := 0
		for b := 0; b < bits; b++ {
			if i&(1<<b) != 0 {
				r |= 1 << (bits - 1 - b)
			}
		}
		p.rev[i] = r
	}
	p.twiddle = make([]complex128, m/2)
	for i := 0; i < m/2; i++ {
		theta := -2 * math.Pi * float64(i) / float64(m)
		p.twiddle[i] = cmplx.Exp(complex(0, theta))
	}
}

// radix2 performs an in-place power-of-two FFT (inverse when inv is true,
// without the 1/m normalization).
func (p *fftPlan) radix2(a []complex128, inv bool) {
	m := len(a)
	for i, r := range p.rev[:m] {
		if i < r {
			a[i], a[r] = a[r], a[i]
		}
	}
	for size := 2; size <= m; size <<= 1 {
		half := size / 2
		step := m / size
		for start := 0; start < m; start += size {
			for j := 0; j < half; j++ {
				w := p.twiddle[j*step]
				if inv {
					w = cmplx.Conj(w)
				}
				u := a[start+j]
				v := a[start+j+half] * w
				a[start+j] = u + v
				a[start+j+half] = u - v
			}
		}
	}
}

// Forward computes the in-place forward DFT of a, which must have length n.
func (p *fftPlan) Forward(a []complex128) { p.transform(a, false) }

// Inverse computes the in-place inverse DFT of a (normalized by 1/n).
func (p *fftPlan) Inverse(a []complex128) {
	p.transform(a, true)
	scale := complex(1/float64(p.n), 0)
	for i := range a {
		a[i] *= scale
	}
}

func (p *fftPlan) transform(a []complex128, inv bool) {
	if len(a) != p.n {
		panic(fmt.Sprintf("dct: FFT input length %d, plan size %d", len(a), p.n))
	}
	if p.chirp == nil {
		p.radix2(a, inv)
		return
	}
	// Bluestein: X[k] = conj(b[k]) * sum_n (a[n] conj(b[n])) b[k-n].
	// For the inverse transform conjugate the chirp.
	m := p.pow2
	s := p.scratch
	for i := range s {
		s[i] = 0
	}
	for k := 0; k < p.n; k++ {
		c := p.chirp[k]
		if !inv {
			c = cmplx.Conj(c)
		}
		s[k] = a[k] * c
	}
	p.radix2(s, false)
	if !inv {
		for i := 0; i < m; i++ {
			s[i] *= p.chirpFFT[i]
		}
	} else {
		// The inverse chirp filter is the conjugate of the forward one;
		// conj(FFT(f)) equals FFT of conj(f) reversed, but since the
		// filter is symmetric (f[k] == f[m-k]) the FFT of the
		// conjugated filter is simply the conjugate of chirpFFT.
		for i := 0; i < m; i++ {
			s[i] *= cmplx.Conj(p.chirpFFT[i])
		}
	}
	p.radix2(s, true)
	invM := complex(1/float64(m), 0)
	for k := 0; k < p.n; k++ {
		c := p.chirp[k]
		if !inv {
			c = cmplx.Conj(c)
		}
		a[k] = s[k] * invM * c
	}
}

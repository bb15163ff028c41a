package dct

// Dense-path kernels: the n×n cosine matrix applied to every line of an axis.
// Each output element is the sum over i = 0..n-1, in that order, of
// m[o*n+i]*x[i], starting from zero. The kernels below only interleave
// independent sums, so the result is the same bit for bit however lines and
// columns are split across calls and workers.
//
// The same holds when terms with x[i] == 0 are left out. A sum that starts at
// +0 never becomes −0 (x + y rounds to −0 only when both are −0), and adding
// ±0 to anything but −0 leaves it unchanged, so dropping the m[o*n+i]*±0
// terms cannot change a single output bit, sign of zero included; a line
// whose input is all zero transforms to +0 everywhere. Zeros are skipped two
// ways, by axis length:
//
//   - on 8-point axes the unrolled kernels test each whole line and write
//     an all-zero one as +0: one test per line, and on a solver iterate
//     most lines entering the inverse's first pass are all zero;
//   - on dense axes of skipZerosMinLen points or more, Sampled.Inverse drops
//     the zero terms of each contiguous line (sparseLine, matVecNZ) and the
//     all-zero slabs of its pruned last pass. On shorter axes a per-term
//     test costs about what it saves.
//
// The sample-pruned kernels rely on it too: a scattered sample grid is zero
// off the samples.

// denseCols caps the columns a strided-axis unit covers, so a worker's
// scratch is n×denseCols floats whatever the grid size.
const denseCols = 64

// matVec sets dst[o] = sum_i m[o*n+i]*x[i] for the n×n row-major matrix m.
// dst and x must not alias. Four outputs share one pass over x so their
// independent sums overlap.
func matVec(dst, m, x []float64) {
	n := len(x)
	o := 0
	for ; o+4 <= n; o += 4 {
		// Reslicing to len(x) lets the compiler drop the bounds checks.
		r0 := m[o*n : o*n+n][:len(x)]
		r1 := m[(o+1)*n : (o+1)*n+n][:len(x)]
		r2 := m[(o+2)*n : (o+2)*n+n][:len(x)]
		r3 := m[(o+3)*n : (o+3)*n+n][:len(x)]
		var s0, s1, s2, s3 float64
		for i, v := range x {
			s0 += r0[i] * v
			s1 += r1[i] * v
			s2 += r2[i] * v
			s3 += r3[i] * v
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = s0, s1, s2, s3
	}
	for ; o < n; o++ {
		r := m[o*n : o*n+n][:len(x)]
		var s float64
		for i, v := range x {
			s += r[i] * v
		}
		dst[o] = s
	}
}

// matVecNZ is matVec for an input held as its terms: positions pos
// (ascending) and values val. mT is m's transpose, so each term is an axpy of
// the contiguous row mT[pos[t]*n:] into dst, and dst[o] sums
// m[o*n+pos[t]]*val[t] for t ascending from zero. Positions left out are
// terms whose input is zero, so the result matches matVec bit for bit.
func matVecNZ(dst, mT []float64, pos []int, val []float64) {
	n := len(dst)
	clear(dst)
	t := 0
	// Four terms per statement round exactly like four single-term passes
	// (see matCols).
	for ; t+4 <= len(pos); t += 4 {
		a0, a1, a2, a3 := val[t], val[t+1], val[t+2], val[t+3]
		r0 := mT[pos[t]*n : pos[t]*n+n][:len(dst)]
		r1 := mT[pos[t+1]*n : pos[t+1]*n+n][:len(dst)]
		r2 := mT[pos[t+2]*n : pos[t+2]*n+n][:len(dst)]
		r3 := mT[pos[t+3]*n : pos[t+3]*n+n][:len(dst)]
		for o := range dst {
			dst[o] = dst[o] + r0[o]*a0 + r1[o]*a1 + r2[o]*a2 + r3[o]*a3
		}
	}
	for ; t < len(pos); t++ {
		a, r := val[t], mT[pos[t]*n : pos[t]*n+n][:len(dst)]
		for o := range dst {
			dst[o] += r[o] * a
		}
	}
}

// matCols applies the n×n matrix m in place to columns [c0, c1) of the n
// rows x[i*stride : i*stride+stride], i = 0..n-1: every column is one line of
// a strided axis. tmp (at least n*(c1-c0) long) receives a copy of the input
// columns; each output row is then an axpy over contiguous memory.
func matCols(x, m, tmp []float64, n, stride, c0, c1 int) {
	w := c1 - c0
	for i := 0; i < n; i++ {
		copy(tmp[i*w:(i+1)*w], x[i*stride+c0:i*stride+c1])
	}
	for o := 0; o < n; o++ {
		out := x[o*stride+c0 : o*stride+c1]
		r := m[o*n : o*n+n]
		for j := range out {
			out[j] = 0
		}
		i := 0
		// Four terms per statement: Go evaluates a+b+c left to right, so
		// this rounds exactly like four single-term passes.
		for ; i+4 <= n; i += 4 {
			a0, a1, a2, a3 := r[i], r[i+1], r[i+2], r[i+3]
			x0 := tmp[i*w : i*w+w][:len(out)]
			x1 := tmp[(i+1)*w : (i+1)*w+w][:len(out)]
			x2 := tmp[(i+2)*w : (i+2)*w+w][:len(out)]
			x3 := tmp[(i+3)*w : (i+3)*w+w][:len(out)]
			for j := range out {
				out[j] = out[j] + a0*x0[j] + a1*x1[j] + a2*x2[j] + a3*x3[j]
			}
		}
		for ; i < n; i++ {
			a, xi := r[i], tmp[i*w : i*w+w][:len(out)]
			for j := range out {
				out[j] += a * xi[j]
			}
		}
	}
}

// allZero reports whether every element of x is ±0.
func allZero(x []float64) bool {
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}

// The 8-point kernels stand in for matVec and matCols on plans marked
// unrolled (Plan.unrolled). They hold one line's inputs in locals and write
// each output as one acc8 expression from 0 in ascending input order: the
// same sum, rounded the same way, as the generic kernels. Having read the
// whole line before writing any of it, they may transform it in place, so
// matCols8 needs no scratch. A line whose inputs are all ±0 is written as +0
// without a multiply (see the header).

// acc8 returns s + r[0]*x0 + r[1]*x1 + ... + r[7]*x7, summed left to right.
func acc8(s float64, r *[8]float64, x0, x1, x2, x3, x4, x5, x6, x7 float64) float64 {
	return s + r[0]*x0 + r[1]*x1 + r[2]*x2 + r[3]*x3 + r[4]*x4 + r[5]*x5 + r[6]*x6 + r[7]*x7
}

// zero8 reports whether x0..x7 are all ±0.
func zero8(x0, x1, x2, x3, x4, x5, x6, x7 float64) bool {
	return x0 == 0 && x1 == 0 && x2 == 0 && x3 == 0 && x4 == 0 && x5 == 0 && x6 == 0 && x7 == 0
}

// matVec8 is matCols8 on one contiguous line, without its per-row slices:
// as Plan.dense's kernel, matCols8(dst, m, 1, 0, 1) ran ~1.4x slower per
// line.
func matVec8(dst, m, x []float64) {
	v, d, mm := (*[8]float64)(x), (*[8]float64)(dst), (*[64]float64)(m)
	x0, x1, x2, x3, x4, x5, x6, x7 := v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]
	if zero8(x0, x1, x2, x3, x4, x5, x6, x7) {
		*d = [8]float64{}
		return
	}
	d[0] = acc8(0, (*[8]float64)(mm[0:8]), x0, x1, x2, x3, x4, x5, x6, x7)
	d[1] = acc8(0, (*[8]float64)(mm[8:16]), x0, x1, x2, x3, x4, x5, x6, x7)
	d[2] = acc8(0, (*[8]float64)(mm[16:24]), x0, x1, x2, x3, x4, x5, x6, x7)
	d[3] = acc8(0, (*[8]float64)(mm[24:32]), x0, x1, x2, x3, x4, x5, x6, x7)
	d[4] = acc8(0, (*[8]float64)(mm[32:40]), x0, x1, x2, x3, x4, x5, x6, x7)
	d[5] = acc8(0, (*[8]float64)(mm[40:48]), x0, x1, x2, x3, x4, x5, x6, x7)
	d[6] = acc8(0, (*[8]float64)(mm[48:56]), x0, x1, x2, x3, x4, x5, x6, x7)
	d[7] = acc8(0, (*[8]float64)(mm[56:64]), x0, x1, x2, x3, x4, x5, x6, x7)
}

func matCols8(x, m []float64, stride, c0, c1 int) {
	mm := (*[64]float64)(m)
	// One slice per row, resliced to the column range, so the loop runs
	// without bounds checks.
	s0 := x[c0:c1]
	s1 := x[1*stride+c0:][:len(s0)]
	s2 := x[2*stride+c0:][:len(s0)]
	s3 := x[3*stride+c0:][:len(s0)]
	s4 := x[4*stride+c0:][:len(s0)]
	s5 := x[5*stride+c0:][:len(s0)]
	s6 := x[6*stride+c0:][:len(s0)]
	s7 := x[7*stride+c0:][:len(s0)]
	for j := range s0 {
		x0, x1, x2, x3, x4, x5, x6, x7 := s0[j], s1[j], s2[j], s3[j], s4[j], s5[j], s6[j], s7[j]
		if zero8(x0, x1, x2, x3, x4, x5, x6, x7) {
			s0[j], s1[j], s2[j], s3[j], s4[j], s5[j], s6[j], s7[j] = 0, 0, 0, 0, 0, 0, 0, 0
			continue
		}
		s0[j] = acc8(0, (*[8]float64)(mm[0:8]), x0, x1, x2, x3, x4, x5, x6, x7)
		s1[j] = acc8(0, (*[8]float64)(mm[8:16]), x0, x1, x2, x3, x4, x5, x6, x7)
		s2[j] = acc8(0, (*[8]float64)(mm[16:24]), x0, x1, x2, x3, x4, x5, x6, x7)
		s3[j] = acc8(0, (*[8]float64)(mm[24:32]), x0, x1, x2, x3, x4, x5, x6, x7)
		s4[j] = acc8(0, (*[8]float64)(mm[32:40]), x0, x1, x2, x3, x4, x5, x6, x7)
		s5[j] = acc8(0, (*[8]float64)(mm[40:48]), x0, x1, x2, x3, x4, x5, x6, x7)
		s6[j] = acc8(0, (*[8]float64)(mm[48:56]), x0, x1, x2, x3, x4, x5, x6, x7)
		s7[j] = acc8(0, (*[8]float64)(mm[56:64]), x0, x1, x2, x3, x4, x5, x6, x7)
	}
}

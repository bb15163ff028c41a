package qsim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/pauli"
	"repro/internal/shard"
)

// State is a pure quantum state on n qubits: 2^n complex amplitudes with
// qubit q addressed by bit q of the basis index.
type State struct {
	n   int
	amp []complex128
	// workers bounds how many goroutines elementwise gate kernels shard
	// their amplitude range across (<= 1 means serial). See SetWorkers.
	workers int
	// phaseLUT is the reused scratch for applyPhaseTable's per-application
	// complex phase LUT (one entry per distinct table value), so fused
	// diagonal layers allocate nothing in steady state.
	phaseLUT []complex128
}

// NewState prepares |0...0> on n qubits.
func NewState(n int) *State {
	if n <= 0 || n > 30 {
		panic(fmt.Sprintf("qsim: unsupported qubit count %d", n))
	}
	s := &State{n: n, amp: make([]complex128, 1<<uint(n))}
	s.amp[0] = 1
	return s
}

// N reports the qubit count.
func (s *State) N() int { return s.n }

// Amplitudes returns the raw amplitude slice (do not mutate).
func (s *State) Amplitudes() []complex128 { return s.amp }

// SetWorkers lets elementwise gate kernels shard their amplitude range over
// up to w goroutines (w <= 1, or states too small to amortize the goroutine
// overhead, run serially). Sharded execution is bit-identical to serial for
// every worker count: each amplitude is produced by exactly one shard with
// exactly the operations the serial loop would perform, and reductions
// (Norm, expectations) always run serially so floating-point sums keep a
// fixed order. Returns s for chaining.
func (s *State) SetWorkers(w int) *State {
	s.workers = w
	return s
}

// minShardIters is the per-kernel iteration count below which amplitude
// sharding is not worth the goroutine overhead.
const minShardIters = 1 << 13

// kernelWorkers resolves the shard count for a kernel with iters iterations.
func (s *State) kernelWorkers(iters int) int {
	if s.workers <= 1 || iters < minShardIters {
		return 1
	}
	return s.workers
}

// KernelShardable reports whether gate kernels on an n-qubit state are
// large enough for SetWorkers sharding to actually engage: the smallest
// kernel iteration count (2^n/4 for the two-qubit gates) must reach the
// goroutine-amortization threshold. Batch evaluators use it to decide
// between point-level and amplitude-level sharding.
func KernelShardable(n int) bool {
	return n >= 2 && (1<<uint(n))>>2 >= minShardIters
}

// Norm returns the 2-norm of the state (1 for any unitary evolution).
func (s *State) Norm() float64 {
	var t float64
	for _, a := range s.amp {
		t += real(a)*real(a) + imag(a)*imag(a)
	}
	return math.Sqrt(t)
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	c := &State{n: s.n, amp: make([]complex128, len(s.amp)), workers: s.workers}
	copy(c.amp, s.amp)
	return c
}

// Reset returns the state to |0...0>.
func (s *State) Reset() {
	for i := range s.amp {
		s.amp[i] = 0
	}
	s.amp[0] = 1
}

// base2 expands a compressed index k in [0, 2^n/4) into the basis index
// whose bits at the two gate-qubit positions are zero, given the low mask
// lm = loBit-1 and the compressed-space high mask hm = hiBit/2 - 1. This is
// how the two-qubit kernels enumerate exactly the 2^n/4 index groups a gate
// touches, with no per-index mask tests.
func base2(k, lm, hm int) int {
	return k&lm | (k&(hm&^lm))<<1 | (k&^hm)<<2
}

// masks2 returns (lm, hm) for two distinct qubit bits.
func masks2(a, b int) (lm, hm int) {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo - 1, hi>>1 - 1
}

// The gate kernels below come in pairs: a range method that performs the
// actual strided loop over a compressed-index interval, and a dispatcher
// that runs the whole range inline when serial or fans shards out across
// goroutines when the state is large and SetWorkers allows. Closures are
// only created on the parallel path, so the serial hot path (the batch
// evaluators' per-point regime) allocates nothing. Two passes serve more
// than one gate at a time — the preparation pass (prepare) and the paired
// mixer kernel (mixedPairRange) — and both give every amplitude exactly the
// arithmetic the one-gate kernels would.

// phase1Q multiplies the |1> half by m11 (m00 = 1: a zero-angle RX or RY).
func (s *State) phase1Q(klo, khi, bit, lm int, m11 complex128) {
	amp := s.amp
	for k := klo; k < khi; k++ {
		amp[(k&^lm)<<1|k&lm|bit] *= m11
	}
}

// realDense1Q applies an all-real 2x2 matrix (H, X, RY) with half the
// multiplies of the generic complex path: exactly the operations the full
// complex arithmetic performs on the nonzero components, so results match
// the generic kernel bit-for-bit (up to the sign of exact zeros).
func (s *State) realDense1Q(klo, khi, bit, lm int, m00, m01, m10, m11 float64) {
	amp := s.amp
	for k := klo; k < khi; k++ {
		i := (k&^lm)<<1 | k&lm
		j := i | bit
		a0, a1 := amp[i], amp[j]
		a0r, a0i := real(a0), imag(a0)
		a1r, a1i := real(a1), imag(a1)
		amp[i] = complex(m00*a0r+m01*a1r, m00*a0i+m01*a1i)
		amp[j] = complex(m10*a0r+m11*a1r, m10*a0i+m11*a1i)
	}
}

// mixedDense1Q applies a matrix with real diagonal and purely imaginary
// off-diagonal entries (RX), again performing exactly the generic
// path's nonzero-component operations. Each index i with pivot bit lm+1
// clear pairs with i^d: d is the qubit bit on a full state, and the
// complement mask on a half state (see half.go).
func (s *State) mixedDense1Q(klo, khi, d, lm int, m mixedMatrix) {
	amp := s.amp
	for k := klo; k < khi; k++ {
		i := (k&^lm)<<1 | k&lm
		j := i ^ d
		amp[i], amp[j] = m.apply(amp[i], amp[j])
	}
}

// applyMixed1Q runs mixedDense1Q over all len(amp)/2 pairs.
func (s *State) applyMixed1Q(d, lm int, m mixedMatrix) {
	half := len(s.amp) >> 1
	if w := s.kernelWorkers(half); w > 1 {
		shard.ForRange(w, half, func(_, lo, hi int) { s.mixedDense1Q(lo, hi, d, lm, m) })
		return
	}
	s.mixedDense1Q(0, half, d, lm, m)
}

// simKernel names an implementation of the three vector passes of a
// half-state energy: the paired mixer pass, the preparation gather and the
// mirrored expectation sum.
type simKernel uint8

const (
	kernelGo     simKernel = iota // mixedPairRangeGo, gatherGo, mirroredSumsGo
	kernelAVX                     // mixedPairAVX, gatherAVX, mirroredSumsAVX (amd64)
	kernelAVX512                  // mixedPairAVX512, gatherAVX, mirroredSumsAVX512 (amd64)
)

func (k simKernel) String() string {
	return [...]string{"portable Go loop", "AVX", "AVX-512"}[k]
}

// KernelName names the kernels the simulator's vector passes run on this
// CPU: "AVX-512", "AVX" or "portable Go loop". The choice is made once, at
// start-up.
func KernelName() string { return kernel.String() }

// mixedMatrix holds the nonzero components of a mixed-class matrix: the
// real diagonal and the imaginary parts of the off-diagonal.
type mixedMatrix struct{ m00, m01i, m10i, m11 float64 }

// apply returns the matrix applied to the pair (a0, a1).
func (m mixedMatrix) apply(a0, a1 complex128) (complex128, complex128) {
	a0r, a0i := real(a0), imag(a0)
	a1r, a1i := real(a1), imag(a1)
	return complex(m.m00*a0r-m.m01i*a1i, m.m00*a0i+m.m01i*a1r),
		complex(m.m11*a1r-m.m10i*a0i, m.m10i*a0r+m.m11*a1i)
}

// mixedPairRangeGo applies two mixed-class gates, flipping da then db, in
// one pass: each 4-amplitude group {i0, i0^da, i0^db, i0^da^db} gets gate
// A on both of its da-pairs, then gate B on both of its db-pairs. Every
// amplitude sees exactly the operations, in exactly the order, of two
// mixedDense1Q sweeps. On a full state da and db are the two qubit bits
// (i0 has both clear, so ^ is |); a half state passes the complement mask
// for the mirrored top qubit (see half.go).
//
// This is the portable kernel. mixedPairRange runs it on every platform
// but amd64, and on amd64 CPUs without AVX; otherwise it runs the AVX or
// AVX-512 kernel in mixer_amd64.s, which give the same bits.
func (s *State) mixedPairRangeGo(klo, khi, lm, hm, da, db int, ma, mb mixedMatrix) {
	amp := s.amp
	for k := klo; k < khi; k++ {
		i0 := base2(k, lm, hm)
		i1, i2, i3 := i0^da, i0^db, i0^da^db
		x0, x1 := ma.apply(amp[i0], amp[i1])
		x2, x3 := ma.apply(amp[i2], amp[i3])
		amp[i0], amp[i2] = mb.apply(x0, x2)
		amp[i1], amp[i3] = mb.apply(x1, x3)
	}
}

// applyMixedPairMasks runs mixedPairRange over all len(amp)/4 groups
// spanned by the independent flip masks da and db. Each group is visited
// once, at its member with two pivot bits clear: the top bit of da, and the
// top bit of db once da's pivot is eliminated from it. For qubit bits the
// pivots are the bits themselves.
func (s *State) applyMixedPairMasks(da, db int, ma, mb mixedMatrix) {
	lm, hm := pairMasks(da, db)
	quarter := len(s.amp) >> 2
	if w := s.kernelWorkers(quarter); w > 1 {
		shard.ForRange(w, quarter, func(_, lo, hi int) { s.mixedPairRange(lo, hi, lm, hm, da, db, ma, mb) })
		return
	}
	s.mixedPairRange(0, quarter, lm, hm, da, db, ma, mb)
}

// pairMasks returns base2's (lm, hm) for the pivots of the flip masks da
// and db: the top bit of da, and the top bit of db once da's pivot is
// eliminated from it.
func pairMasks(da, db int) (lm, hm int) {
	pa := 1 << (bits.Len(uint(da)) - 1)
	eb := db
	if eb&pa != 0 {
		eb ^= da
	}
	return masks2(pa, 1<<(bits.Len(uint(eb))-1))
}

// kernelClass names the apply1Q kernel a 2x2 matrix dispatches to.
type kernelClass uint8

const (
	classPhase kernelClass = iota // m00 = 1, zero off-diagonal (RX(0), RY(0))
	classReal                     // all-real (H, X, RY)
	classMixed                    // real diagonal, imaginary off-diagonal (RX)
)

// classify picks the kernel for m, a gateMatrix matrix. The order of the
// tests is the dispatch rule: a matrix in two classes takes the earlier one.
// gateMatrix yields no matrix outside the three classes, so one that is
// neither a phase nor real is an RX with a nonzero angle: mixed.
func classify(m [2][2]complex128) kernelClass {
	switch {
	case m[0][1] == 0 && m[1][0] == 0 && m[0][0] == 1:
		return classPhase
	case imag(m[0][0]) == 0 && imag(m[0][1]) == 0 && imag(m[1][0]) == 0 && imag(m[1][1]) == 0:
		return classReal
	default:
		return classMixed
	}
}

// mixedOf extracts the mixed-class components of m.
func mixedOf(m [2][2]complex128) mixedMatrix {
	return mixedMatrix{real(m[0][0]), imag(m[0][1]), imag(m[1][0]), real(m[1][1])}
}

// apply1Q applies the 2x2 matrix m to qubit q as a strided two-level loop
// over compressed indices. An exact identity (a zero angle) takes the phase
// path, which touches only the |1> half.
func (s *State) apply1Q(q int, m [2][2]complex128) {
	bit := 1 << uint(q)
	lm := bit - 1
	half := len(s.amp) >> 1
	w := s.kernelWorkers(half)
	switch classify(m) {
	case classPhase:
		if w > 1 {
			shard.ForRange(w, half, func(_, lo, hi int) { s.phase1Q(lo, hi, bit, lm, m[1][1]) })
			return
		}
		s.phase1Q(0, half, bit, lm, m[1][1])
	case classReal:
		r00, r01, r10, r11 := real(m[0][0]), real(m[0][1]), real(m[1][0]), real(m[1][1])
		if w > 1 {
			shard.ForRange(w, half, func(_, lo, hi int) { s.realDense1Q(lo, hi, bit, lm, r00, r01, r10, r11) })
			return
		}
		s.realDense1Q(0, half, bit, lm, r00, r01, r10, r11)
	case classMixed:
		s.applyMixed1Q(bit, lm, mixedOf(m))
	}
}

func (s *State) czRange(klo, khi, lm, hm, mask int) {
	amp := s.amp
	for k := klo; k < khi; k++ {
		i := base2(k, lm, hm) | mask
		amp[i] = -amp[i]
	}
}

// applyCZ negates the |11> amplitude of every group.
func (s *State) applyCZ(a, b int) {
	ab, bb := 1<<uint(a), 1<<uint(b)
	lm, hm := masks2(ab, bb)
	quarter := len(s.amp) >> 2
	if w := s.kernelWorkers(quarter); w > 1 {
		shard.ForRange(w, quarter, func(_, lo, hi int) { s.czRange(lo, hi, lm, hm, ab|bb) })
		return
	}
	s.czRange(0, quarter, lm, hm, ab|bb)
}

func (s *State) rzzRange(klo, khi, lm, hm, ab, bb int, pPlus, pMinus complex128) {
	amp := s.amp
	for k := klo; k < khi; k++ {
		base := base2(k, lm, hm)
		amp[base] *= pPlus
		amp[base|ab] *= pMinus
		amp[base|bb] *= pMinus
		amp[base|ab|bb] *= pPlus
	}
}

// applyRZZ applies exp(-i theta/2 Z_a Z_b), a diagonal phase, as four
// branch-free parity streams per group.
func (s *State) applyRZZ(a, b int, theta float64) {
	ab, bb := 1<<uint(a), 1<<uint(b)
	lm, hm := masks2(ab, bb)
	pPlus := complex(math.Cos(theta/2), -math.Sin(theta/2)) // parity even
	pMinus := complex(math.Cos(theta/2), math.Sin(theta/2)) // parity odd
	quarter := len(s.amp) >> 2
	if w := s.kernelWorkers(quarter); w > 1 {
		shard.ForRange(w, quarter, func(_, lo, hi int) { s.rzzRange(lo, hi, lm, hm, ab, bb, pPlus, pMinus) })
		return
	}
	s.rzzRange(0, quarter, lm, hm, ab, bb, pPlus, pMinus)
}

// phaseLUTRange multiplies each amplitude by its value-compressed table
// phase: a single unit-stride streaming pass over (amp, idx) with the LUT
// resident in L1 — the cache-optimal traversal for a fused diagonal layer.
func (s *State) phaseLUTRange(lo, hi int, idx []uint32, lut []complex128) {
	amp := s.amp
	for b := lo; b < hi; b++ {
		amp[b] *= lut[idx[b]]
	}
}

// phaseDirectRange is the uncompressed fallback: one Sincos per amplitude.
func (s *State) phaseDirectRange(lo, hi int, theta float64, vals []float64) {
	amp := s.amp
	for b := lo; b < hi; b++ {
		sn, cs := math.Sincos(theta * vals[b])
		amp[b] *= complex(cs, -sn)
	}
}

// lutScratch returns the reused phase-LUT buffer, grown on demand.
func (s *State) lutScratch(n int) []complex128 {
	if cap(s.phaseLUT) < n {
		s.phaseLUT = make([]complex128, n)
	}
	return s.phaseLUT[:n]
}

// applyPhaseTable applies a GateDiagonal with resolved angle theta:
// amp[b] *= exp(-i theta t[b]), one O(2^n) pass for a whole fused diagonal
// layer regardless of how many gates were collapsed into it. Tables with few
// distinct values (MaxCut/SK cost spectra) take the compressed path — one
// Sincos per distinct value, then a streamed index lookup per amplitude.
// Both paths evaluate the identical Sincos per amplitude value, and shards
// own disjoint contiguous ranges, so results are bit-identical across
// compression choices and worker counts.
func (s *State) applyPhaseTable(t *PhaseTable, theta float64) {
	n := len(s.amp)
	if idx, unique, ok := t.compressed(); ok {
		lut := s.lutScratch(len(unique))
		buildPhaseLUT(lut, theta, unique)
		if w := s.kernelWorkers(n); w > 1 {
			shard.ForRange(w, n, func(_, lo, hi int) { s.phaseLUTRange(lo, hi, idx, lut) })
			return
		}
		s.phaseLUTRange(0, n, idx, lut)
		return
	}
	vals := t.Values()
	if w := s.kernelWorkers(n); w > 1 {
		shard.ForRange(w, n, func(_, lo, hi int) { s.phaseDirectRange(lo, hi, theta, vals) })
		return
	}
	s.phaseDirectRange(0, n, theta, vals)
}

func (s *State) rotDiagRange(lo, hi int, z uint64, phasePlus, phaseMinus complex128) {
	amp := s.amp
	for b := lo; b < hi; b++ {
		if bits.OnesCount64(uint64(b)&z)&1 == 1 {
			amp[b] *= phaseMinus
		} else {
			amp[b] *= phasePlus
		}
	}
}

func (s *State) rotPairRange(klo, khi, xi, hm int, z uint64, iPow, cosT, minusISin complex128) {
	amp := s.amp
	for k := klo; k < khi; k++ {
		b := (k&^hm)<<1 | k&hm
		b2 := b ^ xi
		// c(b) carries the phase of P|b> = c(b)|b^x>.
		cb := iPow * signC(uint64(b)&z)
		cb2 := iPow * signC(uint64(b2)&z)
		a, a2 := amp[b], amp[b2]
		// (P psi)[b] = c(b^x) psi[b^x]; new = cos*psi - i sin * P psi.
		amp[b] = cosT*a + minusISin*cb2*a2
		amp[b2] = cosT*a2 + minusISin*cb*a
	}
}

// applyPauliRot applies exp(-i theta/2 P) = cos(theta/2) I - i sin(theta/2) P.
func (s *State) applyPauliRot(p pauli.String, theta float64) {
	x := p.XMask()
	z := p.ZMask()
	cosT := complex(math.Cos(theta/2), 0)
	minusISin := complex(0, -math.Sin(theta/2))
	iPow := iPower(bits.OnesCount64(x & z)) // Y positions have both masks set
	if x == 0 {
		// Diagonal: amp[b] *= cos - i sin * (-1)^{parity(b&z)}.
		phasePlus := cosT + minusISin*iPow
		phaseMinus := cosT + minusISin*iPow*complex(-1, 0)
		n := len(s.amp)
		if w := s.kernelWorkers(n); w > 1 {
			shard.ForRange(w, n, func(_, lo, hi int) { s.rotDiagRange(lo, hi, z, phasePlus, phaseMinus) })
			return
		}
		s.rotDiagRange(0, n, z, phasePlus, phaseMinus)
		return
	}
	// Off-diagonal: every basis index pairs with its x-flip. Enumerating the
	// half-space where the highest x bit is clear visits each (b, b^x) pair
	// exactly once, at its smaller index, with no per-index skip test. The
	// partner index always lives in the other half-space, so shard writes
	// stay disjoint.
	xi := int(x)
	hm := 1<<(63-bits.LeadingZeros64(x)) - 1
	half := len(s.amp) >> 1
	if w := s.kernelWorkers(half); w > 1 {
		shard.ForRange(w, half, func(_, lo, hi int) { s.rotPairRange(lo, hi, xi, hm, z, iPow, cosT, minusISin) })
		return
	}
	s.rotPairRange(0, half, xi, hm, z, iPow, cosT, minusISin)
}

func signC(masked uint64) complex128 {
	if bits.OnesCount64(masked)&1 == 1 {
		return -1
	}
	return 1
}

func iPower(k int) complex128 {
	switch k % 4 {
	case 0:
		return 1
	case 1:
		return complex(0, 1)
	case 2:
		return -1
	default:
		return complex(0, -1)
	}
}

// gateMatrix returns the 2x2 matrix of a single-qubit gate kind.
func gateMatrix(k Kind, theta float64) [2][2]complex128 {
	inv := complex(1/math.Sqrt2, 0)
	c := complex(math.Cos(theta/2), 0)
	sI := complex(0, math.Sin(theta/2))
	switch k {
	case GateH:
		return [2][2]complex128{{inv, inv}, {inv, -inv}}
	case GateX:
		return [2][2]complex128{{0, 1}, {1, 0}}
	case GateRX:
		return [2][2]complex128{{c, -sI}, {-sI, c}}
	case GateRY:
		sR := complex(math.Sin(theta/2), 0)
		return [2][2]complex128{{c, -sR}, {sR, c}}
	default:
		panic(fmt.Sprintf("qsim: %v is not a single-qubit matrix gate", k))
	}
}

// applyKind dispatches one gate with its angle already resolved.
func (s *State) applyKind(g *Gate, theta float64) {
	switch g.Kind {
	case GateCZ:
		s.applyCZ(g.Qubits[0], g.Qubits[1])
	case GateRZZ:
		s.applyRZZ(g.Qubits[0], g.Qubits[1], theta)
	case GatePauliRot:
		s.applyPauliRot(g.Pauli, theta)
	case GateDiagonal:
		s.applyPhaseTable(g.Diag, theta)
	default:
		s.apply1Q(g.Qubits[0], gateMatrix(g.Kind, theta))
	}
}

// ApplyGate applies one gate with resolved parameters.
func (s *State) ApplyGate(g Gate, params []float64) error {
	theta, err := g.Angle(params)
	if err != nil {
		return err
	}
	if g.Kind == GateDiagonal && (g.Diag == nil || g.Diag.Len() != len(s.amp)) {
		return fmt.Errorf("qsim: diagonal gate table does not match %d-qubit state", s.n)
	}
	s.applyKind(&g, theta)
	return nil
}

// runGates runs every gate of a validated circuit from |0...0>, whatever
// the state held before. Validate has already checked parameter arity and
// finiteness, so angle resolution cannot fail and the per-gate error path is
// skipped entirely. prepare consumes the leading H run (and a phase table
// right after it); of the rest, two consecutive RX gates on distinct qubits
// share one paired pass, and every other gate takes its own kernel.
//
// The same loop runs a flip-symmetric circuit on its stored half (see
// half.go), where s has one qubit fewer than the circuit. prepare needs no
// change there: the opening H layer gives every stored amplitude the
// full-state value (every stored index lies in its span, so the pass is a
// pure gather), and a phase table is read at the stored indices only.
// One-qubit gates pair through flipMask, which is the qubit's bit on a full
// state; only the top qubit's lone RX on a half state needs its own case.
func (s *State) runGates(c *Circuit, params []float64) {
	gates := c.gates
	for i := s.prepare(gates, params); i < len(gates); i++ {
		g := &gates[i]
		theta := g.resolveAngle(params)
		if g.Kind.qubitCount() != 1 {
			s.applyKind(g, theta)
			continue
		}
		m := gateMatrix(g.Kind, theta)
		if q, mh, ok := mixedPartner(gates, i, m, params); ok {
			s.applyMixedPairMasks(s.flipMask(g.Qubits[0]), s.flipMask(q), mixedOf(m), mixedOf(mh))
			i++
			continue
		}
		if d := s.flipMask(g.Qubits[0]); d&(d-1) == 0 {
			s.apply1Q(g.Qubits[0], m)
		} else if classify(m) == classMixed {
			// The top qubit's RX pairs b with b ^ low. RX(0) is the only
			// other case (classPhase, m11 = 1); it touches only the
			// unstored half, so it is skipped.
			s.applyMixed1Q(d, len(s.amp)>>1-1, mixedOf(m))
		}
	}
}

// mixedPartner reports whether the single-qubit gate gates[i], with matrix
// m, shares one paired pass with gates[i+1]: both must be mixed-class and
// act on distinct qubits. It returns the partner's qubit and matrix.
func mixedPartner(gates []Gate, i int, m [2][2]complex128, params []float64) (int, [2][2]complex128, bool) {
	if i+1 >= len(gates) || classify(m) != classMixed {
		return 0, m, false
	}
	h := &gates[i+1]
	if h.Kind.qubitCount() != 1 || h.Qubits[0] == gates[i].Qubits[0] {
		return 0, m, false
	}
	mh := gateMatrix(h.Kind, h.resolveAngle(params))
	return h.Qubits[0], mh, classify(mh) == classMixed
}

// prepare writes the state that resetting to |0...0> and then applying the
// circuit's leading run of H gates on distinct qubits would leave, in one
// pass, and returns how many gates it consumed. The H kernel's arithmetic
// from |0...0> gives every amplitude in the span of those qubits the same
// value, v_k = inv*v_{k-1} + inv*0 with v_0 = 1, and leaves every other
// amplitude zero. When a GateDiagonal follows the run, the same pass also
// applies it, with the exact complex multiply of phaseLUTRange or
// phaseDirectRange: on the compressed path those multiplies are taken once
// per distinct table value (v·lut[k] and 0·lut[k]), and the pass only
// gathers. A circuit that does not open with H just resets.
func (s *State) prepare(gates []Gate, params []float64) int {
	span, k := 0, 0
	for ; k < len(gates) && gates[k].Kind == GateH; k++ {
		bit := 1 << uint(gates[k].Qubits[0])
		if span&bit != 0 {
			break
		}
		span |= bit
	}
	if k == 0 {
		s.Reset()
		return 0
	}
	v := 1.0
	for j := 0; j < k; j++ {
		v *= 1 / math.Sqrt2
	}
	p := prepPass{span: span, v: complex(v, 0)}
	if k < len(gates) && gates[k].Kind == GateDiagonal {
		g := &gates[k]
		p.theta = g.resolveAngle(params)
		if idx, unique, ok := g.Diag.compressed(); ok {
			lut := s.lutScratch(2 * len(unique))
			p.idx, p.in, p.out = idx, lut[:len(unique)], lut[len(unique):]
			buildPhaseLUT(p.in, p.theta, unique)
			premultiplyLUT(p.in, p.out, p.v)
		} else {
			p.vals = g.Diag.Values()
		}
		k++
	}
	n := len(s.amp)
	if w := s.kernelWorkers(n); w > 1 {
		shard.ForRange(w, n, func(_, lo, hi int) { p.run(s.amp, lo, hi) })
	} else {
		p.run(s.amp, 0, n)
	}
	return k
}

// premultiplyLUT turns the phase LUT in into the preparation pass's two
// gather tables: out[k] = 0·lut[k] for amplitudes outside the H span and,
// in place, in[k] = v·lut[k] for those inside. These are the complex
// multiplies the pass would otherwise run once per amplitude.
func premultiplyLUT(in, out []complex128, v complex128) {
	var zero complex128
	for k, l := range in {
		out[k] = zero * l
		in[k] = v * l
	}
}

// prepPass is one preparation write: v on the span of the folded H qubits
// and zero elsewhere, times the folded phase table if there is one (the
// premultiplied in/out tables gathered through idx when compressed, vals
// when direct).
type prepPass struct {
	span    int
	v       complex128
	theta   float64
	idx     []uint32
	in, out []complex128
	vals    []float64
}

// run writes amplitudes [lo, hi). On the compressed path the span test
// leaves the loop when every index in the range lies below the span's
// lowest clear bit: always so on the half path, and on the full path when
// H opens every qubit. That range is then a pure gather, dst[i] = in[idx[i]],
// which gatherLUT runs in AVX assembly on amd64 CPUs with AVX and with
// gatherGo elsewhere; a gather moves bits and computes nothing, so both
// write the same amplitudes.
func (p prepPass) run(amp []complex128, lo, hi int) {
	span, v := p.span, p.v
	switch {
	case p.idx != nil:
		idx, in, out := p.idx[lo:hi], p.in, p.out
		dst := amp[lo:hi][:len(idx)] // same length as idx: no bounds checks on dst
		if hi-1 <= span&^(span+1) {
			gatherLUT(dst, idx, in)
			return
		}
		for i, j := range idx {
			if (lo+i)&^span != 0 {
				dst[i] = out[j]
			} else {
				dst[i] = in[j]
			}
		}
	case p.vals != nil:
		theta, vals := p.theta, p.vals
		for b := lo; b < hi; b++ {
			a := v
			if b&^span != 0 {
				a = 0
			}
			sn, cs := math.Sincos(theta * vals[b])
			amp[b] = a * complex(cs, -sn)
		}
	default:
		for b := lo; b < hi; b++ {
			if b&^span != 0 {
				amp[b] = 0
			} else {
				amp[b] = v
			}
		}
	}
}

// gatherGo sets dst[i] = in[idx[i]] for every i below len(dst): the
// portable gather, and the tail of the assembly ones.
func gatherGo(dst []complex128, idx []uint32, in []complex128) {
	idx = idx[:len(dst)]
	for i, j := range idx {
		dst[i] = in[j]
	}
}

// Run executes a circuit from |0...0> and returns the final state.
func Run(c *Circuit, params []float64) (*State, error) {
	if err := c.Validate(params); err != nil {
		return nil, err
	}
	s := NewState(c.N())
	s.runGates(c, params)
	return s, nil
}

// RunInto executes a circuit from |0...0> into dst, reusing its amplitude
// buffer — the zero-allocation path batch evaluators re-run circuits
// through. dst keeps its worker setting, so large states can shard their
// gate kernels across goroutines. A depth-p QAOA circuit (H layer, p fused
// phase tables, p RX layers) costs 1 pass for preparation plus the first
// phase table (a gather through premultiplied phase tables), p-1 more
// phase passes and p*ceil(n/2) paired mixer passes; with the caller's
// ExpectationDiagonal pass (complement-paired, in four independent sums)
// that is 10 sweeps at n=16, p=1, where one sweep per gate took 35.
func RunInto(dst *State, c *Circuit, params []float64) error {
	if dst.n != c.N() {
		return fmt.Errorf("qsim: %d-qubit circuit into %d-qubit state", c.N(), dst.n)
	}
	if err := c.Validate(params); err != nil {
		return err
	}
	dst.runGates(c, params)
	return nil
}

// Probabilities returns |amp|^2 for every basis state.
func (s *State) Probabilities() []float64 {
	p := make([]float64, len(s.amp))
	for i, a := range s.amp {
		p[i] = real(a)*real(a) + imag(a)*imag(a)
	}
	return p
}

// ExpectationPauli computes <psi|P|psi> for a single Pauli string. The
// off-diagonal case walks each (b, b^x) pair once, accumulating both
// cross terms, so it does half the index visits of the naive full scan.
func (s *State) ExpectationPauli(p pauli.String) (float64, error) {
	if p.N() != s.n {
		return 0, fmt.Errorf("qsim: %d-qubit observable on %d-qubit state", p.N(), s.n)
	}
	x := p.XMask()
	z := p.ZMask()
	iPow := iPower(bits.OnesCount64(x & z))
	var acc complex128
	if x == 0 {
		// Diagonal string: <psi|P|psi> = sum_b |psi[b]|^2 (+-1).
		for b := range s.amp {
			cb := iPow * signC(uint64(b)&z)
			acc += complexConj(s.amp[b]) * cb * s.amp[b]
		}
		return real(acc), nil
	}
	xi := int(x)
	hm := 1<<(63-bits.LeadingZeros64(x)) - 1
	half := len(s.amp) >> 1
	for k := 0; k < half; k++ {
		b := (k&^hm)<<1 | k&hm
		b2 := b ^ xi
		// <psi|P|psi> = sum_b conj(psi[b^x]) c(b) psi[b]; the pair (b, b^x)
		// contributes both cross terms, collected in one visit.
		cb := iPow * signC(uint64(b)&z)
		cb2 := iPow * signC(uint64(b2)&z)
		a, a2 := s.amp[b], s.amp[b2]
		acc += complexConj(a2)*cb*a + complexConj(a)*cb2*a2
	}
	return real(acc), nil
}

func complexConj(c complex128) complex128 { return complex(real(c), -imag(c)) }

// Expectation computes <psi|H|psi> for a Pauli-sum Hamiltonian, one term at
// a time. Diagonal Hamiltonians evaluated repeatedly on re-used states
// should precompute an energy table and call ExpectationDiagonal instead —
// one fused pass for the whole Hamiltonian instead of one pass per term.
func (s *State) Expectation(h *pauli.Hamiltonian) (float64, error) {
	if h.N() != s.n {
		return 0, fmt.Errorf("qsim: %d-qubit Hamiltonian on %d-qubit state", h.N(), s.n)
	}
	var total float64
	for _, t := range h.Terms() {
		e, err := s.ExpectationPauli(t.P)
		if err != nil {
			return 0, err
		}
		total += t.Coeff * e
	}
	return total, nil
}

// ExpectationDiagonal computes <psi|H|psi> for a diagonal Hamiltonian from
// its precomputed energy table (table[b] = <b|H|b>, see
// pauli.Hamiltonian.DiagonalValues): a single fused |amp|^2 * E pass,
// independent of the term count. The sum runs serially in a fixed order,
// so the value is reproducible for every worker setting: with term(b) =
// |amp[b]|^2 * table[b] and full = 2^n-1, each k in [0, 2^(n-1)) ascending
// adds term(k) + term(k^full) into accumulator k mod 4, and the result is
// (a0 + a1) + (a2 + a3). Four independent chains keep the adds from
// waiting on each other, and pairing b with its complement lets the
// flip-symmetric half path (HalfEnergy) reproduce the sum from the stored
// half alone.
func (s *State) ExpectationDiagonal(table []float64) (float64, error) {
	if len(table) != len(s.amp) {
		return 0, fmt.Errorf("qsim: energy table length %d for %d-qubit state", len(table), s.n)
	}
	amp, full := s.amp, len(s.amp)-1
	if len(amp) < 8 {
		var acc [4]float64
		for k := 0; k < len(amp)/2; k++ {
			acc[k&3] += energyTerm(amp[k], table[k]) + energyTerm(amp[k^full], table[k^full])
		}
		return (acc[0] + acc[1]) + (acc[2] + acc[3]), nil
	}
	var a0, a1, a2, a3 float64
	for k := 0; k < len(amp)/2; k += 4 {
		m := full - k - 3 // k^full for k..k+3 is m+3..m
		lo, lt := amp[k:k+4:k+4], table[k:k+4:k+4]
		hi, ht := amp[m:m+4:m+4], table[m:m+4:m+4]
		a0 += energyTerm(lo[0], lt[0]) + energyTerm(hi[3], ht[3])
		a1 += energyTerm(lo[1], lt[1]) + energyTerm(hi[2], ht[2])
		a2 += energyTerm(lo[2], lt[2]) + energyTerm(hi[1], ht[1])
		a3 += energyTerm(lo[3], lt[3]) + energyTerm(hi[0], ht[0])
	}
	return (a0 + a1) + (a2 + a3), nil
}

// energyTerm is one basis state's share of a diagonal expectation,
// |a|^2 * e.
func energyTerm(a complex128, e float64) float64 {
	return (real(a)*real(a) + imag(a)*imag(a)) * e
}

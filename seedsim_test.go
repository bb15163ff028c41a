package oscar

// seedsim_test.go is a frozen replica of the seed state-vector simulator
// (per-point state allocation, branchy full-scan gate loops, xor-fold
// parity, one full-state pass per Hamiltonian term). It exists so
// BenchmarkGenerateEngine can report the zero-allocation engine's speedup
// against the exact code it replaced, inside one binary. Do not optimize
// this file.

import (
	"fmt"
	"math"

	"repro/internal/pauli"
	"repro/internal/qsim"
)

func seedParity(x uint64) bool {
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return x&1 == 1
}

func seedSignC(masked uint64) complex128 {
	if seedParity(masked) {
		return -1
	}
	return 1
}

func seedIPower(k int) complex128 {
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

func seedGateMatrix(k qsim.Kind, theta float64) [2][2]complex128 {
	inv := complex(1/math.Sqrt2, 0)
	c := complex(math.Cos(theta/2), 0)
	sI := complex(0, math.Sin(theta/2))
	switch k {
	case qsim.GateH:
		return [2][2]complex128{{inv, inv}, {inv, -inv}}
	case qsim.GateX:
		return [2][2]complex128{{0, 1}, {1, 0}}
	case qsim.GateRX:
		return [2][2]complex128{{c, -sI}, {-sI, c}}
	case qsim.GateRY:
		sR := complex(math.Sin(theta/2), 0)
		return [2][2]complex128{{c, -sR}, {sR, c}}
	default:
		panic(fmt.Sprintf("seedsim: %v is not a single-qubit matrix gate", k))
	}
}

func seedApply1Q(amp []complex128, q int, m [2][2]complex128) {
	bit := 1 << uint(q)
	dim := len(amp)
	for base := 0; base < dim; base += bit << 1 {
		for i := base; i < base+bit; i++ {
			a0 := amp[i]
			a1 := amp[i|bit]
			amp[i] = m[0][0]*a0 + m[0][1]*a1
			amp[i|bit] = m[1][0]*a0 + m[1][1]*a1
		}
	}
}

func seedApplyGate(amp []complex128, g qsim.Gate, theta float64) {
	switch g.Kind {
	case qsim.GateCZ:
		ab := 1 << uint(g.Qubits[0])
		bb := 1 << uint(g.Qubits[1])
		for i := range amp {
			if i&ab != 0 && i&bb != 0 {
				amp[i] = -amp[i]
			}
		}
	case qsim.GateRZZ:
		ab := 1 << uint(g.Qubits[0])
		bb := 1 << uint(g.Qubits[1])
		pPlus := complex(math.Cos(theta/2), -math.Sin(theta/2))
		pMinus := complex(math.Cos(theta/2), math.Sin(theta/2))
		for i := range amp {
			even := (i&ab != 0) == (i&bb != 0)
			if even {
				amp[i] *= pPlus
			} else {
				amp[i] *= pMinus
			}
		}
	case qsim.GatePauliRot:
		seedApplyPauliRot(amp, g.Pauli, theta)
	default:
		seedApply1Q(amp, g.Qubits[0], seedGateMatrix(g.Kind, theta))
	}
}

func seedApplyPauliRot(amp []complex128, p pauli.String, theta float64) {
	x := p.XMask()
	z := p.ZMask()
	nY := 0
	for q := 0; q < p.N(); q++ {
		if p.At(q) == pauli.Y {
			nY++
		}
	}
	cosT := complex(math.Cos(theta/2), 0)
	minusISin := complex(0, -math.Sin(theta/2))
	iPow := seedIPower(nY)
	if x == 0 {
		for b := range amp {
			sign := complex(1, 0)
			if seedParity(uint64(b) & z) {
				sign = -1
			}
			amp[b] *= cosT + minusISin*iPow*sign
		}
		return
	}
	xi := int(x)
	for b := range amp {
		b2 := b ^ xi
		if b > b2 {
			continue
		}
		cb := iPow * seedSignC(uint64(b)&z)
		cb2 := iPow * seedSignC(uint64(b2)&z)
		a, a2 := amp[b], amp[b2]
		amp[b] = cosT*a + minusISin*cb2*a2
		amp[b2] = cosT*a2 + minusISin*cb*a
	}
}

func seedExpectationPauli(amp []complex128, p pauli.String) float64 {
	x := p.XMask()
	z := p.ZMask()
	nY := 0
	for q := 0; q < p.N(); q++ {
		if p.At(q) == pauli.Y {
			nY++
		}
	}
	iPow := seedIPower(nY)
	var acc complex128
	xi := int(x)
	for b := range amp {
		cb := iPow * seedSignC(uint64(b)&z)
		acc += complex(real(amp[b^xi]), -imag(amp[b^xi])) * cb * amp[b]
	}
	return real(acc)
}

// seedEvaluate is the seed backend.StateVector.Evaluate: allocate a fresh
// 2^n state, run the circuit through the seed kernels, then make one
// full-state pass per Hamiltonian term.
func seedEvaluate(c *qsim.Circuit, params []float64, h *pauli.Hamiltonian) (float64, error) {
	if err := c.Validate(params); err != nil {
		return 0, err
	}
	amp := make([]complex128, 1<<uint(c.N()))
	amp[0] = 1
	for _, g := range c.Gates() {
		theta, err := g.Angle(params)
		if err != nil {
			return 0, err
		}
		seedApplyGate(amp, g, theta)
	}
	var total float64
	for _, t := range h.Terms() {
		total += t.Coeff * seedExpectationPauli(amp, t.P)
	}
	return total, nil
}

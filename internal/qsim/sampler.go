package qsim

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/pauli"
)

// Sampler draws basis-state measurements from a fixed probability
// distribution. Building one precomputes the 2^n cumulative table once, so
// repeated draws from the same state (shot-noise studies, sampled
// expectations at many shot budgets) pay the O(2^n) scan a single time
// instead of on every call.
type Sampler struct {
	cum   []float64
	total float64
}

// NewSampler builds a sampler over an explicit distribution (need not be
// normalized; draws are taken against the accumulated total, which also
// absorbs float accumulation error).
func NewSampler(probs []float64) *Sampler {
	cum := make([]float64, len(probs))
	var acc float64
	for i, p := range probs {
		acc += p
		cum[i] = acc
	}
	return &Sampler{cum: cum, total: acc}
}

// Sampler builds a measurement sampler for the state's current amplitudes,
// accumulating |amp|^2 directly with no intermediate probability slice. The
// sampler snapshots the distribution: later gates on s do not affect it.
func (s *State) Sampler() *Sampler {
	cum := make([]float64, len(s.amp))
	var acc float64
	for i, a := range s.amp {
		acc += real(a)*real(a) + imag(a)*imag(a)
		cum[i] = acc
	}
	return &Sampler{cum: cum, total: acc}
}

// Sample draws shots basis states and returns the observed bitstring counts.
func (sp *Sampler) Sample(shots int, rng *rand.Rand) map[uint64]int {
	counts := make(map[uint64]int)
	for i := 0; i < shots; i++ {
		counts[sp.Draw(rng)]++
	}
	return counts
}

// Draw samples a single basis state.
func (sp *Sampler) Draw(rng *rand.Rand) uint64 {
	r := rng.Float64() * sp.total
	idx := sort.SearchFloat64s(sp.cum, r)
	if idx >= len(sp.cum) {
		idx = len(sp.cum) - 1
	}
	return uint64(idx)
}

// Expectation estimates <H> for a diagonal Hamiltonian from shots draws,
// reproducing hardware-style shot noise.
func (sp *Sampler) Expectation(h *pauli.Hamiltonian, shots int, rng *rand.Rand) (float64, error) {
	if !h.IsDiagonal() {
		return 0, fmt.Errorf("qsim: sampled expectation requires a diagonal Hamiltonian")
	}
	if shots <= 0 {
		return 0, fmt.Errorf("qsim: shots must be positive, got %d", shots)
	}
	var total float64
	for b, c := range sp.Sample(shots, rng) {
		v, err := h.EvalBitstring(b)
		if err != nil {
			return 0, err
		}
		total += v * float64(c)
	}
	return total / float64(shots), nil
}

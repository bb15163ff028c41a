package qsim

import (
	"fmt"
	"math"
	"sync"
)

// PhaseTable is a shared per-basis phase generator for GateDiagonal gates:
// applying the gate with resolved angle theta multiplies amplitude b by
// exp(-i * theta * table[b]). Because the table itself is angle-independent,
// one table serves every parameter value a landscape batch visits — the
// cost-layer table of a QAOA circuit is built once and reused for every
// gamma on the grid (and, via FuseDiagonals' interning, across all p layers).
//
// Tables are shared by pointer between gates, circuits, and evaluators and
// must not be mutated after construction.
type PhaseTable struct {
	vals []float64

	// Value compression, built lazily on first kernel use: vals[b] ==
	// unique[idx[b]] with exact float64 equality. When the table has few
	// distinct values (MaxCut/SK cost spectra have O(|E|) of them, not
	// O(2^n)), kernels evaluate one Sincos per unique value instead of one
	// per amplitude, and stream 4-byte indices instead of 8-byte floats.
	once   sync.Once
	unique []float64
	idx    []uint32
}

// phaseLUTFactor gates the compressed path: the LUT pays off only when the
// distinct-value count is well below the table length (the LUT must stay
// cache-resident while the index stream is traversed).
const phaseLUTFactor = 8

// NewPhaseTable wraps a per-basis phase generator. The table length must be
// a power of two (2^n for an n-qubit gate); the slice is retained, not
// copied, and must not be mutated afterwards.
func NewPhaseTable(vals []float64) *PhaseTable {
	if len(vals) == 0 || len(vals)&(len(vals)-1) != 0 {
		panic(fmt.Sprintf("qsim: phase table length %d is not a power of two", len(vals)))
	}
	return &PhaseTable{vals: vals}
}

// Len reports the table length (2^n).
func (t *PhaseTable) Len() int { return len(t.vals) }

// Values returns the per-basis generator (do not mutate).
func (t *PhaseTable) Values() []float64 { return t.vals }

// compressed returns the value-compressed form (idx, unique, true) when the
// distinct-value count is small enough for the LUT path, or (nil, nil,
// false) when the kernel should evaluate phases directly. The compression is
// built once and shared by every worker and evaluator using the table.
func (t *PhaseTable) compressed() ([]uint32, []float64, bool) {
	t.once.Do(func() {
		if limit := len(t.vals) / phaseLUTFactor; limit >= 1 {
			t.idx, t.unique = compressValues(t.vals, limit)
		}
	})
	if t.idx == nil {
		return nil, nil, false
	}
	return t.idx, t.unique, true
}

// compressValues returns vals' value compression: unique holds each
// distinct bit pattern of vals (so +0 and −0, and NaNs with different
// payloads, are distinct) in order of first occurrence, and vals[b] is
// unique[idx[b]]. It returns nil, nil once more than limit patterns turn
// up. The patterns are found through an open-addressed table (see probe)
// that doubles whenever it is a quarter full, so it stays as small as the
// distinct values (a few dozen for a cost spectrum, against a limit of
// 8192 at n=16) and cache-resident.
func compressValues(vals []float64, limit int) ([]uint32, []float64) {
	idx := make([]uint32, len(vals))
	var unique []float64
	slots, keys, shift := make([]uint32, 256), make([]uint64, 256), uint(64-8)
	for b, v := range vals {
		key := math.Float64bits(v)
		i := probe(slots, keys, key, shift)
		if slots[i] != 0 {
			idx[b] = slots[i] - 1
			continue
		}
		if len(unique) >= limit {
			return nil, nil // too many distinct values: direct path
		}
		idx[b] = uint32(len(unique))
		unique = append(unique, v)
		slots[i], keys[i] = uint32(len(unique)), key
		if 4*len(unique) > len(slots) {
			slots, keys, shift = make([]uint32, 2*len(slots)), make([]uint64, 2*len(keys)), shift-1
			for u, w := range unique {
				key := math.Float64bits(w)
				j := probe(slots, keys, key, shift)
				slots[j], keys[j] = uint32(u+1), key
			}
		}
	}
	return idx, unique
}

// probe returns the slot of key in the open-addressed table of
// len(slots) = 2^(64-shift) entries: where it is, or the empty slot where
// it belongs. slots[i] is 0 for an empty slot and 1 + an index into unique
// otherwise, keys[i] the bits stored there; the probe starts from a
// multiplicative hash of key and runs linearly.
func probe(slots []uint32, keys []uint64, key uint64, shift uint) int {
	mask := len(slots) - 1
	i := int(key * 0x9E3779B97F4A7C15 >> shift)
	for slots[i] != 0 && keys[i] != key {
		i = (i + 1) & mask
	}
	return i
}

// buildPhaseLUT fills dst[k] = exp(-i * theta * unique[k]). Both the LUT and
// the direct kernel path evaluate exactly Sincos(theta * value), and the
// compression preserves values bit-for-bit, so the two paths produce
// identical amplitudes.
func buildPhaseLUT(dst []complex128, theta float64, unique []float64) {
	for k, v := range unique {
		sn, cs := math.Sincos(theta * v)
		dst[k] = complex(cs, -sn)
	}
}

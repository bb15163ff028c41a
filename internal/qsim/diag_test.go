package qsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// compressWithMap is the map-based value compression compressValues
// replaced: distinct Float64bits in order of first occurrence, nil past
// limit distinct values.
func compressWithMap(vals []float64, limit int) ([]uint32, []float64) {
	seen := make(map[uint64]uint32, limit+1)
	idx := make([]uint32, len(vals))
	unique := make([]float64, 0, limit)
	for b, v := range vals {
		key := math.Float64bits(v)
		k, ok := seen[key]
		if !ok {
			if len(unique) >= limit {
				return nil, nil
			}
			k = uint32(len(unique))
			seen[key] = k
			unique = append(unique, v)
		}
		idx[b] = k
	}
	return idx, unique
}

// TestPhaseTableCompressionMatchesMap checks compressValues, and the
// compressed form of a PhaseTable, against compressWithMap: the same idx,
// the same unique bits in the same order, and the same bail-out, on tables
// of 1 to 2^16 entries drawn from few values, from exactly limit and
// limit+1 values, from all-distinct values, and from values that differ
// only in the sign of zero or in a NaN payload. The few-valued tables are
// long enough for the probe table to grow several times.
func TestPhaseTableCompressionMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	odd := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000000),
		math.Float64frombits(0x7ff0000000000001), math.SmallestNonzeroFloat64, -1, 1, 2.5,
	}
	// drawn returns a size-entry table of values drawn from pool.
	drawn := func(size int, pool []float64) []float64 {
		vals := make([]float64, size)
		for b := range vals {
			vals[b] = pool[rng.Intn(len(pool))]
		}
		return vals
	}
	// counting returns a size-entry table holding the values 0..k-1 (as
	// quarter-integers, both signs), each at least once, in shuffled order.
	counting := func(size, k int) []float64 {
		vals := make([]float64, size)
		for b := range vals {
			v := b % k
			if b >= k {
				v = rng.Intn(k)
			}
			vals[b] = float64(v-k/2) / 4
		}
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		return vals
	}
	for _, n := range []int{0, 3, 4, 8, 12, 16} {
		size := 1 << uint(n)
		limit := size / phaseLUTFactor
		tables := map[string][]float64{
			"special values": drawn(size, odd),
			"one value":      drawn(size, []float64{-3}),
			"all distinct":   counting(size, size),
		}
		for _, k := range []int{2, 25, 100, 1000} {
			if k < size {
				tables[fmt.Sprintf("%d values", k)] = counting(size, k)
			}
		}
		if limit >= 1 {
			tables["limit values"] = counting(size, limit)
			tables["limit+1 values"] = counting(size, limit+1)
		}
		for name, vals := range tables {
			wantIdx, wantUnique := compressWithMap(vals, limit)
			gotIdx, gotUnique, ok := NewPhaseTable(vals).compressed()
			if ok != (wantIdx != nil) {
				t.Fatalf("2^%d %s: compressed %v, map version %v", n, name, ok, wantIdx != nil)
			}
			if !ok {
				continue
			}
			if len(gotUnique) != len(wantUnique) {
				t.Fatalf("2^%d %s: %d unique values, map version %d", n, name, len(gotUnique), len(wantUnique))
			}
			for i := range wantUnique {
				if math.Float64bits(gotUnique[i]) != math.Float64bits(wantUnique[i]) {
					t.Fatalf("2^%d %s: unique[%d] = %#x, map version %#x", n, name, i,
						math.Float64bits(gotUnique[i]), math.Float64bits(wantUnique[i]))
				}
			}
			for b := range wantIdx {
				if gotIdx[b] != wantIdx[b] {
					t.Fatalf("2^%d %s: idx[%d] = %d, map version %d", n, name, b, gotIdx[b], wantIdx[b])
				}
			}
		}
	}
}

// BenchmarkPhaseTableCompression times the value compression of one n=16
// MaxCut cost table (a ring plus its diameters, at most 25 distinct
// values).
func BenchmarkPhaseTableCompression(b *testing.B) {
	const n = 16
	edges, weights := make([][2]int, 0, 3*n/2), make([]float64, 0, 3*n/2)
	for q := 0; q < n; q++ {
		edges, weights = append(edges, [2]int{q, (q + 1) % n}), append(weights, 1)
		if q < n/2 {
			edges, weights = append(edges, [2]int{q, q + n/2}), append(weights, 1)
		}
	}
	vals := cutTable(n, edges, weights)
	for i := 0; i < b.N; i++ {
		if _, _, ok := NewPhaseTable(vals).compressed(); !ok {
			b.Fatal("table not compressed")
		}
	}
}

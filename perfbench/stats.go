package main

import (
	"hash/fnv"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count) without reordering xs. It returns NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// percentile returns the nearest-rank q-th percentile of xs: the sample at
// 1-based rank ceil(q/100 * n) of the sorted values. It reports ok=false —
// the percentile is omitted, not guessed — when fewer than minBeyond samples
// lie above that rank, so a tail figure always rests on at least minBeyond
// observations of the tail.
func percentile(xs []float64, q float64, minBeyond int) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns num/den, or 0 when den is 0 (a layer that saw no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hashFloats fingerprints the exact bits of every value, in order: two
// answers hash equal only if they are bitwise identical.
func hashFloats(groups ...[]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, g := range groups {
		for _, v := range g {
			b := math.Float64bits(v)
			for i := range buf {
				buf[i] = byte(b >> (8 * i))
			}
			h.Write(buf[:])
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

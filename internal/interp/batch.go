package interp

import (
	"fmt"

	"repro/internal/shard"
)

// SetWorkers sets the worker budget for the batch methods (0 = GOMAXPROCS,
// 1 = serial) and returns the receiver for chaining. Results are
// bit-identical for every worker count: points shard contiguously via
// shard.ForRange and each output element depends only on its own input.
func (b *Bicubic) SetWorkers(w int) *Bicubic {
	b.workers = w
	return b
}

// SetWorkers sets the worker budget for the batch methods (0 = GOMAXPROCS,
// 1 = serial) and returns the receiver for chaining; see Bicubic.SetWorkers.
func (s *NDSpline) SetWorkers(w int) *NDSpline {
	s.workers = w
	return s
}

// checkBatch validates one batch request: dst and pts index-aligned, every
// point of the interpolant's arity. Finite-ness is not checked here — NaN
// coordinates propagate NaN values, and serving layers reject them earlier.
func checkBatch(dstLen int, pts [][]float64, arity int) error {
	if dstLen != len(pts) {
		return fmt.Errorf("interp: dst holds %d values but batch has %d points", dstLen, len(pts))
	}
	for i, p := range pts {
		if len(p) != arity {
			return fmt.Errorf("interp: point %d has %d coordinates, want %d", i, len(p), arity)
		}
	}
	return nil
}

// checkGradBatch additionally requires every dst vector to have the
// interpolant's arity.
func checkGradBatch(dst [][]float64, pts [][]float64, arity int) error {
	if err := checkBatch(len(dst), pts, arity); err != nil {
		return err
	}
	for i, g := range dst {
		if len(g) != arity {
			return fmt.Errorf("interp: gradient %d has %d components, want %d", i, len(g), arity)
		}
	}
	return nil
}

// AtPoints evaluates the surface at every pts[i] = (x, y) into dst[i],
// sharded across the worker budget. Each worker reuses one scratch for its
// whole contiguous shard, so the hot path allocates nothing per point, and
// results are bit-identical to calling At point by point — for any worker
// count.
func (b *Bicubic) AtPoints(dst []float64, pts [][]float64) error {
	if err := checkBatch(len(dst), pts, 2); err != nil {
		return err
	}
	shard.ForRange(b.workers, len(pts), func(_, lo, hi int) {
		s := b.newScratch()
		for i := lo; i < hi; i++ {
			dst[i] = b.at(pts[i][0], pts[i][1], s)
		}
	})
	return nil
}

// GradientAtPoints estimates the gradient at every pts[i] into dst[i] (each
// a caller-allocated 2-vector), under the same sharding and determinism
// contract as AtPoints.
func (b *Bicubic) GradientAtPoints(dst [][]float64, pts [][]float64) error {
	if err := checkGradBatch(dst, pts, 2); err != nil {
		return err
	}
	shard.ForRange(b.workers, len(pts), func(_, lo, hi int) {
		s := b.newScratch()
		for i := lo; i < hi; i++ {
			dst[i][0], dst[i][1] = b.grad(pts[i][0], pts[i][1], s)
		}
	})
	return nil
}

// AtPoints evaluates the interpolant at every pts[i] into dst[i], sharded
// across the worker budget with per-shard scratch reuse; see
// Bicubic.AtPoints for the determinism and allocation contract.
func (s *NDSpline) AtPoints(dst []float64, pts [][]float64) error {
	if err := checkBatch(len(dst), pts, s.Arity()); err != nil {
		return err
	}
	shard.ForRange(s.workers, len(pts), func(_, lo, hi int) {
		sc := s.newScratch()
		for i := lo; i < hi; i++ {
			dst[i] = s.at(pts[i], sc)
		}
	})
	return nil
}

// GradientAtPoints estimates the gradient at every pts[i] into dst[i] (each
// a caller-allocated vector of length Arity), under the same sharding and
// determinism contract as AtPoints.
func (s *NDSpline) GradientAtPoints(dst [][]float64, pts [][]float64) error {
	if err := checkGradBatch(dst, pts, s.Arity()); err != nil {
		return err
	}
	shard.ForRange(s.workers, len(pts), func(_, lo, hi int) {
		sc := s.newScratch()
		for i := lo; i < hi; i++ {
			s.grad(pts[i], dst[i], sc)
		}
	})
	return nil
}

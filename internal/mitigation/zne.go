// Package mitigation implements the noise-mitigation methods of the paper's
// Section 6: Zero-Noise Extrapolation with configurable noise scaling and
// extrapolation models (Richardson, linear). OSCAR reconstructs mitigated
// landscapes to let users compare configurations without the heavy extra
// circuit cost mitigation normally incurs.
package mitigation

import (
	"context"
	"fmt"

	"repro/internal/backend"
)

// Extrapolation selects the ZNE extrapolation model.
type Extrapolation int

const (
	// Richardson fits an exact polynomial through all scale points and
	// evaluates it at zero noise. With scales {1,2,3} it is the paper's
	// "Richardson" configuration: accurate in expectation but with
	// heavily amplified shot noise (the "salt-like" landscapes of
	// Figure 9).
	Richardson Extrapolation = iota
	// Linear fits a least-squares line through the scale points. With
	// scales {1,3} it is the paper's "linear" configuration: smoother but
	// biased.
	Linear
)

// String names the model.
func (e Extrapolation) String() string {
	switch e {
	case Richardson:
		return "richardson"
	case Linear:
		return "linear"
	default:
		return fmt.Sprintf("extrapolation(%d)", int(e))
	}
}

// ScalableEvaluator evaluates a cost at a scaled noise level. Scale 1 is the
// device's native noise; scale 0 would be noiseless. On hardware, scaling is
// implemented by gate folding; the simulator backends scale channel
// probabilities, which is equivalent for weak depolarizing noise.
type ScalableEvaluator interface {
	// EvaluateScaled returns the cost at params with noise scaled by c.
	EvaluateScaled(params []float64, c float64) (float64, error)
	// NumParams reports the parameter arity.
	NumParams() int
}

// ZNE is an Evaluator that performs zero-noise extrapolation around a
// scalable evaluator: it runs the circuit at each scale factor and
// extrapolates the results to zero noise.
type ZNE struct {
	inner  ScalableEvaluator
	scales []float64
	model  Extrapolation
	name   string
}

// NewZNE builds a ZNE evaluator. scales must be >= 2 distinct positive
// factors; the paper uses {1,2,3} with Richardson and {1,3} with Linear.
func NewZNE(inner ScalableEvaluator, scales []float64, model Extrapolation) (*ZNE, error) {
	if len(scales) < 2 {
		return nil, fmt.Errorf("mitigation: need >= 2 scale factors, got %d", len(scales))
	}
	seen := map[float64]bool{}
	for _, s := range scales {
		if s <= 0 {
			return nil, fmt.Errorf("mitigation: scale factor %g must be positive", s)
		}
		if seen[s] {
			return nil, fmt.Errorf("mitigation: duplicate scale factor %g", s)
		}
		seen[s] = true
	}
	if model == Richardson && len(scales) > 6 {
		return nil, fmt.Errorf("mitigation: Richardson with %d nodes is numerically unstable", len(scales))
	}
	return &ZNE{
		inner:  inner,
		scales: append([]float64(nil), scales...),
		model:  model,
		name:   fmt.Sprintf("zne-%s%v", model, scales),
	}, nil
}

// Name implements backend.Evaluator.
func (z *ZNE) Name() string { return z.name }

// NumParams implements backend.Evaluator.
func (z *ZNE) NumParams() int { return z.inner.NumParams() }

// ScalableBatchEvaluator is a ScalableEvaluator that can execute a whole
// (point x scale) sweep in one submission. The returned slice is point-major:
// value[i*len(scales)+j] is point i at scale j.
type ScalableBatchEvaluator interface {
	ScalableEvaluator
	EvaluateScaledBatch(ctx context.Context, params [][]float64, scales []float64) ([]float64, error)
}

// Evaluate implements backend.Evaluator: measure at every scale, then
// extrapolate to zero.
func (z *ZNE) Evaluate(params []float64) (float64, error) {
	ys := make([]float64, len(z.scales))
	for i, s := range z.scales {
		v, err := z.inner.EvaluateScaled(params, s)
		if err != nil {
			return 0, err
		}
		ys[i] = v
	}
	return Extrapolate(z.scales, ys, z.model)
}

// EvaluateBatch implements exec.BatchEvaluator: the full fold-factor sweep —
// every point at every noise scale — is submitted as one batch when the
// inner evaluator supports it, so a landscape of mitigated expectations
// costs one queue round-trip instead of len(params)*len(scales).
func (z *ZNE) EvaluateBatch(ctx context.Context, params [][]float64) ([]float64, error) {
	k := len(z.scales)
	var ys []float64
	if sb, ok := z.inner.(ScalableBatchEvaluator); ok {
		vs, err := sb.EvaluateScaledBatch(ctx, params, z.scales)
		if err != nil {
			return nil, err
		}
		if len(vs) != len(params)*k {
			return nil, fmt.Errorf("mitigation: scaled batch returned %d values, want %d", len(vs), len(params)*k)
		}
		ys = vs
	} else {
		ys = make([]float64, len(params)*k)
		for i, p := range params {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			for j, s := range z.scales {
				v, err := z.inner.EvaluateScaled(p, s)
				if err != nil {
					return nil, err
				}
				ys[i*k+j] = v
			}
		}
	}
	out := make([]float64, len(params))
	for i := range params {
		v, err := Extrapolate(z.scales, ys[i*k:(i+1)*k], z.model)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Extrapolate combines measurements ys at noise scales xs into a zero-noise
// estimate using the given model.
func Extrapolate(xs, ys []float64, model Extrapolation) (float64, error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, fmt.Errorf("mitigation: bad extrapolation input (%d xs, %d ys)", len(xs), len(ys))
	}
	switch model {
	case Richardson:
		return lagrangeAtZero(xs, ys), nil
	case Linear:
		slope, icept := leastSquaresLine(xs, ys)
		_ = slope
		return icept, nil
	default:
		return 0, fmt.Errorf("mitigation: unknown model %v", model)
	}
}

// lagrangeAtZero evaluates the interpolating polynomial at x=0, the
// Richardson extrapolation. The weights for scales {1,2,3} are {3,-3,1},
// which is why Richardson amplifies shot variance by 9+9+1 = 19x.
func lagrangeAtZero(xs, ys []float64) float64 {
	var total float64
	for i := range xs {
		w := 1.0
		for j := range xs {
			if i == j {
				continue
			}
			w *= -xs[j] / (xs[i] - xs[j])
		}
		total += w * ys[i]
	}
	return total
}

// leastSquaresLine fits y = slope*x + icept.
func leastSquaresLine(xs, ys []float64) (slope, icept float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, sy / n
	}
	slope = (n*sxy - sx*sy) / den
	icept = (sy - slope*sx) / n
	return slope, icept
}

// VarianceAmplification returns the factor by which extrapolation amplifies
// independent per-scale shot variance: sum of squared extrapolation weights.
// Richardson{1,2,3} gives 19, Linear{1,3} gives 2.5 — the quantitative root
// of Figure 9's jaggedness difference.
func VarianceAmplification(xs []float64, model Extrapolation) (float64, error) {
	switch model {
	case Richardson:
		var s float64
		for i := range xs {
			w := 1.0
			for j := range xs {
				if i == j {
					continue
				}
				w *= -xs[j] / (xs[i] - xs[j])
			}
			s += w * w
		}
		return s, nil
	case Linear:
		// Weights of the intercept estimator.
		n := float64(len(xs))
		var sx, sxx float64
		for _, x := range xs {
			sx += x
			sxx += x * x
		}
		den := n*sxx - sx*sx
		if den == 0 {
			return 0, fmt.Errorf("mitigation: degenerate scales")
		}
		var s float64
		for _, x := range xs {
			w := (sxx - sx*x) / den
			s += w * w
		}
		return s, nil
	default:
		return 0, fmt.Errorf("mitigation: unknown model %v", model)
	}
}

var _ backend.Evaluator = (*ZNE)(nil)

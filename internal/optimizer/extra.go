package optimizer

import (
	"math"
	"sort"
)

// NelderMeadOptions configures the Nelder-Mead simplex optimizer.
type NelderMeadOptions struct {
	// Step is the initial simplex edge (default 0.25).
	Step float64
	// MaxIter caps objective evaluations (default 500).
	MaxIter int
	// Tol stops when the simplex function spread drops below it
	// (default 1e-6).
	Tol float64
	// Bounds optionally clips iterates.
	Bounds []Bounds
}

func (o *NelderMeadOptions) fill() {
	if o.Step == 0 {
		o.Step = 0.25
	}
	if o.MaxIter == 0 {
		o.MaxIter = 500
	}
	if o.Tol == 0 {
		o.Tol = 1e-6
	}
}

// NelderMead minimizes f with the classic simplex method (reflection,
// expansion, contraction, shrink).
func NelderMead(f Objective, x0 []float64, opt NelderMeadOptions) (*Result, error) {
	if err := validateStart(x0, opt.Bounds); err != nil {
		return nil, err
	}
	opt.fill()
	c := &counter{f: f}
	n := len(x0)
	res := &Result{}

	type vertex struct {
		x []float64
		f float64
	}
	record := func(x []float64, fv float64) {
		res.Path = append(res.Path, append([]float64(nil), x...))
		res.FPath = append(res.FPath, fv)
	}
	evalAt := func(x []float64) (float64, error) {
		clampToBounds(x, opt.Bounds)
		v, err := c.eval(x)
		if err != nil {
			return 0, err
		}
		record(x, v)
		return v, nil
	}

	simplex := make([]vertex, n+1)
	base := append([]float64(nil), x0...)
	clampToBounds(base, opt.Bounds)
	fv, err := evalAt(base)
	if err != nil {
		return nil, err
	}
	simplex[0] = vertex{x: base, f: fv}
	for i := 1; i <= n; i++ {
		p := append([]float64(nil), base...)
		p[i-1] += opt.Step
		v, err := evalAt(p)
		if err != nil {
			return nil, err
		}
		simplex[i] = vertex{x: p, f: v}
	}

	for c.n < opt.MaxIter {
		res.Iterations++
		sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
		if math.Abs(simplex[n].f-simplex[0].f) < opt.Tol {
			res.Converged = true
			break
		}
		// Centroid of all but the worst.
		centroid := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				centroid[j] += simplex[i].x[j] / float64(n)
			}
		}
		worst := simplex[n]
		reflect := make([]float64, n)
		for j := 0; j < n; j++ {
			reflect[j] = centroid[j] + (centroid[j] - worst.x[j])
		}
		fr, err := evalAt(reflect)
		if err != nil {
			return nil, err
		}
		switch {
		case fr < simplex[0].f:
			expand := make([]float64, n)
			for j := 0; j < n; j++ {
				expand[j] = centroid[j] + 2*(centroid[j]-worst.x[j])
			}
			fe, err := evalAt(expand)
			if err != nil {
				return nil, err
			}
			if fe < fr {
				simplex[n] = vertex{x: expand, f: fe}
			} else {
				simplex[n] = vertex{x: reflect, f: fr}
			}
		case fr < simplex[n-1].f:
			simplex[n] = vertex{x: reflect, f: fr}
		default:
			contract := make([]float64, n)
			for j := 0; j < n; j++ {
				contract[j] = centroid[j] + 0.5*(worst.x[j]-centroid[j])
			}
			fc, err := evalAt(contract)
			if err != nil {
				return nil, err
			}
			if fc < worst.f {
				simplex[n] = vertex{x: contract, f: fc}
			} else {
				// Shrink toward the best vertex.
				for i := 1; i <= n; i++ {
					for j := 0; j < n; j++ {
						simplex[i].x[j] = simplex[0].x[j] + 0.5*(simplex[i].x[j]-simplex[0].x[j])
					}
					v, err := evalAt(simplex[i].x)
					if err != nil {
						return nil, err
					}
					simplex[i].f = v
				}
			}
		}
	}
	res.X, res.F = bestOf(res.Path, res.FPath)
	res.Queries = c.n
	return res, nil
}

// EuclideanDistance returns ||a-b||_2, the endpoint-proximity measure of
// Figure 12.
func EuclideanDistance(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

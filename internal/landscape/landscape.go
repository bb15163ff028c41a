// Package landscape provides the cost-landscape data model of OSCAR: grids
// over circuit-parameter space, dense landscapes, generation by (parallel)
// grid scan, the evaluation metrics of the paper (NRMSE, roughness,
// variance-of-gradient, variance, DCT sparsity), and the 4-D -> 2-D reshape
// used for depth-2 QAOA.
package landscape

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/exec"
)

// Axis is one landscape dimension: N equidistant samples over [Min, Max]
// inclusive of both endpoints (N >= 2), matching the grid-search definition
// of Table 1.
type Axis struct {
	Name     string
	Min, Max float64
	N        int
}

// Values returns the axis sample positions.
func (a Axis) Values() []float64 {
	v := make([]float64, a.N)
	for i := range v {
		v[i] = a.Value(i)
	}
	return v
}

// Value returns the i-th sample position.
func (a Axis) Value(i int) float64 {
	if a.N == 1 {
		return a.Min
	}
	return a.Min + (a.Max-a.Min)*float64(i)/float64(a.N-1)
}

// Step returns the sample spacing.
func (a Axis) Step() float64 {
	if a.N <= 1 {
		return 0
	}
	return (a.Max - a.Min) / float64(a.N-1)
}

func (a Axis) validate() error {
	if a.N < 2 {
		return fmt.Errorf("landscape: axis %q needs >= 2 samples, got %d", a.Name, a.N)
	}
	if !(a.Max > a.Min) {
		return fmt.Errorf("landscape: axis %q has empty range [%g,%g]", a.Name, a.Min, a.Max)
	}
	return nil
}

// Grid is the Cartesian product of axes; flat indices are row-major with the
// last axis fastest.
type Grid struct {
	Axes []Axis
}

// NewGrid validates and builds a grid.
func NewGrid(axes ...Axis) (*Grid, error) {
	if len(axes) == 0 {
		return nil, errors.New("landscape: grid needs at least one axis")
	}
	size := 1
	for _, a := range axes {
		if err := a.validate(); err != nil {
			return nil, err
		}
		if size > math.MaxInt/a.N {
			return nil, errors.New("landscape: grid point count overflows int")
		}
		size *= a.N
	}
	return &Grid{Axes: axes}, nil
}

// Size returns the total number of grid points.
func (g *Grid) Size() int {
	n := 1
	for _, a := range g.Axes {
		n *= a.N
	}
	return n
}

// Dims returns the per-axis sample counts.
func (g *Grid) Dims() []int {
	d := make([]int, len(g.Axes))
	for i, a := range g.Axes {
		d[i] = a.N
	}
	return d
}

// Point returns the parameter vector of flat index idx.
func (g *Grid) Point(idx int) []float64 {
	p := make([]float64, len(g.Axes))
	g.pointInto(p, idx)
	return p
}

// pointInto writes the parameter vector of flat index idx into p.
func (g *Grid) pointInto(p []float64, idx int) {
	for i := len(g.Axes) - 1; i >= 0; i-- {
		a := g.Axes[i]
		p[i] = a.Value(idx % a.N)
		idx /= a.N
	}
}

// Index returns the flat index of multi-index mi.
func (g *Grid) Index(mi ...int) int {
	if len(mi) != len(g.Axes) {
		panic(fmt.Sprintf("landscape: %d indices for %d axes", len(mi), len(g.Axes)))
	}
	idx := 0
	for i, a := range g.Axes {
		if mi[i] < 0 || mi[i] >= a.N {
			panic(fmt.Sprintf("landscape: index %d out of range for axis %d", mi[i], i))
		}
		idx = idx*a.N + mi[i]
	}
	return idx
}

// Landscape couples a grid with its cost values.
type Landscape struct {
	Grid *Grid
	Data []float64
}

// New allocates an all-zero landscape on g.
func New(g *Grid) *Landscape {
	return &Landscape{Grid: g, Data: make([]float64, g.Size())}
}

// At returns the value at a multi-index.
func (l *Landscape) At(mi ...int) float64 { return l.Data[l.Grid.Index(mi...)] }

// Min returns the minimum value and its flat index, ignoring NaN entries
// (a reconstruction or hardware dataset can carry NaN holes). If the
// landscape has any non-NaN value the returned index is valid; otherwise —
// empty data or all-NaN — it returns (NaN, -1), and callers that index must
// check for the -1 sentinel.
func (l *Landscape) Min() (float64, int) {
	best, arg := math.NaN(), -1
	for i, v := range l.Data {
		if math.IsNaN(v) {
			continue
		}
		if arg < 0 || v < best {
			best, arg = v, i
		}
	}
	return best, arg
}

// Max returns the maximum value and its flat index, ignoring NaN entries;
// the sentinel contract matches Min.
func (l *Landscape) Max() (float64, int) {
	best, arg := math.NaN(), -1
	for i, v := range l.Data {
		if math.IsNaN(v) {
			continue
		}
		if arg < 0 || v > best {
			best, arg = v, i
		}
	}
	return best, arg
}

// Clone deep-copies the landscape (sharing the immutable grid).
func (l *Landscape) Clone() *Landscape {
	d := make([]float64, len(l.Data))
	copy(d, l.Data)
	return &Landscape{Grid: l.Grid, Data: d}
}

// Shape returns the per-axis lengths of the landscape (last axis fastest in
// Data's row-major layout) — the dims an N-dimensional DCT or reconstruction
// over Data expects. For a classic 2-axis landscape it returns the historical
// {rows, cols} pair.
func (l *Landscape) Shape() []int { return l.Grid.Dims() }

// EvalFunc computes the cost at a parameter vector. Implementations must be
// safe for concurrent use (landscape generation fans out across workers).
type EvalFunc func(params []float64) (float64, error)

// Points materializes the parameter vectors of the given flat indices — the
// batch a grid scan submits to the execution engine. All vectors share one
// backing array (two allocations per batch instead of one per point).
func (g *Grid) Points(idx []int) [][]float64 {
	k := len(g.Axes)
	backing := make([]float64, len(idx)*k)
	pts := make([][]float64, len(idx))
	for j, i := range idx {
		p := backing[j*k : (j+1)*k : (j+1)*k]
		g.pointInto(p, i)
		pts[j] = p
	}
	return pts
}

// AllPoints materializes every grid point in flat-index order, sharing one
// backing array like Points.
func (g *Grid) AllPoints() [][]float64 {
	k := len(g.Axes)
	n := g.Size()
	backing := make([]float64, n*k)
	pts := make([][]float64, n)
	for i := range pts {
		p := backing[i*k : (i+1)*k : (i+1)*k]
		g.pointInto(p, i)
		pts[i] = p
	}
	return pts
}

// Generate scans the full grid — the expensive dense "ground truth"
// computation OSCAR avoids — running eval on workers goroutines (0 means
// GOMAXPROCS). It is a thin wrapper over the batched execution engine.
func Generate(g *Grid, eval EvalFunc, workers int) (*Landscape, error) {
	return GenerateContext(context.Background(), g, eval, workers)
}

// GenerateContext is Generate with cancellation.
func GenerateContext(ctx context.Context, g *Grid, eval EvalFunc, workers int) (*Landscape, error) {
	return GenerateBatch(ctx, g, exec.Lift(eval), workers)
}

// GenerateBatch scans the full grid through a batch evaluator, submitting
// every point as one batch so native batch backends and the engine's
// chunking worker pool do the fan-out.
func GenerateBatch(ctx context.Context, g *Grid, be exec.BatchEvaluator, workers int) (*Landscape, error) {
	en := exec.New(be, exec.Options{Workers: workers})
	data, err := en.EvaluateBatch(ctx, g.AllPoints())
	if err != nil {
		return nil, err
	}
	return &Landscape{Grid: g, Data: data}, nil
}

// Sample evaluates the grid at the given flat indices only — OSCAR's
// circuit-execution phase — in parallel.
func Sample(g *Grid, eval EvalFunc, idx []int, workers int) ([]float64, error) {
	return SampleContext(context.Background(), g, eval, idx, workers)
}

// SampleContext is Sample with cancellation.
func SampleContext(ctx context.Context, g *Grid, eval EvalFunc, idx []int, workers int) ([]float64, error) {
	return SampleBatch(ctx, g, exec.Lift(eval), idx, workers)
}

// SampleBatch evaluates the grid at the given flat indices through a batch
// evaluator, as one engine batch.
func SampleBatch(ctx context.Context, g *Grid, be exec.BatchEvaluator, idx []int, workers int) ([]float64, error) {
	en := exec.New(be, exec.Options{Workers: workers})
	return en.EvaluateBatch(ctx, g.Points(idx))
}

// quartiles returns (Q1, Q3) with linear interpolation.
func quartiles(x []float64) (q1, q3 float64) {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return quantile(s, 0.25), quantile(s, 0.75)
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// NRMSE is the paper's Equation 1: RMSE between the true landscape x and
// reconstruction y, normalized by the interquartile range of x.
func NRMSE(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("landscape: NRMSE length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) == 0 {
		return 0, errors.New("landscape: NRMSE of empty landscape")
	}
	var sum float64
	for i := range x {
		d := x[i] - y[i]
		sum += d * d
	}
	rmse := math.Sqrt(sum / float64(len(x)))
	q1, q3 := quartiles(x)
	iqr := q3 - q1
	if iqr == 0 {
		if rmse == 0 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return rmse / iqr, nil
}

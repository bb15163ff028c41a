package optimizer

import (
	"errors"
	"math"
	"testing"
)

// quadratic has its minimum at (1, -2).
func quadratic(x []float64) (float64, error) {
	dx, dy := x[0]-1, x[1]+2
	return dx*dx + 2*dy*dy, nil
}

// rosenbrock is the classic banana function, minimum at (1,1).
func rosenbrock(x []float64) (float64, error) {
	a := 1 - x[0]
	b := x[1] - x[0]*x[0]
	return a*a + 100*b*b, nil
}

func TestADAMQuadratic(t *testing.T) {
	res, err := ADAM(quadratic, []float64{3, 3}, ADAMOptions{MaxIter: 800})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 0.05 || math.Abs(res.X[1]+2) > 0.05 {
		t.Fatalf("ADAM ended at %v (f=%g)", res.X, res.F)
	}
	if res.Queries < 100 {
		t.Fatalf("ADAM used suspiciously few queries: %d", res.Queries)
	}
	if len(res.Path) != len(res.FPath) {
		t.Fatal("path lengths differ")
	}
	// Queries per iteration: 2n finite-difference + 1 evaluation.
	wantQueries := 1 + res.Iterations*(2*2+1)
	if res.Queries != wantQueries {
		t.Fatalf("queries %d want %d", res.Queries, wantQueries)
	}
}

func TestCobylaQuadratic(t *testing.T) {
	res, err := Cobyla(quadratic, []float64{3, 3}, CobylaOptions{MaxIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 0.05 || math.Abs(res.X[1]+2) > 0.05 {
		t.Fatalf("Cobyla ended at %v (f=%g)", res.X, res.F)
	}
}

// TestCobylaUsesFarFewerQueriesThanADAM is the qualitative Table 6 property.
func TestCobylaUsesFarFewerQueriesThanADAM(t *testing.T) {
	adam, err := ADAM(quadratic, []float64{2.5, 1}, ADAMOptions{MaxIter: 2000, Tol: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	cob, err := Cobyla(quadratic, []float64{2.5, 1}, CobylaOptions{MaxIter: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !cob.Converged {
		t.Fatal("Cobyla did not converge")
	}
	if cob.Queries*3 > adam.Queries {
		t.Fatalf("expected COBYLA (%d queries) << ADAM (%d queries)", cob.Queries, adam.Queries)
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	res, err := NelderMead(quadratic, []float64{4, 4}, NelderMeadOptions{MaxIter: 400})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 0.02 || math.Abs(res.X[1]+2) > 0.02 {
		t.Fatalf("NelderMead ended at %v", res.X)
	}
	if !res.Converged {
		t.Fatal("NelderMead did not converge")
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	res, err := NelderMead(rosenbrock, []float64{-1, 1}, NelderMeadOptions{MaxIter: 4000, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if res.F > 1e-3 {
		t.Fatalf("NelderMead stuck at f=%g x=%v", res.F, res.X)
	}
}

func TestBoundsRespected(t *testing.T) {
	bounds := []Bounds{{Lo: 0, Hi: 0.5}, {Lo: -1, Hi: 0}}
	check := func(name string, res *Result, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range res.Path {
			if p[0] < -1e-9 || p[0] > 0.5+1e-9 || p[1] < -1-1e-9 || p[1] > 1e-9 {
				t.Fatalf("%s: iterate %v violates bounds", name, p)
			}
		}
	}
	res, err := ADAM(quadratic, []float64{0.3, -0.5}, ADAMOptions{MaxIter: 50, Bounds: bounds})
	check("adam", res, err)
	res, err = Cobyla(quadratic, []float64{0.3, -0.5}, CobylaOptions{MaxIter: 80, Bounds: bounds})
	check("cobyla", res, err)
	res, err = NelderMead(quadratic, []float64{0.3, -0.5}, NelderMeadOptions{MaxIter: 80, Bounds: bounds})
	check("neldermead", res, err)
}

func TestValidation(t *testing.T) {
	if _, err := ADAM(quadratic, nil, ADAMOptions{}); err == nil {
		t.Error("want error for empty start")
	}
	if _, err := Cobyla(quadratic, []float64{math.NaN(), 0}, CobylaOptions{}); err == nil {
		t.Error("want error for NaN start")
	}
	if _, err := NelderMead(quadratic, []float64{0, 0}, NelderMeadOptions{Bounds: []Bounds{{0, 1}}}); err == nil {
		t.Error("want error for bounds arity mismatch")
	}
}

func TestObjectiveErrorPropagates(t *testing.T) {
	sentinel := errors.New("qpu offline")
	bad := func(x []float64) (float64, error) { return 0, sentinel }
	if _, err := ADAM(bad, []float64{0, 0}, ADAMOptions{MaxIter: 5}); !errors.Is(err, sentinel) {
		t.Errorf("adam err=%v", err)
	}
	if _, err := Cobyla(bad, []float64{0, 0}, CobylaOptions{MaxIter: 5}); !errors.Is(err, sentinel) {
		t.Errorf("cobyla err=%v", err)
	}
	if _, err := NelderMead(bad, []float64{0, 0}, NelderMeadOptions{MaxIter: 5}); !errors.Is(err, sentinel) {
		t.Errorf("neldermead err=%v", err)
	}
}

func TestEuclideanDistance(t *testing.T) {
	if d := EuclideanDistance([]float64{0, 0}, []float64{3, 4}); math.Abs(d-5) > 1e-12 {
		t.Fatalf("distance %g want 5", d)
	}
}

func TestSolveLinear(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, ok := solveLinear(a, b)
	if !ok {
		t.Fatal("solve failed")
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x=%v want [1 3]", x)
	}
	// Singular system.
	a2 := [][]float64{{1, 1}, {2, 2}}
	if _, ok := solveLinear(a2, []float64{1, 2}); ok {
		t.Fatal("singular system should fail")
	}
}

func TestPathStartsAtInitialPoint(t *testing.T) {
	start := []float64{2, 2}
	res, err := ADAM(quadratic, start, ADAMOptions{MaxIter: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Path[0][0] != 2 || res.Path[0][1] != 2 {
		t.Fatalf("path starts at %v", res.Path[0])
	}
}

package mitigation

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ansatz"
	"repro/internal/backend"
	"repro/internal/noise"
	"repro/internal/problem"
)

// scalableDensity adapts a (problem, ansatz, profile) to ScalableEvaluator
// by scaling the profile.
type scalableDensity struct {
	p    *problem.Problem
	a    *ansatz.Ansatz
	prof noise.Profile
}

func (s *scalableDensity) NumParams() int { return s.a.NumParams }

func (s *scalableDensity) EvaluateScaled(params []float64, c float64) (float64, error) {
	ev, err := backend.NewDensity(s.p, s.a, s.prof.Scaled(c))
	if err != nil {
		return 0, err
	}
	return ev.Evaluate(params)
}

func TestExtrapolateRichardsonExactForQuadratic(t *testing.T) {
	// y(x) = 2 - 0.3x + 0.05x^2: Richardson through 3 points recovers
	// y(0) exactly.
	f := func(x float64) float64 { return 2 - 0.3*x + 0.05*x*x }
	xs := []float64{1, 2, 3}
	ys := []float64{f(1), f(2), f(3)}
	got, err := Extrapolate(xs, ys, Richardson)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("Richardson %g want 2", got)
	}
}

func TestExtrapolateLinear(t *testing.T) {
	// Exact line: intercept recovered.
	xs := []float64{1, 3}
	ys := []float64{1.7, 1.1} // y = 2 - 0.3x
	got, err := Extrapolate(xs, ys, Linear)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2) > 1e-12 {
		t.Fatalf("Linear %g want 2", got)
	}
	if _, err := Extrapolate(xs, ys[:1], Linear); err == nil {
		t.Error("want error for mismatched input")
	}
}

func TestRichardsonWeightsSum(t *testing.T) {
	// Lagrange-at-zero weights for {1,2,3} are {3,-3,1}.
	got := lagrangeAtZero([]float64{1, 2, 3}, []float64{1, 0, 0})
	if math.Abs(got-3) > 1e-12 {
		t.Fatalf("w1=%g want 3", got)
	}
	got = lagrangeAtZero([]float64{1, 2, 3}, []float64{0, 1, 0})
	if math.Abs(got+3) > 1e-12 {
		t.Fatalf("w2=%g want -3", got)
	}
	got = lagrangeAtZero([]float64{1, 2, 3}, []float64{0, 0, 1})
	if math.Abs(got-1) > 1e-12 {
		t.Fatalf("w3=%g want 1", got)
	}
}

func TestVarianceAmplification(t *testing.T) {
	rich, err := VarianceAmplification([]float64{1, 2, 3}, Richardson)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rich-19) > 1e-9 {
		t.Fatalf("Richardson amplification %g want 19", rich)
	}
	lin, err := VarianceAmplification([]float64{1, 3}, Linear)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lin-2.5) > 1e-9 {
		t.Fatalf("Linear amplification %g want 2.5", lin)
	}
	if rich <= lin {
		t.Fatal("Richardson must amplify more than linear — the Figure 9 jaggedness")
	}
}

func TestZNERecoversIdealExpectation(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	p, err := problem.Random3RegularMaxCut(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ansatz.QAOA(p.Graph, 1)
	if err != nil {
		t.Fatal(err)
	}
	prof := noise.Profile{Name: "mild", P1: 0.001, P2: 0.004}
	sc := &scalableDensity{p: p, a: a, prof: prof}

	sv, _ := backend.NewStateVector(p, a)
	params := []float64{0.35, -0.55}
	ideal, _ := sv.Evaluate(params)
	noisy, err := sc.EvaluateScaled(params, 1)
	if err != nil {
		t.Fatal(err)
	}

	zne, err := NewZNE(sc, []float64{1, 2, 3}, Richardson)
	if err != nil {
		t.Fatal(err)
	}
	mitigated, err := zne.Evaluate(params)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mitigated-ideal) >= math.Abs(noisy-ideal)/3 {
		t.Fatalf("ZNE barely helped: ideal %g noisy %g mitigated %g", ideal, noisy, mitigated)
	}

	lin, err := NewZNE(sc, []float64{1, 3}, Linear)
	if err != nil {
		t.Fatal(err)
	}
	linMit, err := lin.Evaluate(params)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(linMit-ideal) >= math.Abs(noisy-ideal) {
		t.Fatalf("linear ZNE did not improve: ideal %g noisy %g mitigated %g", ideal, noisy, linMit)
	}
}

func TestNewZNEValidation(t *testing.T) {
	sc := &scalableDensity{}
	if _, err := NewZNE(sc, []float64{1}, Richardson); err == nil {
		t.Error("want error for single scale")
	}
	if _, err := NewZNE(sc, []float64{1, -2}, Richardson); err == nil {
		t.Error("want error for negative scale")
	}
	if _, err := NewZNE(sc, []float64{1, 1}, Richardson); err == nil {
		t.Error("want error for duplicate scales")
	}
	if _, err := NewZNE(sc, []float64{1, 2, 3, 4, 5, 6, 7}, Richardson); err == nil {
		t.Error("want error for unstable Richardson order")
	}
}

func TestExtrapolationString(t *testing.T) {
	if Richardson.String() != "richardson" || Linear.String() != "linear" {
		t.Error("names wrong")
	}
	if Extrapolation(9).String() == "" {
		t.Error("unknown model should stringify")
	}
}

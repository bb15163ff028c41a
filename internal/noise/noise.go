// Package noise defines device noise profiles and the analytic depolarizing
// damping model. Profiles parameterize both the exact density-matrix
// simulator (per-gate Kraus channels) and the fast expectation-damping model
// used with the analytic depth-1 QAOA engine at large qubit counts.
package noise

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// Profile describes a device's error rates. The zero value is an ideal
// (noise-free) device.
type Profile struct {
	// Name identifies the device configuration in experiment output.
	Name string
	// P1 and P2 are the depolarizing probabilities applied after every
	// one- and two-qubit gate.
	P1, P2 float64
	// Readout01 is P(read 1 | prepared 0); Readout10 is P(read 0 |
	// prepared 1). Applied per qubit at measurement.
	Readout01, Readout10 float64
}

// Ideal is the noise-free profile.
func Ideal() Profile { return Profile{Name: "ideal"} }

// Fig4 is the depolarizing configuration of Figure 4: 1q error 0.003 and 2q
// error 0.007.
func Fig4() Profile { return Profile{Name: "depol-fig4", P1: 0.003, P2: 0.007} }

// Fig9 is the configuration of Figure 9: 1q error 0.001 and 2q error 0.02.
func Fig9() Profile { return Profile{Name: "depol-fig9", P1: 0.001, P2: 0.02} }

// QPU1 is the first simulated device of Section 5.1: 1q 0.1%, 2q 0.5%.
func QPU1() Profile { return Profile{Name: "qpu1", P1: 0.001, P2: 0.005} }

// QPU2 is the second simulated device of Section 5.1: 1q 0.3%, 2q 0.7%.
func QPU2() Profile { return Profile{Name: "qpu2", P1: 0.003, P2: 0.007} }

// PerthLike is a device profile standing in for the IBM Perth hardware of
// the paper's NCM experiments: comparatively high two-qubit and readout
// error.
func PerthLike() Profile {
	return Profile{Name: "perth-like", P1: 0.0023, P2: 0.0121, Readout01: 0.02, Readout10: 0.035}
}

// LagosLike is a device profile standing in for IBM Lagos: lower error rates
// than PerthLike.
func LagosLike() Profile {
	return Profile{Name: "lagos-like", P1: 0.0011, P2: 0.0078, Readout01: 0.012, Readout10: 0.021}
}

// IsIdeal reports whether the profile applies no noise at all.
func (p Profile) IsIdeal() bool {
	return p.P1 == 0 && p.P2 == 0 && p.Readout01 == 0 && p.Readout10 == 0
}

// Validate checks the rates are probabilities.
func (p Profile) Validate() error {
	for _, v := range []float64{p.P1, p.P2, p.Readout01, p.Readout10} {
		if v < 0 || v > 1 || math.IsNaN(v) {
			return fmt.Errorf("noise: rate %g out of [0,1] in profile %q", v, p.Name)
		}
	}
	return nil
}

// Scaled returns the profile with all error rates multiplied by factor,
// clamped to [0,1]. Zero-noise extrapolation evaluates circuits at scaled
// noise levels; on hardware this is done by gate folding, and on a simulator
// by scaling the channel probabilities directly (the two are equivalent for
// depolarizing noise in the weak-noise regime).
func (p Profile) Scaled(factor float64) Profile {
	clamp := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	return Profile{
		Name:      fmt.Sprintf("%s-x%.3g", p.Name, factor),
		P1:        clamp(p.P1 * factor),
		P2:        clamp(p.P2 * factor),
		Readout01: clamp(p.Readout01 * factor),
		Readout10: clamp(p.Readout10 * factor),
	}
}

// Damping1Q returns the factor by which one depolarizing channel of
// probability p damps a traceless observable supported on the qubit:
// 1 - 4p/3.
func Damping1Q(p float64) float64 { return 1 - 4*p/3 }

// Damping2Q returns the damping factor of the two-qubit depolarizing channel
// for any traceless observable intersecting its support: 1 - 16p/15.
func Damping2Q(p float64) float64 { return 1 - 16*p/15 }

// EdgeDampingFactors computes, for every edge of a depth-1 QAOA circuit on
// g, the multiplicative damping of <Z_u Z_v> under the profile's
// depolarizing noise. The model damps each correlator by the channels in its
// light cone: one two-qubit channel per RZZ gate incident to u or v
// (including the edge itself) and one single-qubit channel per H and RX on u
// and v (four total). Readout error contributes an additional
// (1-p01-p10) factor per endpoint, the standard symmetric-confusion damping
// of a Z expectation.
func EdgeDampingFactors(g *graph.Graph, p Profile) []float64 {
	deg := g.Degree()
	d1 := Damping1Q(p.P1)
	d2 := Damping2Q(p.P2)
	ro := 1 - p.Readout01 - p.Readout10
	if ro < 0 {
		ro = 0
	}
	out := make([]float64, len(g.Edges))
	for i, e := range g.Edges {
		n2 := deg[e.U] + deg[e.V] - 1
		f := math.Pow(d2, float64(n2)) * math.Pow(d1, 4)
		f *= ro * ro
		out[i] = f
	}
	return out
}

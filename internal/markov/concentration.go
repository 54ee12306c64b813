package markov

import (
	"fmt"
	"math"

	"neatbound/internal/rng"
)

// This file implements the concentration machinery of Section V-B: the
// Chernoff–Hoeffding bound for Markov chains (Chung, Lam, Liu &
// Mitzenmacher, Theorem 3.1) that the paper instantiates as
// Inequality (47):
//
//	P[C ≤ (1−δ)·E[C]] ≤ c·‖φ‖_π · exp(−δ²·T·π_conv / (72·τ(ε)))
//
// where C counts visits to a target vertex over a T-step walk, π_conv is
// the vertex's stationary mass, τ(ε) is the ε-mixing time (ε ≤ 1/8), and
// ‖φ‖_π is the π-norm of the initial distribution (bounded by
// Proposition 1 as 1/√min π).

// ConcentrationBound evaluates the Inequality-(47) right-hand side for a
// walk of length steps on chain c targeting the stationary mass piTarget.
type ConcentrationBound struct {
	// MixingTime is τ(1/8), the chain's 1/8-mixing time.
	MixingTime int
	// PiNormBound bounds ‖φ‖_π (Proposition 1: 1/√min π).
	PiNormBound float64
	// PiTarget is the stationary probability of the counted vertex.
	PiTarget float64
	// LeadConstant is the universal constant in front (Theorem 3.1 of
	// Chung et al. has an unspecified constant; the paper carries it as
	// O(1); we use 1 so the bound is comparable across parameters).
	LeadConstant float64
}

// NewConcentrationBound computes the bound ingredients for the chain: its
// 1/8-mixing time, the Proposition-1 π-norm bound, and the target mass.
func NewConcentrationBound(c *Chain, target int, maxMixSteps int) (*ConcentrationBound, error) {
	if target < 0 || target >= c.Len() {
		return nil, fmt.Errorf("markov: target state %d outside [0, %d)", target, c.Len())
	}
	pi, err := c.StationaryDirect()
	if err != nil {
		return nil, err
	}
	tau, err := c.MixingTime(0.125, maxMixSteps)
	if err != nil {
		return nil, err
	}
	return &ConcentrationBound{
		MixingTime:   tau,
		PiNormBound:  PiNormUpperBound(pi),
		PiTarget:     pi[target],
		LeadConstant: 1,
	}, nil
}

// LowerTail returns the Inequality-(47) upper bound on
// P[C ≤ (1−δ)·T·π_target] for a T-step stationary-start walk.
func (b *ConcentrationBound) LowerTail(steps int, delta float64) float64 {
	if delta <= 0 {
		return 1
	}
	if delta > 1 {
		delta = 1
	}
	exponent := -delta * delta * float64(steps) * b.PiTarget / (72 * float64(b.MixingTime))
	v := b.LeadConstant * b.PiNormBound * math.Exp(exponent)
	return math.Min(v, 1)
}

// EmpiricalVisitDeviation runs trials independent walks of the given
// length from start and returns the observed fraction of walks whose
// visit count of target fell at or below (1−delta)·steps·π_target — the
// quantity Inequality (47) upper-bounds.
func EmpiricalVisitDeviation(c *Chain, target, start, steps, trials int, delta float64, r *rng.Stream) (float64, error) {
	if trials < 1 {
		return 0, fmt.Errorf("markov: trials = %d must be ≥ 1", trials)
	}
	pi, err := c.StationaryDirect()
	if err != nil {
		return 0, err
	}
	threshold := (1 - delta) * float64(steps) * pi[target]
	bad := 0
	for i := 0; i < trials; i++ {
		path, err := c.Walk(r, start, steps)
		if err != nil {
			return 0, err
		}
		count := 0
		for _, s := range path[1:] {
			if s == target {
				count++
			}
		}
		if float64(count) <= threshold {
			bad++
		}
	}
	return float64(bad) / float64(trials), nil
}

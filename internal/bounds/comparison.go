package bounds

import (
	"fmt"
	"math"

	"neatbound/internal/params"
	"neatbound/internal/solve"
)

// This file quantifies the paper's improvement over the PSS analysis
// beyond the closed-form curves of Figure 1: PSSExactNuMax numerically
// inverts the exact (unapproximated) PSS condition α[1−(2Δ+2)α] > β at a
// concrete (n, Δ), and CompareAt/ComparisonTable tabulate minimum-c
// requirements and improvement ratios across ν.

// PSSExactNuMax returns the largest ν for which the exact PSS condition
// α[1−(2Δ+2)α] > β holds at a given c, n and Δ, solved numerically. It
// returns 0 when the condition fails for every ν (e.g. c too small).
func PSSExactNuMax(c float64, n, delta int) (float64, error) {
	if c <= 0 {
		return 0, fmt.Errorf("bounds: c = %g must be positive", c)
	}
	if n < 4 || delta < 1 {
		return 0, fmt.Errorf("bounds: need n ≥ 4 and Δ ≥ 1, got n=%d Δ=%d", n, delta)
	}
	margin := func(nu float64) float64 {
		pr, err := params.FromC(n, delta, nu, c)
		if err != nil {
			return math.NaN()
		}
		alpha := pr.Alpha()
		beta := pr.P * pr.AdversaryN()
		return alpha*(1-(2*float64(pr.Delta)+2)*alpha) - beta
	}
	const lo, hi = 1e-9, 0.5 - 1e-9
	mLo, mHi := margin(lo), margin(hi)
	if math.IsNaN(mLo) || math.IsNaN(mHi) {
		return 0, fmt.Errorf("bounds: parameterization infeasible at c=%g n=%d Δ=%d", c, n, delta)
	}
	if mLo <= 0 {
		return 0, nil // not even a vanishing adversary is certified
	}
	if mHi > 0 {
		return hi, nil // certified all the way to ½ (cannot happen for finite c, kept for safety)
	}
	root, err := solve.Bisect(margin, lo, hi, solve.Options{TolX: 1e-12})
	if err != nil {
		return 0, fmt.Errorf("bounds: inverting exact PSS at c=%g: %w", c, err)
	}
	return root, nil
}

// Comparison records the minimum-c requirements of each analysis at one
// adversarial fraction.
type Comparison struct {
	// Nu is the adversarial fraction.
	Nu float64
	// NeatMinC is 2µ/ln(µ/ν), the paper's asymptotic requirement.
	NeatMinC float64
	// Theorem2MinC is the finite-Δ explicit-slack requirement
	// (Inequality 11).
	Theorem2MinC float64
	// PSSMinC is the PSS approximation 2(1−ν)²/(1−2ν).
	PSSMinC float64
	// ImprovementRatio is PSSMinC / NeatMinC (> 1 everywhere; the paper's
	// gain).
	ImprovementRatio float64
	// AttackMaxC is the c below which the PSS Remark-8.5 attack breaks
	// consistency at this ν: ν > νmin(c) ⟺ c < ν(1−ν)/(1−2ν).
	AttackMaxC float64
}

// CompareAt evaluates every analysis at one ν with the given finite Δ and
// slack.
func CompareAt(nu, delta float64, eps Epsilons) (Comparison, error) {
	neat, err := NeatBoundC(nu)
	if err != nil {
		return Comparison{}, err
	}
	t2, err := Theorem2MinC(nu, delta, eps)
	if err != nil {
		return Comparison{}, err
	}
	pss, err := PSSConsistencyMinC(nu)
	if err != nil {
		return Comparison{}, err
	}
	// Invert the attack curve: ν = (2c+1−√(4c²+1))/2 ⟺ c = ν(1−ν)/(1−2ν).
	attackMaxC := nu * (1 - nu) / (1 - 2*nu)
	return Comparison{
		Nu:               nu,
		NeatMinC:         neat,
		Theorem2MinC:     t2,
		PSSMinC:          pss,
		ImprovementRatio: pss / neat,
		AttackMaxC:       attackMaxC,
	}, nil
}

// ComparisonTable evaluates CompareAt over a ν grid.
func ComparisonTable(nus []float64, delta float64, eps Epsilons) ([]Comparison, error) {
	if len(nus) == 0 {
		return nil, fmt.Errorf("bounds: empty ν grid")
	}
	out := make([]Comparison, len(nus))
	for i, nu := range nus {
		c, err := CompareAt(nu, delta, eps)
		if err != nil {
			return nil, fmt.Errorf("bounds: comparison at ν=%g: %w", nu, err)
		}
		out[i] = c
	}
	return out, nil
}

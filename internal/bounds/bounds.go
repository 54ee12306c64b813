// Package bounds implements the paper's primary contribution: the
// consistency bounds of Theorems 1–3 for Nakamoto's protocol in the
// Δ-delay model, the neat closed form c > 2µ/ln(µ/ν), the constant
// selections of Eqs. (60)–(61), the Remark-1 parameter regimes
// (Eqs. 12–17), and the Pass–Seeman–Shelat baseline curves (consistency
// and attack) that Figure 1 compares against.
//
// Everything inverts or evaluates in closed form where the paper does, and
// numerically (bisection/Brent over monotone curves) where the paper
// solves "numerically given c". Quantities that vanish at the paper's
// scale (ᾱ^{2Δ} with Δ = 10¹³) are computed in log space.
package bounds

import (
	"fmt"
	"math"

	"neatbound/internal/params"
	"neatbound/internal/solve"
)

// validateNu enforces the paper's standing assumption 0 < ν < ½ (Eq. 2).
func validateNu(nu float64) error {
	if !(nu > 0 && nu < 0.5) {
		return fmt.Errorf("bounds: ν = %g violates 0 < ν < ½", nu)
	}
	return nil
}

// LogMuOverNu returns ln(µ/ν) = ln((1−ν)/ν), positive on (0, ½).
func LogMuOverNu(nu float64) float64 { return math.Log((1 - nu) / nu) }

// NeatBoundC returns the paper's headline threshold 2µ/ln(µ/ν): Theorem 2
// shows consistency holds whenever c = 1/(pnΔ) is just slightly greater
// than this value.
func NeatBoundC(nu float64) (float64, error) {
	if err := validateNu(nu); err != nil {
		return 0, err
	}
	return 2 * (1 - nu) / LogMuOverNu(nu), nil
}

// NeatBoundNuMax returns the largest adversarial fraction ν tolerated at a
// given c under the neat bound — the magenta curve of Figure 1, obtained
// by solving c = 2(1−ν)/ln((1−ν)/ν) for ν (the curve is strictly
// increasing in ν on (0, ½)). Strictly speaking νmax itself is not
// achievable (the theorem needs strict inequality).
func NeatBoundNuMax(c float64) (float64, error) {
	if c <= 0 {
		return 0, fmt.Errorf("bounds: c = %g must be positive", c)
	}
	f := func(nu float64) float64 {
		b, _ := NeatBoundC(nu)
		return b - c
	}
	const lo, hi = 1e-12, 0.5 - 1e-12
	// 2µ/ln(µ/ν) → 0 as ν→0 and → ∞ as ν→½, so a root always brackets.
	root, err := solve.Bisect(f, lo, hi, solve.Options{TolX: 1e-14})
	if err != nil {
		return 0, fmt.Errorf("bounds: inverting neat bound at c=%g: %w", c, err)
	}
	return root, nil
}

// PSSConsistencyMinC returns the c the PSS analysis needs at adversarial
// fraction ν: c > 2(1−ν)²/(1−2ν) (derived in the paper's introduction from
// α[1−(2Δ+2)α] > β).
func PSSConsistencyMinC(nu float64) (float64, error) {
	if err := validateNu(nu); err != nil {
		return 0, err
	}
	return 2 * (1 - nu) * (1 - nu) / (1 - 2*nu), nil
}

// PSSConsistencyNuMax returns the blue curve of Figure 1: the largest ν
// the PSS consistency analysis tolerates at a given c,
// ν < ½(2−c+√(c²−2c)), defined for c > 2; for c ≤ 2 the analysis tolerates
// no adversary and 0 is returned.
func PSSConsistencyNuMax(c float64) (float64, error) {
	if c <= 0 {
		return 0, fmt.Errorf("bounds: c = %g must be positive", c)
	}
	if c <= 2 {
		return 0, nil
	}
	return (2 - c + math.Sqrt(c*c-2*c)) / 2, nil
}

// PSSAttackNuMin returns the red curve of Figure 1: Remark 8.5 of PSS
// gives an attack breaking consistency when 1/c > 1/ν − 1/(1−ν), i.e. for
// ν > (2c+1−√(4c²+1))/2.
func PSSAttackNuMin(c float64) (float64, error) {
	if c <= 0 {
		return 0, fmt.Errorf("bounds: c = %g must be positive", c)
	}
	return (2*c + 1 - math.Sqrt(4*c*c+1)) / 2, nil
}

// Theorem1LogLHS returns ln(ᾱ^{2Δ}·α₁), the log of the convergence-
// opportunity rate on the left of Inequality (10), computed in log space
// so it survives Δ = 10¹³.
func Theorem1LogLHS(pr params.Params) float64 {
	logABar := pr.HonestN() * math.Log1p(-pr.P)
	logAlpha1 := math.Log(pr.P) + math.Log(pr.HonestN()) + (pr.HonestN()-1)*math.Log1p(-pr.P)
	return 2*float64(pr.Delta)*logABar + logAlpha1
}

// Theorem1Holds reports whether Inequality (10) of Theorem 1,
// ᾱ^{2Δ}·α₁ ≥ (1+δ₁)·p·ν·n, holds for the given δ₁ > 0.
func Theorem1Holds(pr params.Params, delta1 float64) (bool, error) {
	if err := pr.Validate(); err != nil {
		return false, fmt.Errorf("bounds: %w", err)
	}
	if delta1 <= 0 {
		return false, fmt.Errorf("bounds: δ₁ = %g must be positive", delta1)
	}
	logRHS := math.Log1p(delta1) + math.Log(pr.P) + math.Log(pr.AdversaryN())
	return Theorem1LogLHS(pr) >= logRHS, nil
}

// Epsilons are the constants 0 < ε₁ < 1 and ε₂ > 0 of Theorems 2 and 3.
type Epsilons struct {
	E1, E2 float64
}

// Validate checks 0 < ε₁ < 1 and ε₂ > 0.
func (e Epsilons) Validate() error {
	if !(e.E1 > 0 && e.E1 < 1) {
		return fmt.Errorf("bounds: ε₁ = %g outside (0, 1)", e.E1)
	}
	if e.E2 <= 0 {
		return fmt.Errorf("bounds: ε₂ = %g must be positive", e.E2)
	}
	return nil
}

// DefaultEpsilons are small slack constants suitable for evaluating the
// bound numerically; the theorems allow them arbitrarily small.
var DefaultEpsilons = Epsilons{E1: 0.01, E2: 0.01}

// Delta4 returns δ₄ of Eq. (60):
//
//	δ₄ = (ε₁+ε₂)·ln(µ/ν) / (ε₁+ε₂+(1−ε₁)(ln(µ/ν)+1)).
func Delta4(nu float64, eps Epsilons) (float64, error) {
	if err := validateNu(nu); err != nil {
		return 0, err
	}
	if err := eps.Validate(); err != nil {
		return 0, err
	}
	l := LogMuOverNu(nu)
	return (eps.E1 + eps.E2) * l / (eps.E1 + eps.E2 + (1-eps.E1)*(l+1)), nil
}

// Delta1 returns δ₁ of Eq. (61): (1+δ₄)(1 − ε₁ln(µ/ν)/(ln(µ/ν)+1)) − 1,
// with δ₄ from Eq. (60).
func Delta1(nu float64, eps Epsilons) (float64, error) {
	d4, err := Delta4(nu, eps)
	if err != nil {
		return 0, err
	}
	l := LogMuOverNu(nu)
	return (1+d4)*(1-eps.E1*l/(l+1)) - 1, nil
}

// Condition50MaxPN returns the right side of Inequality (50):
// pn ≤ ε₁·ln(µ/ν)/((ln(µ/ν)+1)·µ).
func Condition50MaxPN(nu float64, eps Epsilons) (float64, error) {
	if err := validateNu(nu); err != nil {
		return 0, err
	}
	if err := eps.Validate(); err != nil {
		return 0, err
	}
	l := LogMuOverNu(nu)
	return eps.E1 * l / ((l + 1) * (1 - nu)), nil
}

// Condition50Holds reports whether Inequality (50) of Theorem 3 holds.
func Condition50Holds(pr params.Params, eps Epsilons) (bool, error) {
	max, err := Condition50MaxPN(pr.Nu, eps)
	if err != nil {
		return false, err
	}
	return pr.P*float64(pr.N) <= max, nil
}

// Condition51MinC returns the right side of Inequality (51):
// [2µ/ln(µ/ν) + 1/Δ]·(1+ε₂)/(1−ε₁).
func Condition51MinC(nu float64, delta float64, eps Epsilons) (float64, error) {
	neat, err := NeatBoundC(nu)
	if err != nil {
		return 0, err
	}
	if err := eps.Validate(); err != nil {
		return 0, err
	}
	if delta < 1 {
		return 0, fmt.Errorf("bounds: Δ = %g must be ≥ 1", delta)
	}
	return (neat + 1/delta) * (1 + eps.E2) / (1 - eps.E1), nil
}

// Theorem2MinC returns the right side of Inequality (11), the full
// Theorem-2 condition on c:
//
//	c ≥ max{ (2µ/ln(µ/ν) + 1/Δ)·(1+ε₂)/(1−ε₁),
//	         (ln(µ/ν)+1)·µ/(ε₁·Δ·ln(µ/ν)) }.
func Theorem2MinC(nu float64, delta float64, eps Epsilons) (float64, error) {
	first, err := Condition51MinC(nu, delta, eps)
	if err != nil {
		return 0, err
	}
	l := LogMuOverNu(nu)
	second := (l + 1) * (1 - nu) / (eps.E1 * delta * l)
	return math.Max(first, second), nil
}

// Theorem2Holds reports whether the parameterization satisfies
// Inequality (11) with the given slack constants.
func Theorem2Holds(pr params.Params, eps Epsilons) (bool, error) {
	if err := pr.Validate(); err != nil {
		return false, fmt.Errorf("bounds: %w", err)
	}
	min, err := Theorem2MinC(pr.Nu, float64(pr.Delta), eps)
	if err != nil {
		return false, err
	}
	return pr.C() >= min, nil
}

// Theorem2NuMax returns the largest ν satisfying Inequality (11) at a
// given c, Δ and slack — the finite-Δ, explicit-ε counterpart of
// NeatBoundNuMax, solved numerically (Theorem2MinC is increasing in ν).
func Theorem2NuMax(c, delta float64, eps Epsilons) (float64, error) {
	if c <= 0 {
		return 0, fmt.Errorf("bounds: c = %g must be positive", c)
	}
	f := func(nu float64) float64 {
		m, err := Theorem2MinC(nu, delta, eps)
		if err != nil {
			return math.NaN()
		}
		return m - c
	}
	const lo, hi = 1e-12, 0.5 - 1e-12
	if f(lo) > 0 {
		return 0, nil // even a vanishing adversary is not certified at this c
	}
	root, err := solve.Bisect(f, lo, hi, solve.Options{TolX: 1e-14})
	if err != nil {
		return 0, fmt.Errorf("bounds: inverting Theorem 2 at c=%g: %w", c, err)
	}
	return root, nil
}

// Regime is a (δ₁, δ₂) pair from Remark 1, carving out a ν range
// (Inequality 12) on which Theorem 2's condition collapses to the neat
// form with an explicit multiplicative slack (Inequality 13).
type Regime struct {
	// D1 and D2 are the Remark-1 exponents δ₁ and δ₂ with δ₁ + δ₂ < 1.
	D1, D2 float64
}

// Validate checks 0 < δ₁, 0 < δ₂ and δ₁ + δ₂ < 1.
func (r Regime) Validate() error {
	if r.D1 <= 0 || r.D2 <= 0 || r.D1+r.D2 >= 1 {
		return fmt.Errorf("bounds: regime (δ₁=%g, δ₂=%g) needs positive exponents with δ₁+δ₂ < 1", r.D1, r.D2)
	}
	return nil
}

// PaperRegimes are the two worked regimes of Remark 1: (1/6, 1/2) giving
// 10⁻⁶³ ≤ ν ≤ ½−10⁻⁷, and (1/8, 2/3) giving 10⁻¹⁸ ≤ ν ≤ ½−10⁻⁹ at
// Δ = 10¹³.
var PaperRegimes = []Regime{
	{D1: 1.0 / 6, D2: 1.0 / 2},
	{D1: 1.0 / 8, D2: 2.0 / 3},
}

// NuRange returns the ν interval of Inequality (12) for delay bound delta:
//
//	1/(1+exp(Δ^{δ₁})) ≤ ν ≤ 1/(1+exp(1/(Δ^{δ₂}−1))).
func (r Regime) NuRange(delta float64) (lo, hi float64, err error) {
	if err := r.Validate(); err != nil {
		return 0, 0, err
	}
	if delta <= 1 {
		return 0, 0, fmt.Errorf("bounds: regime needs Δ > 1, got %g", delta)
	}
	// Lower end: exp(Δ^{δ₁}) overflows for large Δ; compute in logs.
	// 1/(1+e^x) = e^{−x}/(1+e^{−x}) ≈ e^{−x} for large x.
	x := math.Pow(delta, r.D1)
	if x > 700 {
		lo = math.Exp(-x)
	} else {
		lo = 1 / (1 + math.Exp(x))
	}
	y := 1 / (math.Pow(delta, r.D2) - 1)
	hi = 1 / (1 + math.Exp(y))
	return lo, hi, nil
}

// Slack returns the multiplicative factor of Inequality (13) on top of
// 2µ/ln(µ/ν):
//
//	(1+ε₂) · (1+Δ^{δ₁−1}) / (1−Δ^{δ₁+δ₂−1}).
func (r Regime) Slack(delta, eps2 float64) (float64, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	if delta <= 1 {
		return 0, fmt.Errorf("bounds: regime needs Δ > 1, got %g", delta)
	}
	if eps2 <= 0 {
		return 0, fmt.Errorf("bounds: ε₂ = %g must be positive", eps2)
	}
	den := 1 - math.Pow(delta, r.D1+r.D2-1)
	if den <= 0 {
		return 0, fmt.Errorf("bounds: Δ = %g too small for regime (δ₁+δ₂−1 = %g)", delta, r.D1+r.D2-1)
	}
	return (1 + eps2) * (1 + math.Pow(delta, r.D1-1)) / den, nil
}

// RegimeMinC returns the Remark-1 form of the bound at a given ν: the neat
// threshold times the regime slack (Inequality 13). ν must lie inside the
// regime's NuRange for the statement to apply; callers can check with
// NuRange.
func (r Regime) RegimeMinC(nu, delta, eps2 float64) (float64, error) {
	neat, err := NeatBoundC(nu)
	if err != nil {
		return 0, err
	}
	slack, err := r.Slack(delta, eps2)
	if err != nil {
		return 0, err
	}
	return neat * slack, nil
}

package bounds

import (
	"fmt"
	"math"
)

// This file quantifies the "overwhelming probability in T" part of
// Definition 1 with the classic biased-random-walk race analysis that
// underlies all Nakamoto-style consistency results: an adversary with
// power fraction ν racing an honest chain with power µ = 1−ν behaves like
// a random walk with down-step probability µ/(µ+ν) per block. The
// catch-up probability from z blocks behind is (ν/µ)^z, so fork-depth
// tails — and hence Definition-1 violation probabilities — decay
// exponentially in T with base ν/µ. The simulator's empirical fork-depth
// distribution is validated against these forms (experiment S7).

// CatchUpProbability returns the probability that an adversary with
// fraction nu, currently z blocks behind the honest chain, ever catches
// up (Nakamoto's gambler's-ruin bound): (ν/µ)^z for ν < µ, 1 otherwise.
func CatchUpProbability(nu float64, z int) (float64, error) {
	if err := validateNu(nu); err != nil {
		return 0, err
	}
	if z < 0 {
		return 0, fmt.Errorf("bounds: deficit z = %d must be ≥ 0", z)
	}
	if z == 0 {
		return 1, nil
	}
	return math.Pow(nu/(1-nu), float64(z)), nil
}

// ForkDepthTailBase returns ν/µ, the per-block decay base of the
// fork-depth tail: P[fork of depth ≥ T survives] ≲ (ν/µ)^T.
func ForkDepthTailBase(nu float64) (float64, error) {
	if err := validateNu(nu); err != nil {
		return 0, err
	}
	return nu / (1 - nu), nil
}

// ViolationTailBound returns the (ν/µ)^T estimate of the probability that
// a private-mining adversary sustains a fork of depth at least tee — the
// exponential-in-T failure probability Definition 1 allows.
func ViolationTailBound(nu float64, tee int) (float64, error) {
	base, err := ForkDepthTailBase(nu)
	if err != nil {
		return 0, err
	}
	if tee < 0 {
		return 0, fmt.Errorf("bounds: T = %d must be ≥ 0", tee)
	}
	return math.Pow(base, float64(tee)), nil
}

// ConfirmationsForRisk returns the smallest chop parameter T such that
// the (ν/µ)^T tail falls below risk — the "how many confirmations do I
// need" question answered by the race analysis.
func ConfirmationsForRisk(nu, risk float64) (int, error) {
	base, err := ForkDepthTailBase(nu)
	if err != nil {
		return 0, err
	}
	if risk <= 0 || risk >= 1 {
		return 0, fmt.Errorf("bounds: risk = %g outside (0, 1)", risk)
	}
	t := math.Log(risk) / math.Log(base)
	if t < 1 {
		return 1, nil
	}
	return int(math.Ceil(t)), nil
}

// DoubleSpendProbability returns the Nakamoto/Rosenfeld estimate of a
// successful depth-z double spend: the adversary mines privately while
// the honest chain accumulates z confirmations, then needs to catch up
// from its (possibly negative) deficit:
//
//	P = 1 − Σ_{k=0}^{z} P[adversary has k when honest has z]·(1 − (ν/µ)^{z−k})
//
// with the convention that k ≥ z wins outright.
func DoubleSpendProbability(nu float64, z int) (float64, error) {
	if err := validateNu(nu); err != nil {
		return 0, err
	}
	if z < 0 {
		return 0, fmt.Errorf("bounds: confirmations z = %d must be ≥ 0", z)
	}
	if z == 0 {
		return 1, nil
	}
	mu := 1 - nu
	ratio := nu / mu
	// While the honest chain mines its z-th block, the adversary's count
	// follows a negative binomial: P[k] = C(k+z−1, k)·µ^z·ν^k.
	p := 0.0
	for k := 0; k < z; k++ {
		pk := math.Exp(logChoose(k+z-1, k) + float64(z)*math.Log(mu) + float64(k)*math.Log(nu))
		p += pk * math.Pow(ratio, float64(z-k))
	}
	// Tail k ≥ z: adversary already ahead or tied ⇒ success (ties resolve
	// to the attacker in the pessimistic convention).
	tail := 1.0
	for k := 0; k < z; k++ {
		tail -= math.Exp(logChoose(k+z-1, k) + float64(z)*math.Log(mu) + float64(k)*math.Log(nu))
	}
	if tail < 0 {
		tail = 0
	}
	return math.Min(1, p+tail), nil
}

// logChoose is ln C(n, k) via lgamma (duplicated from dist to keep bounds
// dependency-free of the sampling stack).
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	a, _ := math.Lgamma(float64(n) + 1)
	b, _ := math.Lgamma(float64(k) + 1)
	c, _ := math.Lgamma(float64(n-k) + 1)
	return a - b - c
}

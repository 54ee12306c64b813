// Package dist provides exact discrete-distribution samplers driven by
// the repo's deterministic rng.Stream. Its centerpiece is the binomial
// sampler behind the mining substrate: one binom(n, p) draw per round
// replaces n independent Bernoulli queries, which is what makes
// simulating Nakamoto's protocol at n = 10⁵ players tractable (the
// per-round mining cost becomes O(1) instead of O(n)).
//
// Both sampling paths are exact — they produce the binomial law itself,
// not an approximation — so the statistical analysis built on top (the
// H/H₁/N round classification, Eq. 27's A(t₀, t₁) process) is untouched
// by the algorithmic shortcut. TestBinomialMatchesBernoulliLoop
// cross-validates against the naive per-trial loop.
package dist

import (
	"math"

	"neatbound/internal/rng"
)

// btrsThreshold is the n·p value above which Sample switches from CDF
// inversion (O(n·p) expected iterations) to the BTRS rejection sampler
// (O(1) expected iterations). 10 is the validity floor of the BTRS
// constants in Hörmann's derivation.
const btrsThreshold = 10

// Binomial is the distribution of successes in N independent trials of
// probability P. The zero value samples the constant 0.
type Binomial struct {
	// N is the number of trials.
	N int
	// P is the per-trial success probability. Sample clamps it to
	// [0, 1]; a NaN P samples the constant 0.
	P float64
}

// Mean returns N·P.
func (b Binomial) Mean() float64 { return float64(b.N) * b.P }

// Variance returns N·P·(1−P).
func (b Binomial) Variance() float64 { return float64(b.N) * b.P * (1 - b.P) }

// PZero returns P(X = 0) = (1−P)^N — computed by the exact expression the
// inversion sampler compares its uniform against, so a uniform u drawn
// from the same stream yields Sample == 0 iff u ≤ PZero whenever
// InversionEligible reports true. This is the identity the engine's
// fast-forward path is built on.
func (b Binomial) PZero() float64 {
	if b.N <= 0 || !(b.P > 0) {
		return 1
	}
	if b.P >= 1 {
		return 0
	}
	return math.Pow(1-b.P, float64(b.N))
}

// InversionEligible reports whether Sample would take the CDF-inversion
// path, which consumes exactly one uniform per draw regardless of the
// outcome. Only in this regime are PZero and SampleWith draw-compatible
// with Sample.
func (b Binomial) InversionEligible() bool {
	return b.N > 0 && b.P > 0 && b.P <= 0.5 && float64(b.N)*b.P < btrsThreshold
}

// SampleWith completes an inversion draw whose single uniform u has
// already been consumed from the stream: for any u, SampleWith(u) equals
// what Sample would have returned had it drawn that same u. It panics
// unless InversionEligible — outside that regime Sample's draw pattern
// differs and no such equivalence exists.
func (b Binomial) SampleWith(u float64) int {
	return (*Sampler)(nil).SampleWith(u, b.N, b.P) // nil: no cached mass
}

// Sample draws one binom(N, P) variate from r. The draw is exact for all
// parameterizations: small means use CDF inversion, large means use the
// BTRS transformed-rejection sampler, and p > ½ is reflected through
// n − binom(n, 1−p). Expected work is O(min(n·p, 1) + 1) — never O(n).
func (b Binomial) Sample(r *rng.Stream) int { return b.sample(r, nil) }

// sample is Sample with an optional zero-mass cache for the inversion
// path; the cache changes no draw.
func (b Binomial) sample(r *rng.Stream, cache *Sampler) int {
	n, p := b.N, b.P
	// The !(p > 0) form also rejects NaN, which would otherwise slip
	// past every threshold below and spin the rejection sampler forever.
	if n <= 0 || !(p > 0) {
		return 0
	}
	if p >= 1 {
		return n
	}
	if p > 0.5 {
		return n - Binomial{N: n, P: 1 - p}.sample(r, cache)
	}
	if float64(n)*p < btrsThreshold {
		return inversionFrom(r.Float64(), n, p, cache.zeroMass(n, p))
	}
	return btrs(r, n, p)
}

// Sampler draws binomials whose parameters rarely change, as a round
// loop's mining draws do. Sample(r, n, p) consumes and returns exactly
// what Binomial{N: n, P: p}.Sample(r) would, but keeps the inversion
// walk's starting mass (1−p)^n from the previous draw, recomputing it
// only when n or p changes. The zero value is ready to use; a Sampler
// is single-owner.
type Sampler struct {
	n    int
	p    float64
	mass float64 // math.Pow(1−p, n) for the cached (n, p); unset while n == 0
}

// Sample draws one binom(n, p) variate from r, bit-identical to
// Binomial{N: n, P: p}.Sample(r).
func (s *Sampler) Sample(r *rng.Stream, n int, p float64) int {
	return Binomial{N: n, P: p}.sample(r, s)
}

// SampleWith completes an inversion draw whose single uniform u has
// already been consumed, returning exactly Binomial{N: n, P: p}.SampleWith(u)
// but starting the walk from the cached (1−p)^n. It panics unless that
// Binomial is InversionEligible.
func (s *Sampler) SampleWith(u float64, n int, p float64) int {
	if !(Binomial{N: n, P: p}).InversionEligible() {
		panic("dist: SampleWith on a non-inversion-eligible Binomial")
	}
	return inversionFrom(u, n, p, s.zeroMass(n, p))
}

// zeroMass returns (1−p)^n — the same math.Pow expression as PZero —
// from the cache when it holds (n, p); a nil Sampler computes it afresh.
func (s *Sampler) zeroMass(n int, p float64) float64 {
	if s == nil {
		return math.Pow(1-p, float64(n))
	}
	if s.n != n || s.p != p {
		s.n, s.p, s.mass = n, p, math.Pow(1-p, float64(n))
	}
	return s.mass
}

// inversionFrom walks the binomial CDF from k = 0 with the uniform u
// already drawn and f = (1−p)^n, the mass at k = 0: u is compared
// against the running mass, with the pmf updated by the recurrence
// f(k+1) = f(k)·(n−k)/(k+1)·(p/q). Valid for n·p small enough that q^n
// does not underflow (n·p < 10 ⇒ q^n ≥ e^{-10}·(1+o(1))). It is the
// shared core of Sample's small-mean path and SampleWith.
func inversionFrom(u float64, n int, p, f float64) int {
	s := p / (1 - p)
	k := 0
	for u > f {
		u -= f
		k++
		if k > n {
			// Float round-off exhausted the mass past k = n; clamp.
			return n
		}
		f *= s * float64(n-k+1) / float64(k)
	}
	return k
}

// btrs is Hörmann's BTRS sampler (transformed rejection with squeeze,
// "The Generation of Binomial Random Variates", JSCS 1993): a candidate
// k = ⌊(2a/us + b)·u + c⌋ from a transformed uniform is accepted either
// by the cheap squeeze (step 4) or by the exact log-pmf comparison
// (step 7), so the output law is exactly binom(n, p). Requires p ≤ ½ and
// n·p ≥ 10. Expected uniforms per draw is < 3 for all valid (n, p).
func btrs(r *rng.Stream, n int, p float64) int {
	q := 1 - p
	fn := float64(n)
	spq := math.Sqrt(fn * p * q)
	bb := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*bb + 0.01*p
	c := fn*p + 0.5
	vr := 0.92 - 4.2/bb

	// Constants of the exact test, hoisted out of the rejection loop.
	alpha := (2.83 + 5.1/bb) * spq
	lpq := math.Log(p / q)
	m := math.Floor((fn + 1) * p)
	hm, _ := math.Lgamma(m + 1)
	hnm, _ := math.Lgamma(fn - m + 1)
	h := hm + hnm

	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+bb)*u + c)
		if k < 0 || k > fn {
			continue
		}
		// Squeeze: accepts ~86% of candidates without logs.
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		lk, _ := math.Lgamma(k + 1)
		lnk, _ := math.Lgamma(fn - k + 1)
		if math.Log(v*alpha/(a/(us*us)+bb)) <= h-lk-lnk+(k-m)*lpq {
			return int(k)
		}
	}
}

// Geometric is the distribution of the number of consecutive failures
// before the first success in a sequence of independent trials, where a
// trial drawing uniform u fails iff u ≤ Q. The ≤ comparison (not <)
// deliberately mirrors the inversion sampler's zero test: a trial here
// consumes exactly the uniform a Binomial{N, P}.Sample call would, and
// fails exactly when that call would return 0, provided
// Q = Binomial.PZero() and the binomial is InversionEligible. That makes
// Geometric runs draw-for-draw interchangeable with runs of per-round
// binomial draws — the equivalence the engine's fast-forward path pins.
type Geometric struct {
	// Q is the per-trial failure probability. Sampling requires Q < 1
	// (a Q ≥ 1 trial never succeeds).
	Q float64
}

// Fails reports whether a trial that drew uniform u fails — the exact
// comparison each Sample trial performs.
func (g Geometric) Fails(u float64) bool { return u <= g.Q }

// Sample draws trials from r until one succeeds and returns the number
// of failures before it, consuming exactly failures+1 uniforms. It
// panics if Q ≥ 1.
func (g Geometric) Sample(r *rng.Stream) int {
	if !(g.Q < 1) {
		panic("dist: Geometric.Sample with Q >= 1 never terminates")
	}
	k := 0
	for g.Fails(r.Float64()) {
		k++
	}
	return k
}

// BernoulliCount is the naive O(n) reference: n independent Bernoulli(p)
// draws. It exists for cross-validation tests and ablation benchmarks;
// the simulation hot path must never call it.
func BernoulliCount(r *rng.Stream, n int, p float64) int {
	k := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			k++
		}
	}
	return k
}

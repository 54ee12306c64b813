package bounds

import (
	"math"
	"testing"
	"testing/quick"

	"neatbound/internal/params"
	"neatbound/internal/solve"
)

func TestNeatBoundCKnownValues(t *testing.T) {
	// ν = 0.25: 2·0.75/ln(3).
	got, err := NeatBoundC(0.25)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.5 / math.Log(3)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("NeatBoundC(0.25) = %.15g, want %.15g", got, want)
	}
	// ν = 1/3: µ/ν = 2, bound = (4/3)/ln 2.
	got, err = NeatBoundC(1.0 / 3)
	if err != nil {
		t.Fatal(err)
	}
	want = (4.0 / 3) / math.Ln2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("NeatBoundC(1/3) = %.15g, want %.15g", got, want)
	}
}

func TestNeatBoundCValidation(t *testing.T) {
	for _, nu := range []float64{0, 0.5, -0.1, 0.7} {
		if _, err := NeatBoundC(nu); err == nil {
			t.Errorf("ν = %g accepted", nu)
		}
	}
}

func TestNeatBoundCMonotoneIncreasing(t *testing.T) {
	prev := 0.0
	for _, nu := range solve.LinSpace(0.01, 0.49, 49) {
		b, err := NeatBoundC(nu)
		if err != nil {
			t.Fatal(err)
		}
		if b <= prev {
			t.Fatalf("bound not increasing at ν=%g: %g ≤ %g", nu, b, prev)
		}
		prev = b
	}
}

func TestNeatBoundNuMaxRoundTrip(t *testing.T) {
	f := func(nuRaw uint16) bool {
		nu := 0.01 + 0.47*float64(nuRaw)/65535
		c, err := NeatBoundC(nu)
		if err != nil {
			return false
		}
		back, err := NeatBoundNuMax(c)
		if err != nil {
			return false
		}
		return math.Abs(back-nu) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNeatBoundNuMaxValidation(t *testing.T) {
	if _, err := NeatBoundNuMax(0); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := NeatBoundNuMax(-1); err == nil {
		t.Error("c<0 accepted")
	}
}

func TestPSSConsistencyCurve(t *testing.T) {
	// c ≤ 2 tolerates nothing.
	for _, c := range []float64{0.1, 1, 2} {
		got, err := PSSConsistencyNuMax(c)
		if err != nil || got != 0 {
			t.Errorf("PSSConsistencyNuMax(%g) = %g, %v; want 0", c, got, err)
		}
	}
	// c = 3: ½(2−3+√3).
	got, err := PSSConsistencyNuMax(3)
	if err != nil {
		t.Fatal(err)
	}
	want := (2 - 3 + math.Sqrt(3)) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("PSSConsistencyNuMax(3) = %.15g, want %.15g", got, want)
	}
	// Inverse relation: at ν = νmax(c), PSSConsistencyMinC(ν) = c.
	for _, c := range []float64{2.5, 4, 10, 50} {
		nu, err := PSSConsistencyNuMax(c)
		if err != nil {
			t.Fatal(err)
		}
		back, err := PSSConsistencyMinC(nu)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(back-c)/c > 1e-9 {
			t.Errorf("c=%g: MinC(NuMax(c)) = %g", c, back)
		}
	}
}

func TestPSSAttackCurve(t *testing.T) {
	// c = 1: (3−√5)/2.
	got, err := PSSAttackNuMin(1)
	if err != nil {
		t.Fatal(err)
	}
	want := (3 - math.Sqrt(5)) / 2
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("PSSAttackNuMin(1) = %.15g, want %.15g", got, want)
	}
	// Defining identity: at ν = νmin(c), 1/c = 1/ν − 1/(1−ν).
	for _, c := range []float64{0.3, 1, 5, 40} {
		nu, err := PSSAttackNuMin(c)
		if err != nil {
			t.Fatal(err)
		}
		lhs := 1 / c
		rhs := 1/nu - 1/(1-nu)
		if math.Abs(lhs-rhs)/lhs > 1e-9 {
			t.Errorf("c=%g: attack identity violated: %g vs %g", c, lhs, rhs)
		}
	}
	if _, err := PSSAttackNuMin(0); err == nil {
		t.Error("c=0 accepted")
	}
}

// TestFigure1Ordering reproduces the qualitative content of Figure 1: the
// neat bound (magenta) strictly dominates the PSS consistency curve (blue)
// and stays strictly below the PSS attack curve (red) across the plotted
// range c ∈ [0.1, 100].
func TestFigure1Ordering(t *testing.T) {
	for _, c := range solve.LogSpace(0.1, 100, 200) {
		neat, err := NeatBoundNuMax(c)
		if err != nil {
			t.Fatal(err)
		}
		pss, err := PSSConsistencyNuMax(c)
		if err != nil {
			t.Fatal(err)
		}
		attack, err := PSSAttackNuMin(c)
		if err != nil {
			t.Fatal(err)
		}
		if neat <= pss {
			t.Errorf("c=%g: neat νmax %g not above PSS %g", c, neat, pss)
		}
		if neat >= attack {
			t.Errorf("c=%g: neat νmax %g not below attack %g", c, neat, attack)
		}
	}
}

func TestAllCurvesApproachHalf(t *testing.T) {
	// As c → ∞ every curve tends to ½ (the 51% boundary).
	for _, f := range []func(float64) (float64, error){
		NeatBoundNuMax, PSSConsistencyNuMax, PSSAttackNuMin,
	} {
		v, err := f(1e6)
		if err != nil {
			t.Fatal(err)
		}
		if v < 0.49 || v >= 0.5 {
			t.Errorf("curve at c=1e6: %g, want ∈ [0.49, 0.5)", v)
		}
	}
}

func TestTheorem1HoldsDirectComputation(t *testing.T) {
	pr := params.Params{N: 1000, P: 1e-5, Delta: 10, Nu: 0.2}
	lhs := math.Pow(pr.AlphaBar(), 2*float64(pr.Delta)) * pr.Alpha1()
	rhs := pr.P * pr.AdversaryN()
	// δ₁ slightly below the exact ratio − 1 must hold; slightly above must
	// fail.
	ratio := lhs / rhs
	if ratio <= 1 {
		t.Fatalf("test parameterization too weak: ratio %g", ratio)
	}
	ok, err := Theorem1Holds(pr, (ratio-1)*0.999)
	if err != nil || !ok {
		t.Errorf("just-below δ₁ rejected: %v %v", ok, err)
	}
	ok, err = Theorem1Holds(pr, (ratio-1)*1.001)
	if err != nil || ok {
		t.Errorf("just-above δ₁ accepted: %v %v", ok, err)
	}
}

func TestTheorem1LogSpaceAtPaperScale(t *testing.T) {
	// Δ = 10¹³ with c = 2: ᾱ^{2Δ} underflows any direct computation, but
	// the log-space check must return a finite, sensible verdict.
	pr := params.MustFromC(100000, int(1e13), 0.2, 2.0)
	if lhs := Theorem1LogLHS(pr); math.IsNaN(lhs) || math.IsInf(lhs, 0) {
		t.Fatalf("log LHS = %g at paper scale", lhs)
	}
	// c = 2 exceeds the neat bound for ν = 0.2 (≈1.154): Theorem 1 should
	// admit a positive δ₁.
	ok, err := Theorem1Holds(pr, 0.01)
	if err != nil || !ok {
		t.Errorf("Theorem 1 at c=2, ν=0.2, δ₁=0.01: %v %v", ok, err)
	}
	// And at c far below the bound it must fail, even for a tiny δ₁.
	prBad := params.MustFromC(100000, int(1e13), 0.2, 0.2)
	ok, err = Theorem1Holds(prBad, 1e-9)
	if err != nil || ok {
		t.Errorf("Theorem 1 at c=0.2, ν=0.2, δ₁=1e-9: %v %v", ok, err)
	}
}

func TestTheorem1Validation(t *testing.T) {
	pr := params.Params{N: 1000, P: 1e-5, Delta: 10, Nu: 0.2}
	if _, err := Theorem1Holds(pr, 0); err == nil {
		t.Error("δ₁=0 accepted")
	}
	if _, err := Theorem1Holds(params.Params{}, 0.1); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestEpsilonsValidate(t *testing.T) {
	for _, e := range []Epsilons{{0, 0.1}, {1, 0.1}, {0.5, 0}, {-0.1, 0.1}, {0.5, -1}} {
		if err := e.Validate(); err == nil {
			t.Errorf("Epsilons %+v accepted", e)
		}
	}
	if err := DefaultEpsilons.Validate(); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
}

func TestDelta4Delta1PositiveAndBounded(t *testing.T) {
	f := func(nuRaw, e1Raw, e2Raw uint16) bool {
		nu := 0.01 + 0.47*float64(nuRaw)/65535
		eps := Epsilons{
			E1: 0.01 + 0.97*float64(e1Raw)/65535,
			E2: 0.001 + 2*float64(e2Raw)/65535,
		}
		d4, err := Delta4(nu, eps)
		if err != nil {
			return false
		}
		d1, err := Delta1(nu, eps)
		if err != nil {
			return false
		}
		l := LogMuOverNu(nu)
		// Proof requirements: δ₄ > 0 (Eq. 62 side), δ₄ < ln(µ/ν)
		// (Remark 5), δ₁ > 0 (Eq. 63), and the Eq. 68 lower bound.
		return d4 > 0 && d4 < l && d1 > 0 &&
			d4 > eps.E1*l/(1+(1-eps.E1)*l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCondition50ImpliedByTheorem2MinC(t *testing.T) {
	// Choosing c ≥ Theorem2MinC forces pn = 1/(cΔ) under the (50) cap —
	// the second branch of Eq. (11) encodes exactly that.
	eps := Epsilons{E1: 0.1, E2: 0.05}
	for _, nu := range []float64{0.05, 0.2, 0.35, 0.49} {
		for _, delta := range []float64{4, 64, 1e6, 1e13} {
			minC, err := Theorem2MinC(nu, delta, eps)
			if err != nil {
				t.Fatal(err)
			}
			pn := 1 / (minC * delta)
			cap50, err := Condition50MaxPN(nu, eps)
			if err != nil {
				t.Fatal(err)
			}
			if pn > cap50*(1+1e-12) {
				t.Errorf("ν=%g Δ=%g: pn=%g exceeds (50) cap %g at c=MinC", nu, delta, pn, cap50)
			}
		}
	}
}

func TestTheorem2MinCApproachesNeatBound(t *testing.T) {
	// With vanishing slack and huge Δ, Inequality (11) collapses to the
	// neat bound (the paper's headline message).
	eps := Epsilons{E1: 1e-4, E2: 1e-4}
	for _, nu := range []float64{0.1, 0.25, 0.4} {
		neat, err := NeatBoundC(nu)
		if err != nil {
			t.Fatal(err)
		}
		minC, err := Theorem2MinC(nu, 1e13, eps)
		if err != nil {
			t.Fatal(err)
		}
		if minC < neat {
			t.Errorf("ν=%g: Theorem2MinC %g below neat bound %g", nu, minC, neat)
		}
		if minC > neat*1.01 {
			t.Errorf("ν=%g: Theorem2MinC %g more than 1%% above neat bound %g", nu, minC, neat)
		}
	}
}

func TestTheorem2HoldsEndToEnd(t *testing.T) {
	eps := Epsilons{E1: 0.05, E2: 0.05}
	nu := 0.3
	delta := 1000
	n := 100000
	minC, err := Theorem2MinC(nu, float64(delta), eps)
	if err != nil {
		t.Fatal(err)
	}
	prOK := params.MustFromC(n, delta, nu, minC*1.001)
	ok, err := Theorem2Holds(prOK, eps)
	if err != nil || !ok {
		t.Errorf("c just above MinC rejected: %v %v", ok, err)
	}
	prBad := params.MustFromC(n, delta, nu, minC*0.999)
	ok, err = Theorem2Holds(prBad, eps)
	if err != nil || ok {
		t.Errorf("c just below MinC accepted: %v %v", ok, err)
	}
}

func TestTheorem2NuMaxInverse(t *testing.T) {
	eps := Epsilons{E1: 0.05, E2: 0.05}
	delta := 1e6
	for _, nu := range []float64{0.1, 0.25, 0.4} {
		minC, err := Theorem2MinC(nu, delta, eps)
		if err != nil {
			t.Fatal(err)
		}
		back, err := Theorem2NuMax(minC, delta, eps)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(back-nu) > 1e-9 {
			t.Errorf("round trip ν=%g → c=%g → %g", nu, minC, back)
		}
	}
	// Tiny c certifies nothing.
	numax, err := Theorem2NuMax(1e-6, delta, eps)
	if err != nil || numax != 0 {
		t.Errorf("Theorem2NuMax(1e-6) = %g, %v", numax, err)
	}
}

func TestRegimeValidate(t *testing.T) {
	for _, r := range []Regime{{0, 0.5}, {0.5, 0}, {0.6, 0.6}, {-0.1, 0.5}} {
		if err := r.Validate(); err == nil {
			t.Errorf("regime %+v accepted", r)
		}
	}
	for _, r := range PaperRegimes {
		if err := r.Validate(); err != nil {
			t.Errorf("paper regime %+v rejected: %v", r, err)
		}
	}
}

// TestRemark1RegimeRanges reproduces the numeric claims of Remark 1 at
// Δ = 10¹³: regime (1/6, 1/2) covers ν from ≈10⁻⁶³·⁸ to ½−10⁻⁷·¹, and
// regime (1/8, 2/3) from ≈10⁻¹⁸·³ to ½−10⁻⁹·².
func TestRemark1RegimeRanges(t *testing.T) {
	const delta = 1e13
	r1 := PaperRegimes[0]
	lo, hi, err := r1.NuRange(delta)
	if err != nil {
		t.Fatal(err)
	}
	if lg := math.Log10(lo); lg > -63 || lg < -65 {
		t.Errorf("regime 1 lower bound 10^%g, paper says ≈10⁻⁶³", lg)
	}
	if gap := 0.5 - hi; gap > 1e-7*1.2 || gap < 1e-8 {
		t.Errorf("regime 1 upper gap %g, paper says ≈10⁻⁷", gap)
	}
	r2 := PaperRegimes[1]
	lo2, hi2, err := r2.NuRange(delta)
	if err != nil {
		t.Fatal(err)
	}
	if lg := math.Log10(lo2); lg > -18 || lg < -19.5 {
		t.Errorf("regime 2 lower bound 10^%g, paper says ≈10⁻¹⁸", lg)
	}
	if gap := 0.5 - hi2; gap > 1e-9*1.5 || gap < 1e-10 {
		t.Errorf("regime 2 upper gap %g, paper says ≈10⁻⁹", gap)
	}
}

// TestRemark1Slacks reproduces Inequalities (15) and (17): the
// multiplicative slack on 2µ/ln(µ/ν) is ≈1+5×10⁻⁵ for regime 1 and
// ≈1+2×10⁻³ for regime 2 (beyond the 1+ε₂ factor).
func TestRemark1Slacks(t *testing.T) {
	const delta = 1e13
	const eps2 = 1e-9 // isolate the structural factor
	s1, err := PaperRegimes[0].Slack(delta, eps2)
	if err != nil {
		t.Fatal(err)
	}
	if s1-1 > 6e-5 || s1-1 < 1e-5 {
		t.Errorf("regime 1 slack − 1 = %g, paper says ≈5×10⁻⁵", s1-1)
	}
	s2, err := PaperRegimes[1].Slack(delta, eps2)
	if err != nil {
		t.Fatal(err)
	}
	if s2-1 > 3e-3 || s2-1 < 1e-3 {
		t.Errorf("regime 2 slack − 1 = %g, paper says ≈2×10⁻³", s2-1)
	}
}

func TestRegimeMinC(t *testing.T) {
	nu := 0.3
	neat, err := NeatBoundC(nu)
	if err != nil {
		t.Fatal(err)
	}
	got, err := PaperRegimes[0].RegimeMinC(nu, 1e13, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if got <= neat {
		t.Errorf("regime min c %g not above neat %g", got, neat)
	}
	if got > neat*1.02 {
		t.Errorf("regime min c %g more than 2%% above neat %g — slack not 'slight'", got, neat)
	}
}

func TestRegimeErrors(t *testing.T) {
	r := PaperRegimes[0]
	if _, _, err := r.NuRange(1); err == nil {
		t.Error("Δ=1 accepted for range")
	}
	if _, err := r.Slack(1, 0.1); err == nil {
		t.Error("Δ=1 accepted for slack")
	}
	if _, err := r.Slack(1e13, 0); err == nil {
		t.Error("ε₂=0 accepted")
	}
}

func BenchmarkNeatBoundNuMax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NeatBoundNuMax(2.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNuMaxSolvers(b *testing.B) {
	target := 2.5
	f := func(nu float64) float64 {
		v, _ := NeatBoundC(nu)
		return v - target
	}
	b.Run("bisect", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solve.Bisect(f, 1e-12, 0.5-1e-12, solve.Options{TolX: 1e-14}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("brent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solve.Brent(f, 1e-12, 0.5-1e-12, solve.Options{TolX: 1e-14}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

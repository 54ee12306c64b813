package markov

import (
	"math"
	"testing"

	"neatbound/internal/rng"
)

func newBoundForTest(t *testing.T, alpha float64, delta int) (*SuffixChain, *ConcentrationBound) {
	t.Helper()
	s, err := NewSuffixChain(alpha, delta)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewConcentrationBound(s.Chain(), s.StateLongN(), 100000)
	if err != nil {
		t.Fatal(err)
	}
	return s, b
}

func TestNewConcentrationBoundValidation(t *testing.T) {
	s, err := NewSuffixChain(0.3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewConcentrationBound(s.Chain(), -1, 1000); err == nil {
		t.Error("negative target accepted")
	}
	if _, err := NewConcentrationBound(s.Chain(), 99, 1000); err == nil {
		t.Error("out-of-range target accepted")
	}
	// Mixing budget too small.
	slow, err := NewSuffixChain(0.001, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewConcentrationBound(slow.Chain(), 0, 1); err == nil {
		t.Error("exhausted mixing budget did not error")
	}
}

func TestBoundIngredients(t *testing.T) {
	s, b := newBoundForTest(t, 0.3, 3)
	if b.MixingTime < 1 {
		t.Errorf("mixing time %d", b.MixingTime)
	}
	pi := s.AnalyticStationary()
	if math.Abs(b.PiTarget-pi[s.StateLongN()]) > 1e-9 {
		t.Errorf("π_target = %g, analytic %g", b.PiTarget, pi[s.StateLongN()])
	}
	// Proposition-1 value: 1/√min π.
	if math.Abs(b.PiNormBound-1/math.Sqrt(s.MinStationary())) > 1e-6*b.PiNormBound {
		t.Errorf("π-norm bound %g, want %g", b.PiNormBound, 1/math.Sqrt(s.MinStationary()))
	}
}

func TestTailBoundsShrinkWithSteps(t *testing.T) {
	_, b := newBoundForTest(t, 0.3, 3)
	prev := 1.1
	for _, steps := range []int{100, 1000, 10000, 100000} {
		v := b.LowerTail(steps, 0.5)
		if v > prev {
			t.Fatalf("lower tail grew with steps: %g after %g", v, prev)
		}
		prev = v
	}
	if prev >= 1e-3 {
		t.Errorf("bound %g not small after 1e5 steps", prev)
	}
}

func TestTailBoundEdgeCases(t *testing.T) {
	_, b := newBoundForTest(t, 0.3, 2)
	if b.LowerTail(1000, 0) != 1 || b.LowerTail(1000, -0.5) != 1 {
		t.Error("non-positive δ should give trivial bound")
	}
	if v := b.LowerTail(10, 0.1); v > 1 {
		t.Errorf("bound %g exceeds 1", v)
	}
	// δ > 1 is clamped for the lower tail (a count cannot be negative).
	if v1, v2 := b.LowerTail(5000, 1), b.LowerTail(5000, 2); v1 != v2 {
		t.Errorf("δ clamping: %g vs %g", v1, v2)
	}
}

// TestBoundDominatesEmpirical is the Section V-B validation: the
// Inequality-(47) bound must upper-bound the empirically observed
// deviation probability (with the lead constant 1, the bound is the
// optimistic form — the test checks the stronger statement, which holds
// comfortably because the 72τ denominator is loose).
func TestBoundDominatesEmpirical(t *testing.T) {
	s, b := newBoundForTest(t, 0.3, 2)
	const steps, trials = 2000, 300
	const delta = 0.5
	emp, err := EmpiricalVisitDeviation(s.Chain(), s.StateLongN(), 0, steps, trials, delta, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	bound := b.LowerTail(steps, delta)
	if emp > bound {
		t.Errorf("empirical deviation %g exceeds Inequality-(47) bound %g", emp, bound)
	}
}

func TestEmpiricalVisitDeviationConvergesToZero(t *testing.T) {
	// With long walks the deviation event becomes rare.
	s, _ := newBoundForTest(t, 0.3, 2)
	emp, err := EmpiricalVisitDeviation(s.Chain(), s.StateLongN(), 0, 20000, 100, 0.3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if emp > 0.02 {
		t.Errorf("deviation probability %g still large for 20k-step walks", emp)
	}
}

func TestEmpiricalVisitDeviationValidation(t *testing.T) {
	s, _ := newBoundForTest(t, 0.3, 2)
	if _, err := EmpiricalVisitDeviation(s.Chain(), 0, 0, 100, 0, 0.5, rng.New(1)); err == nil {
		t.Error("0 trials accepted")
	}
	if _, err := EmpiricalVisitDeviation(s.Chain(), 0, 99, 100, 1, 0.5, rng.New(1)); err == nil {
		t.Error("bad start state accepted")
	}
}

func TestMixingTimeGrowsWithDelta(t *testing.T) {
	// Larger Δ (with α·Δ fixed small) slows mixing: τ should not shrink.
	_, b2 := newBoundForTest(t, 0.2, 2)
	_, b8 := newBoundForTest(t, 0.2, 8)
	if b8.MixingTime < b2.MixingTime {
		t.Errorf("τ(Δ=8)=%d < τ(Δ=2)=%d", b8.MixingTime, b2.MixingTime)
	}
}

func BenchmarkConcentrationBound(b *testing.B) {
	s, err := NewSuffixChain(0.2, 6)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := NewConcentrationBound(s.Chain(), s.StateLongN(), 100000); err != nil {
			b.Fatal(err)
		}
	}
}

package markov

import (
	"math"
	"testing"

	"neatbound/internal/rng"
)

func mustConcat(t *testing.T, alphaBar, alpha1 float64, delta int) *ConcatChain {
	t.Helper()
	c, err := NewConcatChain(alphaBar, alpha1, delta)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewConcatChainValidation(t *testing.T) {
	if _, err := NewConcatChain(0, 0.1, 2); err == nil {
		t.Error("ᾱ=0 accepted")
	}
	if _, err := NewConcatChain(0.5, 0, 2); err == nil {
		t.Error("α₁=0 accepted")
	}
	if _, err := NewConcatChain(0.5, 0.6, 2); err == nil {
		t.Error("ᾱ+α₁ > 1 accepted")
	}
	if _, err := NewConcatChain(0.5, 0.3, 50); err == nil {
		t.Error("state-space explosion not rejected")
	}
}

func TestConcatChainSize(t *testing.T) {
	for _, delta := range []int{1, 2, 3} {
		c := mustConcat(t, 0.6, 0.3, delta)
		want := (2*delta + 1) * int(math.Pow(3, float64(delta+1)))
		if c.Len() != want {
			t.Errorf("Δ=%d: %d states, want (2Δ+1)·3^{Δ+1} = %d", delta, c.Len(), want)
		}
	}
}

func TestConcatChainStochasticAndErgodic(t *testing.T) {
	c := mustConcat(t, 0.6, 0.3, 2)
	if err := c.Chain().Validate(); err != nil {
		t.Fatal(err)
	}
	if !c.Chain().IsIrreducible() {
		t.Error("C_F‖P not irreducible")
	}
	if !c.Chain().IsErgodic() {
		t.Error("C_F‖P not ergodic (the paper asserts it is)")
	}
}

// TestProductFormIsStationary validates Eq. (40): the product-form
// distribution π_F(f)·∏P[s⁽ⁱ⁾] is the stationary distribution of the
// materialized C_F‖P.
func TestProductFormIsStationary(t *testing.T) {
	cases := []struct {
		alphaBar, alpha1 float64
		delta            int
	}{
		{0.7, 0.2, 1},
		{0.6, 0.3, 2},
		{0.85, 0.12, 3},
		{0.5, 0.25, 2},
	}
	for _, cse := range cases {
		c := mustConcat(t, cse.alphaBar, cse.alpha1, cse.delta)
		prod := c.ProductFormStationary()
		sum := 0.0
		for _, v := range prod {
			sum += v
		}
		if math.Abs(sum-1) > 1e-10 {
			t.Errorf("Δ=%d: product form sums to %.15g", cse.delta, sum)
		}
		// Fixed-point check: πP = π.
		if tv := TotalVariation(prod, c.Chain().Step(prod)); tv > 1e-12 {
			t.Errorf("Δ=%d: product form violates πP=π by TV %g", cse.delta, tv)
		}
	}
}

func TestProductFormMatchesDirect(t *testing.T) {
	c := mustConcat(t, 0.6, 0.3, 2)
	direct, err := c.Chain().StationaryDirect()
	if err != nil {
		t.Fatal(err)
	}
	if tv := TotalVariation(c.ProductFormStationary(), direct); tv > 1e-9 {
		t.Errorf("TV(product form, direct solve) = %g", tv)
	}
}

func TestConvergenceStateIndexDecodes(t *testing.T) {
	c := mustConcat(t, 0.6, 0.3, 2)
	f, window := c.Decode(c.ConvergenceStateIndex())
	if f != c.Suffix.StateLongN() {
		t.Errorf("suffix component = %s, want HN≥Δ", c.Suffix.Chain().Name(f))
	}
	if window[0] != DetailedH1 {
		t.Errorf("oldest window state = %d, want H₁", window[0])
	}
	for i := 1; i < len(window); i++ {
		if window[i] != DetailedN {
			t.Errorf("window[%d] = %d, want N", i, window[i])
		}
	}
	if !c.IsConvergenceState(c.ConvergenceStateIndex()) {
		t.Error("IsConvergenceState inconsistent")
	}
	if c.IsConvergenceState(0) {
		t.Error("state 0 reported as convergence state")
	}
}

// TestEquation44 is the central check of Section V-A: the stationary
// probability of HN^{≥Δ}‖H₁N^Δ equals ᾱ^{2Δ}·α₁, both via the product form
// and via the direct linear solve of the materialized chain.
func TestEquation44(t *testing.T) {
	cases := []struct {
		alphaBar, alpha1 float64
		delta            int
	}{
		{0.7, 0.2, 1},
		{0.6, 0.3, 2},
		{0.9, 0.09, 3},
	}
	for _, cse := range cases {
		c := mustConcat(t, cse.alphaBar, cse.alpha1, cse.delta)
		want := math.Pow(cse.alphaBar, 2*float64(cse.delta)) * cse.alpha1
		if got := c.AnalyticConvergenceProb(); math.Abs(got-want)/want > 1e-12 {
			t.Errorf("Δ=%d: analytic %g, want %g", cse.delta, got, want)
		}
		prod := c.ProductFormStationary()
		if got := prod[c.ConvergenceStateIndex()]; math.Abs(got-want)/want > 1e-10 {
			t.Errorf("Δ=%d: product-form π[conv] = %g, want ᾱ^{2Δ}α₁ = %g", cse.delta, got, want)
		}
		direct, err := c.Chain().StationaryDirect()
		if err != nil {
			t.Fatal(err)
		}
		if got := direct[c.ConvergenceStateIndex()]; math.Abs(got-want)/want > 1e-8 {
			t.Errorf("Δ=%d: direct π[conv] = %g, want %g", cse.delta, got, want)
		}
	}
}

// TestEmpiricalConvergenceVisits checks Eq. (45): the long-run fraction of
// rounds on the convergence vertex approaches ᾱ^{2Δ}·α₁.
func TestEmpiricalConvergenceVisits(t *testing.T) {
	c := mustConcat(t, 0.7, 0.25, 1)
	freq, err := c.Chain().VisitFrequencies(rng.New(11), 0, 400000)
	if err != nil {
		t.Fatal(err)
	}
	got := freq[c.ConvergenceStateIndex()]
	want := c.AnalyticConvergenceProb()
	if math.Abs(got-want) > 0.005 {
		t.Errorf("empirical convergence rate %g, analytic %g", got, want)
	}
}

func TestDecodeEncodeRoundTrip(t *testing.T) {
	c := mustConcat(t, 0.6, 0.3, 2)
	for idx := 0; idx < c.Len(); idx++ {
		f, window := c.Decode(idx)
		w := 0
		for i, s := range window {
			w += s * c.pow3[i]
		}
		if got := c.encode(f, w); got != idx {
			t.Fatalf("round trip %d → (%d, %v) → %d", idx, f, window, got)
		}
	}
}

func TestPiNormBoundOnConcatChain(t *testing.T) {
	// ‖φ‖_π ≤ 1/√(min π) for point-mass initial distributions
	// (Proposition 1).
	c := mustConcat(t, 0.6, 0.3, 1)
	pi := c.ProductFormStationary()
	bound := PiNormUpperBound(pi)
	phi := make([]float64, c.Len())
	for i := range phi {
		for j := range phi {
			phi[j] = 0
		}
		phi[i] = 1
		if got := PiNorm(phi, pi); got > bound+1e-9 {
			t.Fatalf("point mass at %d: ‖φ‖_π = %g exceeds bound %g", i, got, bound)
		}
	}
}

func BenchmarkConcatChainBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewConcatChain(0.6, 0.3, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConcatStationaryDirect(b *testing.B) {
	c, err := NewConcatChain(0.6, 0.3, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Chain().StationaryDirect(); err != nil {
			b.Fatal(err)
		}
	}
}

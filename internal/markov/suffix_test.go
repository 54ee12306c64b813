package markov

import (
	"math"
	"testing"
	"testing/quick"

	"neatbound/internal/rng"
)

func TestNewSuffixChainValidation(t *testing.T) {
	if _, err := NewSuffixChain(0, 3); err == nil {
		t.Error("α=0 accepted")
	}
	if _, err := NewSuffixChain(1, 3); err == nil {
		t.Error("α=1 accepted")
	}
	if _, err := NewSuffixChain(0.5, 0); err == nil {
		t.Error("Δ=0 accepted")
	}
}

func TestSuffixChainSize(t *testing.T) {
	for _, delta := range []int{1, 2, 3, 8, 32} {
		s, err := NewSuffixChain(0.3, delta)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.Len(), 2*delta+1; got != want {
			t.Errorf("Δ=%d: %d states, want %d (Suffix-Set of Eq. 29)", delta, got, want)
		}
	}
}

func TestSuffixChainStochastic(t *testing.T) {
	for _, delta := range []int{1, 2, 5, 17} {
		s, err := NewSuffixChain(0.2, delta)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Chain().Validate(); err != nil {
			t.Errorf("Δ=%d: %v", delta, err)
		}
	}
}

func TestSuffixChainErgodic(t *testing.T) {
	// The paper asserts C_F is time-homogeneous, irreducible and ergodic.
	for _, delta := range []int{1, 2, 4, 9} {
		s, err := NewSuffixChain(0.35, delta)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Chain().IsIrreducible() {
			t.Errorf("Δ=%d: C_F not irreducible", delta)
		}
		if !s.Chain().IsErgodic() {
			t.Errorf("Δ=%d: C_F not ergodic", delta)
		}
	}
}

func TestAnalyticStationarySumsToOne(t *testing.T) {
	for _, alpha := range []float64{0.01, 0.1, 0.5, 0.9} {
		for _, delta := range []int{1, 2, 3, 10, 40} {
			s, err := NewSuffixChain(alpha, delta)
			if err != nil {
				t.Fatal(err)
			}
			pi := s.AnalyticStationary()
			sum := 0.0
			for _, v := range pi {
				sum += v
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("α=%g Δ=%d: analytic stationary sums to %.15g", alpha, delta, sum)
			}
		}
	}
}

// TestAnalyticMatchesDirect is the numerical validation of Eqs. (37a)–(37d):
// the closed-form stationary distribution solves πP = π.
func TestAnalyticMatchesDirect(t *testing.T) {
	for _, alpha := range []float64{0.05, 0.3, 0.7} {
		for _, delta := range []int{1, 2, 3, 7, 20} {
			s, err := NewSuffixChain(alpha, delta)
			if err != nil {
				t.Fatal(err)
			}
			analytic := s.AnalyticStationary()
			direct, err := s.Chain().StationaryDirect()
			if err != nil {
				t.Fatal(err)
			}
			if tv := TotalVariation(analytic, direct); tv > 1e-10 {
				t.Errorf("α=%g Δ=%d: TV(analytic, direct) = %g", alpha, delta, tv)
			}
		}
	}
}

func TestAnalyticIsFixedPoint(t *testing.T) {
	s, err := NewSuffixChain(0.12, 6)
	if err != nil {
		t.Fatal(err)
	}
	pi := s.AnalyticStationary()
	if tv := TotalVariation(pi, s.Chain().Step(pi)); tv > 1e-14 {
		t.Errorf("analytic πP ≠ π: TV = %g", tv)
	}
}

func TestQuickAnalyticStationary(t *testing.T) {
	f := func(aRaw uint16, dRaw uint8) bool {
		alpha := 0.01 + 0.98*float64(aRaw)/65535
		delta := int(dRaw%12) + 1
		s, err := NewSuffixChain(alpha, delta)
		if err != nil {
			return false
		}
		pi := s.AnalyticStationary()
		sum := 0.0
		for _, v := range pi {
			if v < 0 {
				return false
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		return TotalVariation(pi, s.Chain().Step(pi)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStationaryEquation36(t *testing.T) {
	// Spot-check the balance equations (36a)–(36d) directly.
	alpha, delta := 0.25, 4
	s, err := NewSuffixChain(alpha, delta)
	if err != nil {
		t.Fatal(err)
	}
	abar := 1 - alpha
	pi := s.AnalyticStationary()
	// (36a): π(shortHN^a) = π(shortH)·ᾱ^a.
	for a := 1; a <= delta-1; a++ {
		i, _ := s.StateShortHN(a)
		want := pi[s.StateShortH()] * math.Pow(abar, float64(a))
		if math.Abs(pi[i]-want) > 1e-14 {
			t.Errorf("(36a) a=%d: %g vs %g", a, pi[i], want)
		}
	}
	// (36b): π(longHN^b) = π(longN)·α·ᾱ^b.
	for b := 0; b <= delta-1; b++ {
		i, _ := s.StateLongHN(b)
		want := pi[s.StateLongN()] * alpha * math.Pow(abar, float64(b))
		if math.Abs(pi[i]-want) > 1e-14 {
			t.Errorf("(36b) b=%d: %g vs %g", b, pi[i], want)
		}
	}
}

func TestMinStationaryMatchesVectorMin(t *testing.T) {
	for _, alpha := range []float64{0.05, 0.3, 0.6} {
		for _, delta := range []int{1, 2, 5, 11} {
			s, err := NewSuffixChain(alpha, delta)
			if err != nil {
				t.Fatal(err)
			}
			pi := s.AnalyticStationary()
			minPi := math.Inf(1)
			for _, v := range pi {
				if v < minPi {
					minPi = v
				}
			}
			if got := s.MinStationary(); math.Abs(got-minPi)/minPi > 1e-10 {
				t.Errorf("α=%g Δ=%d: MinStationary = %g, vector min = %g", alpha, delta, got, minPi)
			}
		}
	}
}

func TestStateIndexHelpers(t *testing.T) {
	s, err := NewSuffixChain(0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if s.StateShortH() != 0 {
		t.Error("shortH index")
	}
	if s.StateLongN() != 5 {
		t.Error("longN index")
	}
	if i, err := s.StateShortHN(2); err != nil || i != 2 {
		t.Errorf("shortHN(2) = %d, %v", i, err)
	}
	if _, err := s.StateShortHN(0); err == nil {
		t.Error("shortHN(0) accepted")
	}
	if _, err := s.StateShortHN(5); err == nil {
		t.Error("shortHN(Δ) accepted")
	}
	if i, err := s.StateLongHN(0); err != nil || i != 6 {
		t.Errorf("longHN(0) = %d, %v", i, err)
	}
	if i, err := s.StateLongHN(4); err != nil || i != 10 {
		t.Errorf("longHN(4) = %d, %v", i, err)
	}
	if _, err := s.StateLongHN(5); err == nil {
		t.Error("longHN(Δ) accepted")
	}
}

func TestEmpiricalWalkMatchesStationary(t *testing.T) {
	s, err := NewSuffixChain(0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	freq, err := s.Chain().VisitFrequencies(rng.New(7), 0, 500000)
	if err != nil {
		t.Fatal(err)
	}
	pi := s.AnalyticStationary()
	if tv := TotalVariation(freq, pi); tv > 0.01 {
		t.Errorf("empirical vs analytic TV = %g", tv)
	}
}

// TestTrackerPaperExample replays the paper's Δ=3 worked example: states
// H,N,H,H,N,N,H,N,N,N for rounds 1–10 give F₇ = HN^{≤Δ−1}H,
// F₈ = HN^{≤Δ−1}HN¹, F₉ = HN^{≤Δ−1}HN², F₁₀ = HN^{≥Δ}.
func TestTrackerPaperExample(t *testing.T) {
	s, err := NewSuffixChain(0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewSuffixTracker(3)
	if err != nil {
		t.Fatal(err)
	}
	seq := []bool{true, false, true, true, false, false, true, false, false, false}
	var got []int
	for i, h := range seq {
		tr.Observe(h)
		if i >= 6 { // rounds 7–10
			got = append(got, tr.State(s))
		}
	}
	sh1, _ := s.StateShortHN(1)
	sh2, _ := s.StateShortHN(2)
	want := []int{s.StateShortH(), sh1, sh2, s.StateLongN()}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("F_%d = %s, want %s", i+7, s.Chain().Name(got[i]), s.Chain().Name(want[i]))
		}
	}
}

func TestTrackerLongGapBranch(t *testing.T) {
	// After an N-run ≥ Δ followed by H, the tracker must be on the
	// HN^{≥Δ}HN^b branch.
	s, _ := NewSuffixChain(0.5, 2)
	tr, _ := NewSuffixTracker(2)
	for _, h := range []bool{true, false, false, false, true} {
		tr.Observe(h)
	}
	b0, _ := s.StateLongHN(0)
	if got := tr.State(s); got != b0 {
		t.Errorf("state = %s, want %s", s.Chain().Name(got), s.Chain().Name(b0))
	}
	tr.Observe(false)
	b1, _ := s.StateLongHN(1)
	if got := tr.State(s); got != b1 {
		t.Errorf("state = %s, want %s", s.Chain().Name(got), s.Chain().Name(b1))
	}
	tr.Observe(false) // run reaches Δ ⇒ HN^{≥Δ}
	if got := tr.State(s); got != s.StateLongN() {
		t.Errorf("state = %s, want %s", s.Chain().Name(got), s.Chain().Name(s.StateLongN()))
	}
}

func TestTrackerInvalidBeforeTwoH(t *testing.T) {
	tr, _ := NewSuffixTracker(3)
	if tr.Valid() {
		t.Error("valid before any H")
	}
	tr.Observe(true)
	if tr.Valid() {
		t.Error("valid after one H")
	}
	tr.Observe(false)
	tr.Observe(true)
	if !tr.Valid() {
		t.Error("not valid after two H")
	}
}

func TestTrackerPanicsWhenInvalid(t *testing.T) {
	s, _ := NewSuffixChain(0.5, 3)
	tr, _ := NewSuffixTracker(3)
	defer func() {
		if recover() == nil {
			t.Fatal("State before validity did not panic")
		}
	}()
	tr.State(s)
}

func TestNewSuffixTrackerValidation(t *testing.T) {
	if _, err := NewSuffixTracker(0); err == nil {
		t.Error("Δ=0 accepted")
	}
}

// TestTrackerAgreesWithNext cross-checks the incremental tracker against
// the deterministic Next transition map on a long random H/N sequence.
func TestTrackerAgreesWithNext(t *testing.T) {
	for _, delta := range []int{1, 2, 3, 6} {
		s, err := NewSuffixChain(0.4, delta)
		if err != nil {
			t.Fatal(err)
		}
		tr, _ := NewSuffixTracker(delta)
		r := rng.New(uint64(100 + delta))
		chainState := -1
		for i := 0; i < 20000; i++ {
			h := r.Bernoulli(0.4)
			tr.Observe(h)
			if chainState >= 0 {
				chainState = s.Next(chainState, h)
				if got := tr.State(s); got != chainState {
					t.Fatalf("Δ=%d step %d: tracker %s, chain %s", delta, i,
						s.Chain().Name(got), s.Chain().Name(chainState))
				}
			} else if tr.Valid() {
				chainState = tr.State(s) // synchronize once valid
			}
		}
	}
}

// TestNextMatchesTransitionMatrix verifies the deterministic Next map is
// exactly the support of the stochastic transition matrix.
func TestNextMatchesTransitionMatrix(t *testing.T) {
	for _, delta := range []int{1, 2, 5} {
		alpha := 0.3
		s, err := NewSuffixChain(alpha, delta)
		if err != nil {
			t.Fatal(err)
		}
		c := s.Chain()
		for i := 0; i < s.Len(); i++ {
			hNext := s.Next(i, true)
			nNext := s.Next(i, false)
			if got := c.Prob(i, hNext); math.Abs(got-alpha) > 1e-15 {
				t.Errorf("Δ=%d state %d: P[→H-next] = %g, want α", delta, i, got)
			}
			if got := c.Prob(i, nNext); math.Abs(got-(1-alpha)) > 1e-15 {
				t.Errorf("Δ=%d state %d: P[→N-next] = %g, want ᾱ", delta, i, got)
			}
		}
	}
}

func BenchmarkSuffixChainBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewSuffixChain(0.2, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuffixTracker(b *testing.B) {
	s, _ := NewSuffixChain(0.3, 8)
	tr, _ := NewSuffixTracker(8)
	r := rng.New(1)
	tr.Observe(true)
	tr.Observe(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(r.Bernoulli(0.3))
		_ = tr.State(s)
	}
}

// TestSuffixTrackerObserveN: ObserveN(k) leaves the tracker
// exactly where k calls Observe(false) do, from every reachable start.
func TestSuffixTrackerObserveN(t *testing.T) {
	for _, prefix := range [][]bool{nil, {true}, {true, false}, {true, false, false, true}} {
		for k := 0; k <= 7; k++ {
			bulk, err := NewSuffixTracker(3)
			if err != nil {
				t.Fatal(err)
			}
			step, _ := NewSuffixTracker(3)
			for _, h := range prefix {
				bulk.Observe(h)
				step.Observe(h)
			}
			bulk.ObserveN(k)
			for j := 0; j < k; j++ {
				step.Observe(false)
			}
			if *bulk != *step {
				t.Errorf("prefix %v, k=%d: ObserveN gives %+v, per round %+v", prefix, k, *bulk, *step)
			}
		}
	}
}

package bounds

import (
	"math"
	"testing"
	"testing/quick"

	"neatbound/internal/rng"
)

func TestCatchUpProbability(t *testing.T) {
	// z = 0 is certain; each extra block multiplies by ν/µ.
	p0, err := CatchUpProbability(0.3, 0)
	if err != nil || p0 != 1 {
		t.Errorf("z=0: %g, %v", p0, err)
	}
	p1, err := CatchUpProbability(0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.3 / 0.7
	if math.Abs(p1-want) > 1e-15 {
		t.Errorf("z=1: %g, want %g", p1, want)
	}
	p5, _ := CatchUpProbability(0.3, 5)
	if math.Abs(p5-math.Pow(want, 5)) > 1e-15 {
		t.Errorf("z=5: %g", p5)
	}
	if _, err := CatchUpProbability(0.3, -1); err == nil {
		t.Error("negative z accepted")
	}
	if _, err := CatchUpProbability(0.6, 1); err == nil {
		t.Error("ν > ½ accepted")
	}
}

// TestCatchUpMatchesRandomWalk validates the gambler's-ruin formula by
// direct random-walk simulation: from deficit z, step +1 with probability
// ν (adversary block) and −1 with probability µ, absorbing at 0 (caught
// up) or at a deep floor (ruin proxy).
func TestCatchUpMatchesRandomWalk(t *testing.T) {
	const nu = 0.35
	const z = 3
	const trials = 200000
	const floor = 60 // deficit at which we declare the walk lost
	r := rng.New(17)
	wins := 0
	for i := 0; i < trials; i++ {
		deficit := z
		for deficit > 0 && deficit < floor {
			if r.Bernoulli(nu) {
				deficit--
			} else {
				deficit++
			}
		}
		if deficit == 0 {
			wins++
		}
	}
	got := float64(wins) / trials
	want, err := CatchUpProbability(nu, z)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 0.005 {
		t.Errorf("empirical catch-up %g, formula %g", got, want)
	}
}

func TestForkDepthTailBase(t *testing.T) {
	b, err := ForkDepthTailBase(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b-1.0/3) > 1e-15 {
		t.Errorf("base = %g, want 1/3", b)
	}
	if _, err := ForkDepthTailBase(0); err == nil {
		t.Error("ν=0 accepted")
	}
}

func TestViolationTailBound(t *testing.T) {
	v, err := ViolationTailBound(0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-math.Pow(1.0/3, 3)) > 1e-15 {
		t.Errorf("tail = %g", v)
	}
	if v, _ := ViolationTailBound(0.25, 0); v != 1 {
		t.Errorf("T=0 tail = %g, want 1", v)
	}
	if _, err := ViolationTailBound(0.25, -1); err == nil {
		t.Error("negative T accepted")
	}
}

func TestQuickTailMonotoneInT(t *testing.T) {
	f := func(nuRaw uint16, tRaw uint8) bool {
		nu := 0.01 + 0.47*float64(nuRaw)/65535
		tee := int(tRaw % 60)
		a, err1 := ViolationTailBound(nu, tee)
		b, err2 := ViolationTailBound(nu, tee+1)
		return err1 == nil && err2 == nil && b <= a && a <= 1 && b >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConfirmationsForRisk(t *testing.T) {
	// ν = 0.25 ⇒ base 1/3; risk 1e-3 needs ceil(ln 1e-3 / ln(1/3)) = 7.
	n, err := ConfirmationsForRisk(0.25, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Errorf("confirmations = %d, want 7", n)
	}
	// The returned T must actually achieve the risk, and T−1 must not.
	tail, _ := ViolationTailBound(0.25, n)
	if tail > 1e-3 {
		t.Errorf("tail %g at returned T", tail)
	}
	tailPrev, _ := ViolationTailBound(0.25, n-1)
	if tailPrev <= 1e-3 {
		t.Errorf("T−1 already achieves the risk: %g", tailPrev)
	}
	if _, err := ConfirmationsForRisk(0.25, 0); err == nil {
		t.Error("risk=0 accepted")
	}
	if _, err := ConfirmationsForRisk(0.25, 2); err == nil {
		t.Error("risk≥1 accepted")
	}
	// Stronger adversary needs more confirmations.
	weak, _ := ConfirmationsForRisk(0.1, 1e-3)
	strong, _ := ConfirmationsForRisk(0.45, 1e-3)
	if strong <= weak {
		t.Errorf("confirmations: ν=0.45 needs %d ≤ ν=0.1's %d", strong, weak)
	}
}

func TestDoubleSpendProbability(t *testing.T) {
	// z = 0: trivially successful.
	p, err := DoubleSpendProbability(0.1, 0)
	if err != nil || p != 1 {
		t.Errorf("z=0: %g, %v", p, err)
	}
	// Strictly decreasing in z.
	prev := 1.1
	for z := 0; z <= 12; z++ {
		p, err := DoubleSpendProbability(0.1, z)
		if err != nil {
			t.Fatal(err)
		}
		if p >= prev {
			t.Fatalf("z=%d: p=%g did not decrease from %g", z, p, prev)
		}
		prev = p
	}
	// Known magnitude: Nakamoto's table gives ~0.1773 safety threshold
	// shapes; for ν=0.1, z=6 the success probability is well below 1e-3
	// and above 1e-7.
	p6, err := DoubleSpendProbability(0.1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if p6 > 1e-3 || p6 < 1e-7 {
		t.Errorf("ν=0.1 z=6: p=%g outside plausible band", p6)
	}
	// Increasing in ν.
	pWeak, _ := DoubleSpendProbability(0.1, 4)
	pStrong, _ := DoubleSpendProbability(0.4, 4)
	if pStrong <= pWeak {
		t.Errorf("double spend easier for weaker adversary: %g ≤ %g", pStrong, pWeak)
	}
	if _, err := DoubleSpendProbability(0.3, -1); err == nil {
		t.Error("negative z accepted")
	}
}

func TestQuickDoubleSpendInUnitInterval(t *testing.T) {
	f := func(nuRaw uint16, zRaw uint8) bool {
		nu := 0.01 + 0.47*float64(nuRaw)/65535
		z := int(zRaw % 20)
		p, err := DoubleSpendProbability(nu, z)
		return err == nil && p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleSpendUpperBoundedByCatchUpHeuristic: the full double-spend
// probability from a z-confirmation deficit is at least the pure
// catch-up probability (the attacker may also pre-mine).
func TestDoubleSpendAtLeastCatchUp(t *testing.T) {
	for _, nu := range []float64{0.1, 0.25, 0.4} {
		for z := 1; z <= 8; z++ {
			ds, err := DoubleSpendProbability(nu, z)
			if err != nil {
				t.Fatal(err)
			}
			cu, err := CatchUpProbability(nu, z)
			if err != nil {
				t.Fatal(err)
			}
			if ds < cu-1e-12 {
				t.Errorf("ν=%g z=%d: double-spend %g < catch-up %g", nu, z, ds, cu)
			}
		}
	}
}

func BenchmarkDoubleSpendProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := DoubleSpendProbability(0.3, 12); err != nil {
			b.Fatal(err)
		}
	}
}

package bounds

import (
	"math"
	"testing"
	"testing/quick"

	"neatbound/internal/params"
	"neatbound/internal/solve"
)

func TestPSSExactNuMaxValidation(t *testing.T) {
	if _, err := PSSExactNuMax(0, 1000, 10); err == nil {
		t.Error("c=0 accepted")
	}
	if _, err := PSSExactNuMax(2, 3, 10); err == nil {
		t.Error("n=3 accepted")
	}
	if _, err := PSSExactNuMax(2, 1000, 0); err == nil {
		t.Error("Δ=0 accepted")
	}
}

func TestPSSExactNuMaxSmallCFails(t *testing.T) {
	// Below c ≈ 2 the PSS condition certifies nothing.
	v, err := PSSExactNuMax(1.5, 100000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("νmax = %g at c=1.5, want 0", v)
	}
}

func TestPSSExactNuMaxDefiningEquality(t *testing.T) {
	// At the returned ν the exact margin crosses zero.
	const c, n, delta = 5.0, 100000, 1000
	nu, err := PSSExactNuMax(c, n, delta)
	if err != nil {
		t.Fatal(err)
	}
	if nu <= 0 || nu >= 0.5 {
		t.Fatalf("νmax = %g", nu)
	}
	pr, err := params.FromC(n, delta, nu, c)
	if err != nil {
		t.Fatal(err)
	}
	alpha := pr.Alpha()
	beta := pr.P * pr.AdversaryN()
	margin := alpha*(1-(2*float64(delta)+2)*alpha) - beta
	if math.Abs(margin) > 1e-12 {
		t.Errorf("margin at νmax = %g, want ≈0", margin)
	}
}

// TestPSSExactApproachesApproximation: at large Δ and n the exact
// inversion should approach the closed-form blue curve (which used
// α ≈ µnp and 2Δ+2 ≈ 2Δ).
func TestPSSExactApproachesApproximation(t *testing.T) {
	for _, c := range []float64{3, 5, 20} {
		exact, err := PSSExactNuMax(c, 100000, 100000)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := PSSConsistencyNuMax(c)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(exact-approx) > 0.01 {
			t.Errorf("c=%g: exact %g vs approx %g", c, exact, approx)
		}
	}
}

func TestPSSExactBelowNeat(t *testing.T) {
	// The exact PSS curve must also sit below the neat curve.
	for _, c := range []float64{2.5, 5, 20} {
		exact, err := PSSExactNuMax(c, 100000, 10000)
		if err != nil {
			t.Fatal(err)
		}
		neat, err := NeatBoundNuMax(c)
		if err != nil {
			t.Fatal(err)
		}
		if exact >= neat {
			t.Errorf("c=%g: exact PSS %g not below neat %g", c, exact, neat)
		}
	}
}

func TestCompareAt(t *testing.T) {
	eps := Epsilons{E1: 0.05, E2: 0.05}
	cmp, err := CompareAt(0.3, 1e6, eps)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.NeatMinC >= cmp.PSSMinC {
		t.Errorf("neat %g not below PSS %g", cmp.NeatMinC, cmp.PSSMinC)
	}
	if cmp.Theorem2MinC < cmp.NeatMinC {
		t.Errorf("finite-Δ Theorem 2 %g below the asymptotic neat bound %g", cmp.Theorem2MinC, cmp.NeatMinC)
	}
	if cmp.ImprovementRatio <= 1 {
		t.Errorf("improvement ratio %g ≤ 1", cmp.ImprovementRatio)
	}
	// Attack inversion: c = ν(1−ν)/(1−2ν); check against PSSAttackNuMin.
	back, err := PSSAttackNuMin(cmp.AttackMaxC)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(back-0.3) > 1e-9 {
		t.Errorf("attack inversion round trip gave ν=%g", back)
	}
	// Sanity: the attack threshold is below the neat requirement (no
	// contradiction between certification and provable breakage).
	if cmp.AttackMaxC >= cmp.NeatMinC {
		t.Errorf("attack region c < %g overlaps certification c > %g", cmp.AttackMaxC, cmp.NeatMinC)
	}
}

func TestQuickAttackInversionRoundTrip(t *testing.T) {
	f := func(nuRaw uint16) bool {
		nu := 0.01 + 0.47*float64(nuRaw)/65535
		c := nu * (1 - nu) / (1 - 2*nu)
		back, err := PSSAttackNuMin(c)
		return err == nil && math.Abs(back-nu) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComparisonTable(t *testing.T) {
	eps := Epsilons{E1: 0.05, E2: 0.05}
	nus := solve.LinSpace(0.05, 0.45, 9)
	table, err := ComparisonTable(nus, 1e6, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != 9 {
		t.Fatalf("rows = %d", len(table))
	}
	for _, row := range table {
		if row.ImprovementRatio <= 1 {
			t.Errorf("ν=%g: ratio %g ≤ 1", row.Nu, row.ImprovementRatio)
		}
	}
	if _, err := ComparisonTable(nil, 1e6, eps); err == nil {
		t.Error("empty grid accepted")
	}
}

func TestMaxImprovementRatio(t *testing.T) {
	eps := Epsilons{E1: 0.05, E2: 0.05}
	nus := solve.LinSpace(0.05, 0.45, 41)
	table, err := ComparisonTable(nus, 1e6, eps)
	if err != nil {
		t.Fatal(err)
	}
	// The ratio PSS/neat = [2µ²/(1−2ν)] / [2µ/ln(µ/ν)] = µ·ln(µ/ν)/(1−2ν),
	// which tends to 1 as ν → ½ and diverges like ln(1/ν) as ν → 0: the
	// neat bound's biggest requirement gain is for small adversaries. On
	// this grid the max is at the left edge, and the ratio decreases
	// monotonically across the grid.
	if best := table[0].ImprovementRatio; best <= 1 {
		t.Fatalf("best ratio %g at ν=%g", best, table[0].Nu)
	}
	for i := 1; i < len(table); i++ {
		if table[i].ImprovementRatio >= table[i-1].ImprovementRatio {
			t.Errorf("ratio not decreasing at ν=%g", table[i].Nu)
		}
	}
}

func BenchmarkPSSExactNuMax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := PSSExactNuMax(5, 100000, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

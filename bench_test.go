// Benchmarks regenerating every evaluation artifact of the paper plus the
// extension experiments S1–S6 of DESIGN.md (S7 and the Inequality-47
// validation run via cmd/report). Each benchmark both times the
// regeneration and asserts the qualitative result (who wins, which side of
// the bound), so `go test -bench=. -benchmem` doubles as an experiment
// runner. EXPERIMENTS.md records the measured numbers.
package neatbound

import (
	"context"
	"math"
	"testing"

	"neatbound/internal/bounds"
	"neatbound/internal/figures"
	"neatbound/internal/markov"
	"neatbound/internal/params"
	"neatbound/internal/rng"
)

// BenchmarkFigure1 regenerates the paper's Figure 1: the three νmax-vs-c
// curves at the paper's scale (the closed forms are n- and Δ-exact).
func BenchmarkFigure1(b *testing.B) {
	grid := figures.Figure1CDefault(61)
	for i := 0; i < b.N; i++ {
		series, err := figures.Figure1(grid)
		if err != nil {
			b.Fatal(err)
		}
		// Figure-1 shape: blue ≤ magenta < red pointwise.
		for j := range grid {
			if !(series[1].Y[j] <= series[0].Y[j] && series[0].Y[j] < series[2].Y[j]) {
				b.Fatalf("curve ordering violated at c=%g", grid[j])
			}
		}
	}
}

// BenchmarkTableI regenerates Table I at the paper's Figure-1
// parameterization (n = 10⁵, Δ = 10¹³).
func BenchmarkTableI(b *testing.B) {
	pr, err := ParamsFromC(100000, int(1e13), 0.3, 2.0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tab, err := ComputeTableI(pr)
		if err != nil {
			b.Fatal(err)
		}
		if math.Abs(tab.Alpha+tab.ABar-1) > 1e-9 {
			b.Fatal("α + ᾱ ≠ 1")
		}
	}
}

// BenchmarkFigure2SuffixChain regenerates Figure 2: constructing the C_F
// chain and validating its stationary distribution (37a–d) against the
// direct linear solve.
func BenchmarkFigure2SuffixChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := markov.NewSuffixChain(0.2, 16)
		if err != nil {
			b.Fatal(err)
		}
		analytic := s.AnalyticStationary()
		direct, err := s.Chain().StationaryDirect()
		if err != nil {
			b.Fatal(err)
		}
		if tv := markov.TotalVariation(analytic, direct); tv > 1e-9 {
			b.Fatalf("Eqs. (37a–d) mismatch: TV %g", tv)
		}
	}
}

// BenchmarkRemark1Regimes regenerates the Remark-1 regime table at
// Δ = 10¹³ and asserts the paper's claimed ranges and slacks.
func BenchmarkRemark1Regimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := figures.Remark1Table(1e13)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatalf("rows = %d", len(rows))
		}
		if rows[0].SlackMinusOne > 1e-4 || rows[1].SlackMinusOne > 1e-2 {
			b.Fatalf("slacks %g, %g exceed paper's claims", rows[0].SlackMinusOne, rows[1].SlackMinusOne)
		}
	}
}

// BenchmarkConvergenceRate is experiment S1: simulate and compare the
// convergence-opportunity count with T·ᾱ^{2Δ}α₁ (Eq. 26).
func BenchmarkConvergenceRate(b *testing.B) {
	pr, err := NewParams(100, 1e-3, 3, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	const rounds = 20000
	for i := 0; i < b.N; i++ {
		rep, err := Run(context.Background(), pr, WithRounds(rounds), WithSeed(uint64(i)),
			WithConsistency(6, 0), WithAdversary(NewMaxDelayAdversary()))
		if err != nil {
			b.Fatal(err)
		}
		want := rep.PredictedConvergence
		if want < 20 {
			b.Fatalf("underpowered: predicted %g", want)
		}
		if rel := math.Abs(float64(rep.Ledger.Convergence)-want) / want; rel > 0.5 {
			b.Fatalf("S1: convergence %d vs predicted %g", rep.Ledger.Convergence, want)
		}
	}
}

// BenchmarkAdversaryCount is experiment S2: adversarial block count vs
// T·pνn (Eq. 27).
func BenchmarkAdversaryCount(b *testing.B) {
	pr, err := NewParams(100, 1e-3, 3, 0.25)
	if err != nil {
		b.Fatal(err)
	}
	const rounds = 20000
	for i := 0; i < b.N; i++ {
		rep, err := Run(context.Background(), pr, WithRounds(rounds), WithSeed(uint64(1000+i)),
			WithConsistency(6, 0))
		if err != nil {
			b.Fatal(err)
		}
		want := rep.PredictedAdversary
		if rel := math.Abs(float64(rep.AdversaryBlocks)-want) / want; rel > 0.3 {
			b.Fatalf("S2: adversary blocks %d vs predicted %g", rep.AdversaryBlocks, want)
		}
	}
}

// BenchmarkMarkovEmpirical is experiment S3: the empirical visit
// frequencies of a C_F random walk against the analytic stationary
// distribution.
func BenchmarkMarkovEmpirical(b *testing.B) {
	s, err := markov.NewSuffixChain(0.3, 4)
	if err != nil {
		b.Fatal(err)
	}
	pi := s.AnalyticStationary()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		freq, err := s.Chain().VisitFrequencies(rng.New(uint64(i)), 0, 200000)
		if err != nil {
			b.Fatal(err)
		}
		if tv := markov.TotalVariation(freq, pi); tv > 0.02 {
			b.Fatalf("S3: TV(empirical, analytic) = %g", tv)
		}
	}
}

// BenchmarkConsistencySweep is experiment S4: the consistency outcome on
// both sides of the bound under the private-mining attack.
func BenchmarkConsistencySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := RunSweep(context.Background(),
			SweepGrid{N: 40, Delta: 8, NuValues: []float64{0.45}, CValues: []float64{0.6, 25}},
			WithRounds(20000), WithSeed(uint64(i)), WithConsistency(3, 0), WithWorkers(2),
			WithAdversaryName("private", AdversaryOpts{ForkDepth: 4}))
		if err != nil {
			b.Fatal(err)
		}
		if cells[0].Err != nil || cells[1].Err != nil {
			b.Fatalf("cell errors: %v %v", cells[0].Err, cells[1].Err)
		}
		if cells[0].Margin.Mean >= cells[1].Margin.Mean {
			b.Fatalf("S4: Lemma-1 margin did not improve with c: %g vs %g",
				cells[0].Margin.Mean, cells[1].Margin.Mean)
		}
	}
}

// BenchmarkChainGrowthQuality is experiment S5: growth and quality under
// the max-delay adversary.
func BenchmarkChainGrowthQuality(b *testing.B) {
	pr, err := NewParams(40, 1e-3, 4, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep, err := Run(context.Background(), pr, WithRounds(20000), WithSeed(uint64(i)),
			WithConsistency(6, 0), WithAdversary(NewMaxDelayAdversary()))
		if err != nil {
			b.Fatal(err)
		}
		if rep.ChainGrowthRate <= 0 || rep.ChainQuality <= 0 {
			b.Fatalf("S5: growth %g quality %g", rep.ChainGrowthRate, rep.ChainQuality)
		}
	}
}

// BenchmarkLemmaChain is experiment S6: the numeric verification of the
// implication chain (52)–(59) at the paper's scale.
func BenchmarkLemmaChain(b *testing.B) {
	eps := bounds.Epsilons{E1: 0.05, E2: 0.05}
	minC, err := bounds.Theorem2MinC(0.3, 1e13, eps)
	if err != nil {
		b.Fatal(err)
	}
	pr := params.MustFromC(100000, int(1e13), 0.3, minC*1.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checks, err := bounds.VerifyLemmaChain(pr, eps)
		if err != nil {
			b.Fatal(err)
		}
		if !bounds.AllHold(checks) {
			b.Fatalf("S6: %+v failed", bounds.FirstFailure(checks))
		}
	}
}

// BenchmarkStationaryMethods is the DESIGN.md ablation: analytic closed
// form vs power iteration vs direct linear solve on C_F.
func BenchmarkStationaryMethods(b *testing.B) {
	s, err := markov.NewSuffixChain(0.15, 24)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("analytic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = s.AnalyticStationary()
		}
	})
	b.Run("power", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Chain().StationaryPower(1e-12, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Chain().StationaryDirect(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulationRound times the engine's steady-state cost per round
// at a mid-size configuration.
func BenchmarkSimulationRound(b *testing.B) {
	pr, err := NewParams(1000, 1e-4, 8, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := Run(context.Background(), pr, WithRounds(1000), WithSeed(1), WithConsistency(6, 0)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	rounds := 0
	for i := 0; i < b.N; i++ {
		rounds += 1000
		if _, err := Run(context.Background(), pr, WithRounds(1000), WithSeed(uint64(i)), WithConsistency(6, 0)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "rounds/s")
}

package engine

import (
	"math"
	"testing"

	"neatbound/internal/params"
)

func TestWithOracleMiningValidation(t *testing.T) {
	e, err := New(Config{Params: testParams(), Rounds: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.UsesOracle() {
		t.Error("oracle active by default")
	}
	if err := e.WithOracleMining(123); err != nil {
		t.Fatal(err)
	}
	if !e.UsesOracle() {
		t.Error("oracle not active after WithOracleMining")
	}
}

func TestOracleRunCompletes(t *testing.T) {
	e, err := New(Config{Params: testParams(), Rounds: 2000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WithOracleMining(7); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2000 {
		t.Fatalf("records = %d", len(res.Records))
	}
	if res.HonestBlocks == 0 {
		t.Error("oracle path mined nothing in 2000 rounds at p=0.01, 15 honest miners")
	}
}

// TestOraclePathMatchesStatisticalPath is the DESIGN.md substitution
// cross-check: the literal hash-query path and the binomial-sampling path
// must produce the same honest block rate (each is µn independent
// Bernoulli(p) trials per round).
func TestOraclePathMatchesStatisticalPath(t *testing.T) {
	pr := params.Params{N: 40, P: 0.005, Delta: 2, Nu: 0.25}
	const rounds = 30000
	run := func(useOracle bool) float64 {
		e, err := New(Config{Params: pr, Rounds: rounds, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if useOracle {
			if err := e.WithOracleMining(99); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.HonestBlocks) / rounds
	}
	statistical := run(false)
	oracle := run(true)
	want := pr.P * pr.HonestN()
	// Each path within 10% of theory, and within 15% of each other.
	if math.Abs(statistical-want)/want > 0.1 {
		t.Errorf("statistical rate %g, theory %g", statistical, want)
	}
	if math.Abs(oracle-want)/want > 0.1 {
		t.Errorf("oracle rate %g, theory %g", oracle, want)
	}
	if math.Abs(oracle-statistical)/want > 0.15 {
		t.Errorf("paths disagree: oracle %g vs statistical %g", oracle, statistical)
	}
}

// TestOraclePathBlockDistribution checks the per-round honest block count
// under the oracle path has binomial mean and variance.
func TestOraclePathBlockDistribution(t *testing.T) {
	pr := params.Params{N: 40, P: 0.01, Delta: 2, Nu: 0.25} // µn = 30
	const rounds = 30000
	var counts []int
	cfg := Config{Params: pr, Rounds: rounds, Seed: 4}
	cfg.Observer = ObserverFunc(func(e *Engine, rec RoundRecord) {
		counts = append(counts, rec.HonestMined)
	})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WithOracleMining(5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var sum, sumSq float64
	for _, c := range counts {
		f := float64(c)
		sum += f
		sumSq += f * f
	}
	mean := sum / rounds
	variance := sumSq/rounds - mean*mean
	mn := pr.HonestN()
	wantMean := mn * pr.P
	wantVar := mn * pr.P * (1 - pr.P)
	if math.Abs(mean-wantMean)/wantMean > 0.1 {
		t.Errorf("mean %g, want %g", mean, wantMean)
	}
	if math.Abs(variance-wantVar)/wantVar > 0.15 {
		t.Errorf("variance %g, want %g", variance, wantVar)
	}
}

func BenchmarkOracleVsStatisticalRound(b *testing.B) {
	pr := params.Params{N: 1000, P: 1e-4, Delta: 8, Nu: 0.3}
	b.Run("statistical", func(b *testing.B) {
		e, err := New(Config{Params: pr, Rounds: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.step(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oracle", func(b *testing.B) {
		e, err := New(Config{Params: pr, Rounds: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := e.WithOracleMining(1); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.step(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package dist

import (
	"math"
	"testing"
	"testing/quick"

	"neatbound/internal/rng"
)

func TestDegenerateCases(t *testing.T) {
	r := rng.New(1)
	cases := []struct {
		b    Binomial
		want int
	}{
		{Binomial{N: 0, P: 0.5}, 0},
		{Binomial{N: -5, P: 0.5}, 0},
		{Binomial{N: 10, P: 0}, 0},
		{Binomial{N: 10, P: -0.2}, 0},
		{Binomial{N: 10, P: 1}, 10},
		{Binomial{N: 10, P: 1.7}, 10},
		{Binomial{N: 100, P: math.NaN()}, 0},
	}
	for _, c := range cases {
		if got := c.b.Sample(r); got != c.want {
			t.Errorf("Binomial{%d, %g}.Sample = %d, want %d", c.b.N, c.b.P, got, c.want)
		}
	}
}

func TestSampleInRange(t *testing.T) {
	f := func(seed uint64, nRaw uint16, pRaw uint16) bool {
		n := int(nRaw%2000) + 1
		p := float64(pRaw) / 65535
		r := rng.New(seed)
		k := Binomial{N: n, P: p}.Sample(r)
		return k >= 0 && k <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	for _, b := range []Binomial{{N: 30, P: 0.2}, {N: 100000, P: 3e-4}, {N: 500, P: 0.4}} {
		r1, r2 := rng.New(99), rng.New(99)
		for i := 0; i < 200; i++ {
			if a, c := b.Sample(r1), b.Sample(r2); a != c {
				t.Fatalf("Binomial{%d, %g}: draw %d diverged (%d vs %d)", b.N, b.P, i, a, c)
			}
		}
	}
}

// moments draws `draws` samples via sample and returns mean and variance.
func moments(draws int, sample func() int) (mean, variance float64) {
	sum, sumSq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		v := float64(sample())
		sum += v
		sumSq += v * v
	}
	mean = sum / float64(draws)
	variance = sumSq/float64(draws) - mean*mean
	return mean, variance
}

// TestBinomialMatchesBernoulliLoop is the satellite's statistical
// cross-validation: on both sampler paths (inversion and BTRS) and the
// reflected regime, the aggregate sampler must match the naive
// per-trial Bernoulli loop in mean and variance at fixed seeds, within
// 5σ of the Monte-Carlo error.
func TestBinomialMatchesBernoulliLoop(t *testing.T) {
	cases := []struct {
		name  string
		b     Binomial
		draws int
	}{
		{"inversion-small", Binomial{N: 20, P: 0.3}, 40000},
		{"inversion-sparse", Binomial{N: 5000, P: 1e-3}, 40000},
		{"btrs", Binomial{N: 400, P: 0.25}, 40000},
		{"btrs-large-n", Binomial{N: 100000, P: 3e-4}, 20000},
		{"reflected", Binomial{N: 60, P: 0.85}, 40000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fast := rng.New(7)
			slow := rng.New(8)
			fastMean, fastVar := moments(c.draws, func() int { return c.b.Sample(fast) })
			slowMean, slowVar := moments(c.draws, func() int { return BernoulliCount(slow, c.b.N, c.b.P) })
			// Standard error of the sample mean is sqrt(var/draws); 5σ
			// tolerance on the difference of two independent means.
			se := 5 * math.Sqrt(2*c.b.Variance()/float64(c.draws))
			if d := math.Abs(fastMean - slowMean); d > se {
				t.Errorf("mean: aggregate %g vs loop %g (tol %g)", fastMean, slowMean, se)
			}
			if d := math.Abs(fastMean - c.b.Mean()); d > se {
				t.Errorf("mean %g vs analytic %g (tol %g)", fastMean, c.b.Mean(), se)
			}
			// Allow 15% relative slack on the variance, well beyond the
			// Monte-Carlo error (≈ sqrt(2/draws) relative) at these sizes.
			if rel := math.Abs(fastVar-c.b.Variance()) / c.b.Variance(); rel > 0.15 {
				t.Errorf("variance %g vs analytic %g", fastVar, c.b.Variance())
			}
			if rel := math.Abs(fastVar-slowVar) / c.b.Variance(); rel > 0.25 {
				t.Errorf("variance: aggregate %g vs loop %g", fastVar, slowVar)
			}
		})
	}
}

// TestBTRSExactDistribution bins BTRS draws and compares frequencies
// against the exact pmf via a chi-square-style bound on each bin.
func TestBTRSExactDistribution(t *testing.T) {
	b := Binomial{N: 200, P: 0.1} // n·p = 20: BTRS path
	const draws = 200000
	r := rng.New(11)
	counts := map[int]int{}
	for i := 0; i < draws; i++ {
		counts[b.Sample(r)]++
	}
	// Exact pmf by recurrence.
	pmf := make([]float64, b.N+1)
	pmf[0] = math.Pow(1-b.P, float64(b.N))
	for k := 1; k <= b.N; k++ {
		pmf[k] = pmf[k-1] * (b.P / (1 - b.P)) * float64(b.N-k+1) / float64(k)
	}
	for k, c := range counts {
		want := pmf[k] * draws
		if want < 20 {
			continue // tail bins: too noisy for a per-bin bound
		}
		if d := math.Abs(float64(c) - want); d > 6*math.Sqrt(want) {
			t.Errorf("k=%d: observed %d, expected %g", k, c, want)
		}
	}
}

func BenchmarkBinomialSample(b *testing.B) {
	cases := []struct {
		name string
		bin  Binomial
	}{
		{"inversion-np0.1", Binomial{N: 1000, P: 1e-4}},
		{"inversion-np5", Binomial{N: 10000, P: 5e-4}},
		{"btrs-np30", Binomial{N: 100000, P: 3e-4}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			r := rng.New(1)
			for i := 0; i < b.N; i++ {
				_ = c.bin.Sample(r)
			}
		})
	}
}

// TestSamplerMatchesSample pins the cached zero mass: one Sampler fed a
// sequence of (n, p) that holds still, changes n, changes p, reflects
// through p > ½, crosses into the BTRS regime and hits the no-draw
// cases must return exactly Binomial.Sample's values and leave its
// stream exactly where Sample leaves an identically seeded one.
func TestSamplerMatchesSample(t *testing.T) {
	type np struct {
		n int
		p float64
	}
	phases := []np{
		{40, 0.005}, {39, 0.005}, {40, 0.005}, {1000000, 1e-7},
		{40, 0.03}, {0, 0.03}, {40, 0.97}, {40, 0.03}, {5000, 0.01},
		{7, 0.5}, {40, 0.005},
	}
	for seed := uint64(1); seed <= 3; seed++ {
		var s Sampler
		r1, r2 := rng.New(seed), rng.New(seed)
		for round := 0; round < 4000; round++ {
			// Mostly long runs of one parameter set, with a change of
			// count every few rounds as NuSchedule or churn would make.
			ph := phases[(round/40)%len(phases)]
			if round%7 == 3 {
				ph.n++
			}
			got := s.Sample(r1, ph.n, ph.p)
			want := Binomial{N: ph.n, P: ph.p}.Sample(r2)
			if got != want {
				t.Fatalf("seed %d round %d Binomial{%d, %g}: Sampler %d, Sample %d", seed, round, ph.n, ph.p, got, want)
			}
		}
		if a, b := r1.Float64(), r2.Float64(); a != b {
			t.Fatalf("seed %d: streams diverged after the draws (%v vs %v)", seed, a, b)
		}
	}
}

// TestSamplerSampleWithMatchesBinomial: completing an inversion draw from
// the Sampler's cached zero mass must return exactly Binomial.SampleWith
// for every uniform — random ones, the PZero boundary and its float
// neighbours, and the far tail — while the (n, p) in use changes under
// one Sampler, as the fast-forward gap sampler's honest and adversary
// draws would see across runs.
func TestSamplerSampleWithMatchesBinomial(t *testing.T) {
	cases := []Binomial{
		{N: 28, P: 0.005}, {N: 700000, P: 1e-7}, {N: 300000, P: 1e-7},
		{N: 100000, P: 1e-6}, {N: 7, P: 0.4}, {N: 1, P: 0.5}, {N: 5000, P: 0.0019},
	}
	var s Sampler
	r := rng.New(77)
	for round := 0; round < 200; round++ {
		b := cases[round%len(cases)]
		pz := b.PZero()
		us := []float64{0, pz, math.Nextafter(pz, 0), math.Nextafter(pz, 1), 1, math.Nextafter(1, 0)}
		for i := 0; i < 200; i++ {
			us = append(us, r.Float64())
		}
		for _, u := range us {
			if got, want := s.SampleWith(u, b.N, b.P), b.SampleWith(u); got != want {
				t.Fatalf("Binomial{%d, %g} u=%v: Sampler.SampleWith %d, Binomial.SampleWith %d", b.N, b.P, u, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SampleWith outside the inversion regime did not panic")
		}
	}()
	s.SampleWith(0.5, 1000, 0.5)
}

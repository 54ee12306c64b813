package dist

import (
	"math"
	"testing"

	"neatbound/internal/rng"
)

// zeroRun replays what a per-round engine does on stream r: repeated
// Binomial.Sample draws, counting consecutive zeros until the first
// nonzero draw, which it returns alongside the count.
func zeroRun(r *rng.Stream, b Binomial) (zeros, first int) {
	for {
		k := b.Sample(r)
		if k != 0 {
			return zeros, k
		}
		zeros++
	}
}

// TestGeometricMatchesBinomialZeroRuns is the fast path's load-bearing
// equivalence, pinned draw-for-draw: on identically seeded streams, a
// Geometric{Q: b.PZero()} sample must equal the length of the run of
// zero Binomial.Sample draws, and afterwards both streams must sit at
// the exact same state (each trial consumed exactly one uniform).
func TestGeometricMatchesBinomialZeroRuns(t *testing.T) {
	cases := []Binomial{
		{N: 28, P: 0.005},    // golden-config honest side
		{N: 100000, P: 1e-6}, // large-n bench config
		{N: 12, P: 0.005},    // golden-config adversary side
		{N: 7, P: 0.4},       // dense: runs are short but must still match
		{N: 1, P: 0.01},      // single trial == plain Bernoulli
	}
	for _, b := range cases {
		if !b.InversionEligible() {
			t.Fatalf("Binomial{%d, %g}: test case must be inversion-eligible", b.N, b.P)
		}
		g := Geometric{Q: b.PZero()}
		for seed := uint64(1); seed <= 50; seed++ {
			rGeo, rBin := rng.New(seed), rng.New(seed)
			gap := g.Sample(rGeo)
			zeros, first := zeroRun(rBin, b)
			if gap != zeros {
				t.Fatalf("Binomial{%d, %g} seed %d: geometric gap %d, binomial zero-run %d",
					b.N, b.P, seed, gap, zeros)
			}
			if first <= 0 {
				t.Fatalf("Binomial{%d, %g} seed %d: zero-run ended with draw %d", b.N, b.P, seed, first)
			}
			// The geometric consumed gap+1 uniforms; the binomial run
			// consumed one per draw, zeros+1 in total. Equal counts ⇒
			// equal stream states ⇒ every subsequent draw agrees too.
			if a, c := rGeo.Uint64(), rBin.Uint64(); a != c {
				t.Fatalf("Binomial{%d, %g} seed %d: stream states diverged after run (%#x vs %#x)",
					b.N, b.P, seed, a, c)
			}
		}
	}
}

// TestGeometricMatchesBernoulliTrials pins the sampler draw-for-draw
// against explicit Bernoulli trials on the same stream: trial i fails
// iff its uniform u_i ≤ Q, exactly the comparison Fails makes.
func TestGeometricMatchesBernoulliTrials(t *testing.T) {
	for _, q := range []float64{0, 0.1, 0.5, 0.87, 0.999} {
		g := Geometric{Q: q}
		for seed := uint64(100); seed < 140; seed++ {
			rGeo, rRef := rng.New(seed), rng.New(seed)
			got := g.Sample(rGeo)
			want := 0
			for rRef.Float64() <= q {
				want++
			}
			if got != want {
				t.Fatalf("Geometric{%g} seed %d: Sample %d, trial loop %d", q, seed, got, want)
			}
			if a, c := rGeo.Uint64(), rRef.Uint64(); a != c {
				t.Fatalf("Geometric{%g} seed %d: stream states diverged", q, seed)
			}
		}
	}
}

// TestSampleWithCompletesDraw: handing SampleWith the uniform a parallel
// stream just consumed must reproduce Sample exactly, for zero and
// nonzero outcomes alike — this is how the engine finishes the mining
// draw of the event round it fast-forwarded to.
func TestSampleWithCompletesDraw(t *testing.T) {
	cases := []Binomial{{N: 28, P: 0.005}, {N: 100000, P: 1e-6}, {N: 7, P: 0.4}}
	for _, b := range cases {
		r1, r2 := rng.New(42), rng.New(42)
		for i := 0; i < 5000; i++ {
			u := r2.Float64()
			if got, want := b.SampleWith(u), b.Sample(r1); got != want {
				t.Fatalf("Binomial{%d, %g} draw %d: SampleWith(%g) = %d, Sample = %d",
					b.N, b.P, i, u, got, want)
			}
		}
	}
}

// TestPZeroMatchesInversionZeroTest: Fails(u) with Q = PZero must agree
// with SampleWith(u) == 0 — including at the boundary, where the shared
// ≤ comparison is what keeps the two bit-identical.
func TestPZeroMatchesInversionZeroTest(t *testing.T) {
	b := Binomial{N: 28, P: 0.005}
	g := Geometric{Q: b.PZero()}
	r := rng.New(9)
	for i := 0; i < 20000; i++ {
		u := r.Float64()
		if g.Fails(u) != (b.SampleWith(u) == 0) {
			t.Fatalf("u=%g: Fails=%v but SampleWith=%d", u, g.Fails(u), b.SampleWith(u))
		}
	}
	// Exact boundary: u == PZero is a failure (zero draw) on both sides.
	if !g.Fails(b.PZero()) || b.SampleWith(b.PZero()) != 0 {
		t.Fatalf("boundary u = PZero must be a zero draw on both paths")
	}
}

func TestGeometricDegenerate(t *testing.T) {
	// Q ≤ 0: every trial succeeds immediately, consuming one uniform.
	r := rng.New(3)
	if got := (Geometric{Q: 0}).Sample(r); got != 0 {
		t.Fatalf("Geometric{0}.Sample = %d, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Geometric{Q: 1}.Sample must panic")
		}
	}()
	(Geometric{Q: 1}).Sample(r)
}

func TestPZeroDegenerate(t *testing.T) {
	cases := []struct {
		b    Binomial
		want float64
	}{
		{Binomial{N: 0, P: 0.5}, 1},
		{Binomial{N: 10, P: 0}, 1},
		{Binomial{N: 10, P: math.NaN()}, 1},
		{Binomial{N: 10, P: 1}, 0},
		{Binomial{N: 2, P: 0.5}, 0.25},
	}
	for _, c := range cases {
		if got := c.b.PZero(); got != c.want {
			t.Errorf("Binomial{%d, %g}.PZero = %g, want %g", c.b.N, c.b.P, got, c.want)
		}
	}
	if (Binomial{N: 100000, P: 1e-6}).InversionEligible() != true {
		t.Error("large-n sparse config must be inversion-eligible")
	}
	for _, b := range []Binomial{{N: 0, P: 0.1}, {N: 10, P: 0}, {N: 10, P: 0.6}, {N: 100, P: 0.2}} {
		if b.InversionEligible() {
			t.Errorf("Binomial{%d, %g} must not be inversion-eligible", b.N, b.P)
		}
	}
}

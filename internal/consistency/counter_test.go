package consistency

import (
	"fmt"
	"testing"

	"neatbound/internal/markov"
	"neatbound/internal/rng"
)

// classify maps an honest block count to the Detailed-State-Set class.
func classify(honestMined int) int {
	switch {
	case honestMined <= 0:
		return markov.DetailedN
	case honestMined == 1:
		return markov.DetailedH1
	default:
		return markov.DetailedHM
	}
}

// windowCounter is the reference convergence counter: it keeps the
// detailed states of the most recent Δ+1 rounds and a suffix tracker
// lagging Δ+1 rounds behind, and reads the pattern HN^{≥Δ}‖H₁N^Δ off
// them literally. ConvergenceCounter must agree with it on every
// stream.
type windowCounter struct {
	delta   int
	tracker *markov.SuffixTracker
	// window holds the detailed states of the most recent Δ+1 rounds,
	// oldest first (window[0] = S_{t−Δ}).
	window        []int
	count, rounds int
}

func newWindowCounter(t *testing.T, delta int) *windowCounter {
	t.Helper()
	tr, err := markov.NewSuffixTracker(delta)
	if err != nil {
		t.Fatal(err)
	}
	return &windowCounter{delta: delta, tracker: tr}
}

func (c *windowCounter) Observe(honestMined int) bool {
	c.rounds++
	state := classify(honestMined)
	if len(c.window) < c.delta+1 {
		c.window = append(c.window, state)
	} else {
		// Evict the oldest window entry into the suffix tracker: the
		// tracker always represents F_{t−Δ−1}.
		oldest := c.window[0]
		copy(c.window, c.window[1:])
		c.window[c.delta] = state
		c.tracker.Observe(oldest != markov.DetailedN)
	}
	if len(c.window) < c.delta+1 || !c.tracker.InLongN() {
		return false
	}
	if c.window[0] != markov.DetailedH1 {
		return false
	}
	for _, s := range c.window[1:] {
		if s != markov.DetailedN {
			return false
		}
	}
	c.count++
	return true
}

// counterStream draws a random per-round honest block count stream:
// N with probability pN, else H₁ or Hₘ evenly.
func counterStream(r *rng.Stream, rounds int, pN float64) []int {
	seq := make([]int, rounds)
	for i := range seq {
		switch u := r.Float64(); {
		case u < pN:
			seq[i] = 0
		case u < pN+(1-pN)/2:
			seq[i] = 1
		default:
			seq[i] = 2 + int(r.Uint64()%3)
		}
	}
	return seq
}

// TestFastForwardConvergenceCounterMatchesWindow drives the O(1)
// ConvergenceCounter and the reference window counter through random
// H₁/Hₘ/N streams, fed one round at a time and with the N-runs cut
// into random spans for ObserveQuiet. Count and Rounds must agree
// after every call, and each call must report the opportunities the
// reference saw over the same rounds.
func TestFastForwardConvergenceCounterMatchesWindow(t *testing.T) {
	for _, delta := range []int{1, 2, 10} {
		hits := 0
		for _, pN := range []float64{0.3, 0.8, 0.97} {
			t.Run(fmt.Sprintf("delta=%d/pN=%g", delta, pN), func(t *testing.T) {
				seed := uint64(1000*delta) + uint64(pN*100)
				r := rng.New(seed)
				seq := counterStream(r, 20000, pN)
				ref := newWindowCounter(t, delta)
				perRound, err := NewConvergenceCounter(delta)
				if err != nil {
					t.Fatal(err)
				}
				spans, err := NewConvergenceCounter(delta)
				if err != nil {
					t.Fatal(err)
				}
				agree := func(i int, c *ConvergenceCounter, how string) {
					t.Helper()
					if c.Count() != ref.count || c.Rounds() != ref.rounds {
						t.Fatalf("seed %d, %s, after round %d: count %d rounds %d, reference count %d rounds %d",
							seed, how, i, c.Count(), c.Rounds(), ref.count, ref.rounds)
					}
				}
				for i := 0; i < len(seq); {
					if seq[i] != 0 {
						want := ref.Observe(seq[i])
						if got := perRound.Observe(seq[i]); got != want {
							t.Fatalf("seed %d, round %d: Observe = %t, reference %t", seed, i+1, got, want)
						}
						spans.Observe(seq[i])
						i++
						agree(i, perRound, "per round")
						agree(i, spans, "spans")
						continue
					}
					// A random-length piece of the N-run at i: per round
					// for one counter, one ObserveQuiet for the other.
					k := 1 + int(r.Uint64()%uint64(2*delta+3))
					run := 0
					for i+run < len(seq) && seq[i+run] == 0 {
						run++
					}
					k = min(k, run)
					want := 0
					for j := 0; j < k; j++ {
						hit := ref.Observe(0)
						if hit {
							want++
						}
						if got := perRound.Observe(0); got != hit {
							t.Fatalf("seed %d, round %d: Observe = %t, reference %t", seed, i+j+1, got, hit)
						}
						agree(i+j+1, perRound, "per round")
					}
					if got := spans.ObserveQuiet(k); got != want {
						t.Fatalf("seed %d, rounds %d..%d: ObserveQuiet = %d, reference %d", seed, i+1, i+k, got, want)
					}
					i += k
					agree(i, spans, "spans")
				}
				hits += ref.count
			})
		}
		if hits == 0 {
			t.Errorf("Δ=%d: no opportunities in any stream — too dense to test anything", delta)
		}
	}
}

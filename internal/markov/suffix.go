package markov

import (
	"fmt"
	"math"
)

// SuffixChain is the paper's suffix-of-previous-and-current-states Markov
// chain C_F (Figure 2). Its 2Δ+1 vertices are the elements of Suffix-Set
// (Eq. 29):
//
//	HN^{≤Δ−1}H                         — index 0
//	HN^{≤Δ−1}HN^a, a ∈ {1, …, Δ−1}     — indices 1 … Δ−1
//	HN^{≥Δ}                            — index Δ
//	HN^{≥Δ}HN^b,  b ∈ {0, …, Δ−1}      — indices Δ+1 … 2Δ
//
// where H (probability α) is "some honest block mined this round" and N
// (probability ᾱ = 1−α) is "no honest block mined this round".
type SuffixChain struct {
	// Alpha is α, the per-round probability of the H state.
	Alpha float64
	// Delta is Δ, the maximum adversarial delay in rounds.
	Delta int
	chain *Chain
}

// Suffix-state index helpers. The exported methods make the encoding part
// of the API so the engine and consistency packages can track C_F states.

// StateShortH returns the index of HN^{≤Δ−1}H.
func (s *SuffixChain) StateShortH() int { return 0 }

// StateShortHN returns the index of HN^{≤Δ−1}HN^a for a ∈ {1, …, Δ−1}.
func (s *SuffixChain) StateShortHN(a int) (int, error) {
	if a < 1 || a > s.Delta-1 {
		return 0, fmt.Errorf("markov: a = %d outside {1, …, Δ−1 = %d}", a, s.Delta-1)
	}
	return a, nil
}

// StateLongN returns the index of HN^{≥Δ}.
func (s *SuffixChain) StateLongN() int { return s.Delta }

// StateLongHN returns the index of HN^{≥Δ}HN^b for b ∈ {0, …, Δ−1}.
func (s *SuffixChain) StateLongHN(b int) (int, error) {
	if b < 0 || b > s.Delta-1 {
		return 0, fmt.Errorf("markov: b = %d outside {0, …, Δ−1 = %d}", b, s.Delta-1)
	}
	return s.Delta + 1 + b, nil
}

// NewSuffixChain constructs C_F for the given α ∈ (0, 1) and Δ ≥ 1,
// implementing transition rules ①–④ of Section V-A.
func NewSuffixChain(alpha float64, delta int) (*SuffixChain, error) {
	if !(alpha > 0 && alpha < 1) {
		return nil, fmt.Errorf("markov: α = %g outside (0, 1)", alpha)
	}
	if delta < 1 {
		return nil, fmt.Errorf("markov: Δ = %d must be ≥ 1", delta)
	}
	n := 2*delta + 1
	names := make([]string, n)
	names[0] = "HN≤Δ-1 H"
	for a := 1; a <= delta-1; a++ {
		names[a] = fmt.Sprintf("HN≤Δ-1 HN^%d", a)
	}
	names[delta] = "HN≥Δ"
	for b := 0; b <= delta-1; b++ {
		names[delta+1+b] = fmt.Sprintf("HN≥Δ HN^%d", b)
	}
	c, err := NewChain(n, names...)
	if err != nil {
		return nil, err
	}
	s := &SuffixChain{Alpha: alpha, Delta: delta, chain: c}
	abar := 1 - alpha
	set := func(i, j int, p float64) {
		if err := c.SetTransition(i, j, p); err != nil {
			panic(err) // indices are constructed in-range
		}
	}
	shortH := s.StateShortH()
	longN := s.StateLongN()

	// From HN^{≤Δ−1}H: H keeps us in HN^{≤Δ−1}H (rule ③); N starts a short
	// N-run (rule ①, a = 1) — unless Δ = 1, in which case a single N
	// already reaches HN^{≥Δ} (rule ④ via HN^{≤Δ−1}HN^{Δ−1} with the run
	// of allowed short a's empty).
	set(shortH, shortH, alpha)
	if delta == 1 {
		set(shortH, longN, abar)
	} else {
		set(shortH, 1, abar)
	}

	// From HN^{≤Δ−1}HN^a: H resets to HN^{≤Δ−1}H (rule ③); N either
	// extends the run (rule ①) or, at a = Δ−1, tips into HN^{≥Δ}
	// (rule ④).
	for a := 1; a <= delta-1; a++ {
		set(a, shortH, alpha)
		if a < delta-1 {
			set(a, a+1, abar)
		} else {
			set(a, longN, abar)
		}
	}

	// From HN^{≥Δ}: N stays (rule ④); H moves to HN^{≥Δ}HN^0 (rule ②,
	// b = 0, covering HN^{≥Δ}H).
	set(longN, longN, abar)
	b0, _ := s.StateLongHN(0)
	set(longN, b0, alpha)

	// From HN^{≥Δ}HN^b: H resets to HN^{≤Δ−1}H (rule ③); N either extends
	// (rule ②) or, at b = Δ−1, returns to HN^{≥Δ} (rule ④).
	for b := 0; b <= delta-1; b++ {
		i, _ := s.StateLongHN(b)
		set(i, shortH, alpha)
		if b < delta-1 {
			j, _ := s.StateLongHN(b + 1)
			set(i, j, abar)
		} else {
			set(i, longN, abar)
		}
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Chain exposes the underlying generic chain.
func (s *SuffixChain) Chain() *Chain { return s.chain }

// Len returns 2Δ+1, the number of vertices.
func (s *SuffixChain) Len() int { return s.chain.Len() }

// AnalyticStationary returns the closed-form stationary distribution of
// Eqs. (37a)–(37d):
//
//	π(HN^{≤Δ−1}H)     = α·(1 − ᾱ^Δ)          (37a)
//	π(HN^{≤Δ−1}HN^a)  = α·(1 − ᾱ^Δ)·ᾱ^a      (37b)
//	π(HN^{≥Δ})        = ᾱ^Δ                  (37c)
//	π(HN^{≥Δ}HN^b)    = α·ᾱ^{Δ+b}            (37d)
func (s *SuffixChain) AnalyticStationary() []float64 {
	alpha := s.Alpha
	abar := 1 - alpha
	abarD := math.Pow(abar, float64(s.Delta))
	pi := make([]float64, s.Len())
	pi[s.StateShortH()] = alpha * (1 - abarD)
	for a := 1; a <= s.Delta-1; a++ {
		pi[a] = alpha * (1 - abarD) * math.Pow(abar, float64(a))
	}
	pi[s.StateLongN()] = abarD
	for b := 0; b <= s.Delta-1; b++ {
		i, _ := s.StateLongHN(b)
		pi[i] = alpha * abarD * math.Pow(abar, float64(b))
	}
	return pi
}

// MinStationary returns min π_F = α·ᾱ^{Δ−1}·min{1−ᾱ^Δ, ᾱ^Δ} from the proof
// of Proposition 1 (Eq. 99).
func (s *SuffixChain) MinStationary() float64 {
	alpha := s.Alpha
	abar := 1 - alpha
	abarD := math.Pow(abar, float64(s.Delta))
	return alpha * math.Pow(abar, float64(s.Delta-1)) * math.Min(1-abarD, abarD)
}

// SuffixTracker incrementally tracks the C_F vertex visited as a stream of
// per-round H/N states arrives, implementing the suffix(·) map of
// Section V-A without storing history. Feed it with Observe; the tracker
// becomes Valid after two H states have been seen (the paper's
// "after at least two H have happened" proviso).
type SuffixTracker struct {
	delta int
	// nRun is the number of consecutive N states since the last H.
	nRun int
	// prevGapLong records whether the N-run preceding the last H was ≥ Δ.
	prevGapLong bool
	hSeen       int
}

// NewSuffixTracker returns a tracker for suffix states with delay delta.
func NewSuffixTracker(delta int) (*SuffixTracker, error) {
	if delta < 1 {
		return nil, fmt.Errorf("markov: Δ = %d must be ≥ 1", delta)
	}
	return &SuffixTracker{delta: delta}, nil
}

// Observe consumes the next round state (true = H, false = N).
func (t *SuffixTracker) Observe(h bool) {
	if h {
		if t.hSeen > 0 {
			// The completed N-run between the previous H and this one
			// determines which branch of Suffix-Set we are on.
			t.prevGapLong = t.nRun >= t.delta
		}
		t.hSeen++
		t.nRun = 0
		return
	}
	t.nRun++
}

// ObserveN consumes k ≥ 0 consecutive N states in O(1): the state
// Observe(false) called k times leaves.
func (t *SuffixTracker) ObserveN(k int) {
	if k > 0 {
		t.nRun += k
	}
}

// Valid reports whether at least two H states have been observed, which is
// when the suffix state is well defined.
func (t *SuffixTracker) Valid() bool { return t.hSeen >= 2 }

// NRun returns the length of the current trailing run of N states.
func (t *SuffixTracker) NRun() int { return t.nRun }

// InLongN reports whether the tracked suffix is HN^{≥Δ}: at least one H
// observed and the trailing N-run has reached Δ. Unlike State, it is
// meaningful as soon as one H has been seen.
func (t *SuffixTracker) InLongN() bool { return t.hSeen >= 1 && t.nRun >= t.delta }

// State returns the current C_F vertex index under the indexing of
// SuffixChain. It panics if !Valid().
func (t *SuffixTracker) State(s *SuffixChain) int {
	if !t.Valid() {
		panic("markov: SuffixTracker.State before two H observations")
	}
	if t.nRun >= t.delta {
		return s.StateLongN()
	}
	if t.prevGapLong {
		i, err := s.StateLongHN(t.nRun)
		if err != nil {
			panic(err)
		}
		return i
	}
	if t.nRun == 0 {
		return s.StateShortH()
	}
	i, err := s.StateShortHN(t.nRun)
	if err != nil {
		panic(err)
	}
	return i
}

package markov

import (
	"fmt"
	"math"
)

// Next returns the C_F vertex reached from state when the next round is H
// (h = true) or N (h = false). The transition is deterministic given the
// round class — rules ①–④ of Section V-A.
func (s *SuffixChain) Next(state int, h bool) int {
	shortH := s.StateShortH()
	longN := s.StateLongN()
	if h {
		if state == longN {
			i, _ := s.StateLongHN(0)
			return i
		}
		return shortH
	}
	switch {
	case state == shortH:
		if s.Delta == 1 {
			return longN
		}
		return 1 // HN^{≤Δ−1}HN^1
	case state >= 1 && state <= s.Delta-1: // HN^{≤Δ−1}HN^a
		if state < s.Delta-1 {
			return state + 1
		}
		return longN
	case state == longN:
		return longN
	default: // HN^{≥Δ}HN^b at index Δ+1+b
		b := state - (s.Delta + 1)
		if b < s.Delta-1 {
			i, _ := s.StateLongHN(b + 1)
			return i
		}
		return longN
	}
}

// Detailed round states of Detailed-State-Set (Eq. 38), coarsened to the
// three classes the convergence-opportunity analysis distinguishes: N (no
// honest block), H₁ (exactly one honest block), and H₊ (two or more honest
// blocks). The paper's full set has one state per block count h ≤ µn; only
// the H₁/N distinction matters for Eq. (44), so the coarsening is lossless
// for every quantity the theorems use.
const (
	DetailedN  = 0 // no honest block this round
	DetailedH1 = 1 // exactly one honest block
	DetailedHM = 2 // more than one honest block
)

// ConcatChain materializes the paper's concatenated Markov chain C_{F‖P}:
// the transition of F_{t−Δ−1} S_{t−Δ} … S_t, i.e. the C_F suffix state as
// of Δ+1 rounds ago together with the detailed states of the most recent
// Δ+1 rounds. State count is (2Δ+1)·3^{Δ+1}, so materialization is meant
// for the small-Δ validation of Eqs. (40) and (44); the closed forms scale
// to arbitrary Δ.
type ConcatChain struct {
	Suffix *SuffixChain
	// AlphaBar, Alpha1, AlphaM are the per-round probabilities of the
	// detailed states N, H₁ and H₊. They sum to 1.
	AlphaBar, Alpha1, AlphaM float64

	chain   *Chain
	winSize int // Δ+1
	pow3    []int
}

// NewConcatChain builds C_{F‖P} for the given ᾱ (probability of N), α₁
// (probability of exactly one honest block) and Δ. The probability of H₊
// is 1 − ᾱ − α₁ and must be non-negative.
func NewConcatChain(alphaBar, alpha1 float64, delta int) (*ConcatChain, error) {
	if !(alphaBar > 0 && alphaBar < 1) {
		return nil, fmt.Errorf("markov: ᾱ = %g outside (0, 1)", alphaBar)
	}
	alphaM := 1 - alphaBar - alpha1
	if alpha1 <= 0 || alphaM < -1e-15 {
		return nil, fmt.Errorf("markov: invalid detailed probabilities ᾱ=%g α₁=%g α₊=%g", alphaBar, alpha1, alphaM)
	}
	if alphaM < 0 {
		alphaM = 0
	}
	suffix, err := NewSuffixChain(1-alphaBar, delta)
	if err != nil {
		return nil, err
	}
	winSize := delta + 1
	pow3 := make([]int, winSize+1)
	pow3[0] = 1
	for i := 1; i <= winSize; i++ {
		pow3[i] = pow3[i-1] * 3
	}
	nStates := suffix.Len() * pow3[winSize]
	if nStates > 1<<20 {
		return nil, fmt.Errorf("markov: C_F‖P with Δ = %d has %d states; materialize only for small Δ", delta, nStates)
	}
	cc := &ConcatChain{
		Suffix:   suffix,
		AlphaBar: alphaBar,
		Alpha1:   alpha1,
		AlphaM:   alphaM,
		winSize:  winSize,
		pow3:     pow3,
	}
	chain, err := NewChain(nStates)
	if err != nil {
		return nil, err
	}
	probs := [3]float64{alphaBar, alpha1, alphaM}
	for f := 0; f < suffix.Len(); f++ {
		for w := 0; w < pow3[winSize]; w++ {
			from := cc.encode(f, w)
			oldest := w % 3
			fNext := suffix.Next(f, oldest != DetailedN)
			rest := w / 3 // drop oldest, shift window
			for sNew := 0; sNew < 3; sNew++ {
				if probs[sNew] == 0 {
					continue
				}
				to := cc.encode(fNext, rest+sNew*pow3[winSize-1])
				// Accumulate in case of index collisions (none by
				// construction, but addition is the correct semantics).
				if err := chain.SetTransition(from, to, chain.Prob(from, to)+probs[sNew]); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := chain.Validate(); err != nil {
		return nil, err
	}
	cc.chain = chain
	return cc, nil
}

// encode maps (suffix state f, window code w) to a flat index. The window
// code is Σ s_i·3^{i−1} with s₁ (the oldest round, S_{t−Δ}) in the least
// significant digit.
func (c *ConcatChain) encode(f, w int) int { return f*c.pow3[c.winSize] + w }

// Decode splits a flat state index into the suffix vertex and the window
// of Δ+1 detailed states, oldest first.
func (c *ConcatChain) Decode(idx int) (f int, window []int) {
	f = idx / c.pow3[c.winSize]
	w := idx % c.pow3[c.winSize]
	window = make([]int, c.winSize)
	for i := 0; i < c.winSize; i++ {
		window[i] = w % 3
		w /= 3
	}
	return f, window
}

// Chain exposes the underlying generic chain.
func (c *ConcatChain) Chain() *Chain { return c.chain }

// ComposeState returns the flat index of (suffix vertex f, window of Δ+1
// detailed states, oldest first).
func (c *ConcatChain) ComposeState(f int, window []int) (int, error) {
	if f < 0 || f >= c.Suffix.Len() {
		return 0, fmt.Errorf("markov: suffix vertex %d outside [0, %d)", f, c.Suffix.Len())
	}
	if len(window) != c.winSize {
		return 0, fmt.Errorf("markov: window length %d, want Δ+1 = %d", len(window), c.winSize)
	}
	w := 0
	for i, s := range window {
		if s < 0 || s > 2 {
			return 0, fmt.Errorf("markov: detailed state %d outside {0,1,2}", s)
		}
		w += s * c.pow3[i]
	}
	return c.encode(f, w), nil
}

// NextState returns the deterministic successor of flat state idx when the
// next round's detailed state is sNew: the oldest window entry is absorbed
// into the suffix (C_F transition on its H/N class), the window shifts,
// and sNew enters at the newest position.
func (c *ConcatChain) NextState(idx, sNew int) (int, error) {
	if idx < 0 || idx >= c.Len() {
		return 0, fmt.Errorf("markov: state %d outside [0, %d)", idx, c.Len())
	}
	if sNew < 0 || sNew > 2 {
		return 0, fmt.Errorf("markov: detailed state %d outside {0,1,2}", sNew)
	}
	f := idx / c.pow3[c.winSize]
	w := idx % c.pow3[c.winSize]
	oldest := w % 3
	fNext := c.Suffix.Next(f, oldest != DetailedN)
	rest := w / 3
	return c.encode(fNext, rest+sNew*c.pow3[c.winSize-1]), nil
}

// Len returns the number of materialized states.
func (c *ConcatChain) Len() int { return c.chain.Len() }

// ConvergenceStateIndex returns the index of the convergence-opportunity
// vertex HN^{≥Δ} ‖ H₁ N^Δ: suffix HN^{≥Δ}, oldest window round H₁, then Δ
// rounds of N.
func (c *ConcatChain) ConvergenceStateIndex() int {
	w := DetailedH1 * c.pow3[0] // oldest = H₁, the rest N (= 0 digits)
	return c.encode(c.Suffix.StateLongN(), w)
}

// IsConvergenceState reports whether flat index idx is the
// convergence-opportunity vertex.
func (c *ConcatChain) IsConvergenceState(idx int) bool {
	return idx == c.ConvergenceStateIndex()
}

// AnalyticConvergenceProb returns ᾱ^{2Δ}·α₁, the Eq. (44) stationary
// probability of the convergence-opportunity vertex.
func (c *ConcatChain) AnalyticConvergenceProb() float64 {
	return math.Pow(c.AlphaBar, 2*float64(c.Suffix.Delta)) * c.Alpha1
}

// ProductFormStationary returns the Eq. (40) product-form stationary
// distribution π_{F‖P}(f s⁽¹⁾…s⁽Δ+1⁾) = π_F(f)·∏ P[s⁽ⁱ⁾] over all
// materialized states.
func (c *ConcatChain) ProductFormStationary() []float64 {
	piF := c.Suffix.AnalyticStationary()
	probs := [3]float64{c.AlphaBar, c.Alpha1, c.AlphaM}
	out := make([]float64, c.Len())
	for idx := range out {
		f, window := c.Decode(idx)
		v := piF[f]
		for _, s := range window {
			v *= probs[s]
		}
		out[idx] = v
	}
	return out
}

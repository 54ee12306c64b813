package consistency

import (
	"math"
	"testing"

	"neatbound/internal/blockchain"
	"neatbound/internal/engine"
	"neatbound/internal/markov"
	"neatbound/internal/params"
	"neatbound/internal/rng"
)

func TestNewConvergenceCounterValidation(t *testing.T) {
	if _, err := NewConvergenceCounter(0); err == nil {
		t.Error("Δ=0 accepted")
	}
}

func TestClassify(t *testing.T) {
	if classify(0) != markov.DetailedN || classify(-1) != markov.DetailedN {
		t.Error("N classification")
	}
	if classify(1) != markov.DetailedH1 {
		t.Error("H1 classification")
	}
	if classify(2) != markov.DetailedHM || classify(10) != markov.DetailedHM {
		t.Error("HM classification")
	}
}

// feed runs a sequence of honest-mined counts through a fresh counter and
// returns the rounds (1-based) on which opportunities completed.
func feed(t *testing.T, delta int, seq []int) []int {
	t.Helper()
	c, err := NewConvergenceCounter(delta)
	if err != nil {
		t.Fatal(err)
	}
	var hits []int
	for i, h := range seq {
		if c.Observe(h) {
			hits = append(hits, i+1)
		}
	}
	return hits
}

func TestConvergencePatternDetected(t *testing.T) {
	// Δ=2: pattern requires H, ≥2 N, H1, 2 N.
	// Rounds:       1  2  3  4  5  6
	// States:       H  N  N  H1 N  N   → opportunity completes at round 6.
	hits := feed(t, 2, []int{1, 0, 0, 1, 0, 0})
	if len(hits) != 1 || hits[0] != 6 {
		t.Fatalf("hits = %v, want [6]", hits)
	}
}

func TestConvergenceRejectsShortGap(t *testing.T) {
	// Gap before H1 is only 1 < Δ=2: no opportunity.
	hits := feed(t, 2, []int{1, 0, 1, 0, 0})
	if len(hits) != 0 {
		t.Fatalf("hits = %v, want none (gap < Δ)", hits)
	}
}

func TestConvergenceRejectsMultiBlockRound(t *testing.T) {
	// The middle round mines 2 blocks (H₊, not H₁): no opportunity.
	hits := feed(t, 2, []int{1, 0, 0, 2, 0, 0})
	if len(hits) != 0 {
		t.Fatalf("hits = %v, want none (H₊ centre)", hits)
	}
}

func TestConvergenceRejectsBrokenTrailingQuiet(t *testing.T) {
	// A block lands inside the trailing Δ window.
	hits := feed(t, 2, []int{1, 0, 0, 1, 1, 0})
	if len(hits) != 0 {
		t.Fatalf("hits = %v, want none", hits)
	}
}

func TestConvergenceRequiresLeadingH(t *testing.T) {
	// All-quiet prefix then H1 N N: the suffix before the window never saw
	// an H, so F_{t−Δ−1} cannot be HN^{≥Δ}.
	hits := feed(t, 2, []int{0, 0, 0, 1, 0, 0})
	if len(hits) != 0 {
		t.Fatalf("hits = %v, want none (no leading H)", hits)
	}
	// With a leading H it counts.
	hits = feed(t, 2, []int{1, 0, 0, 0, 1, 0, 0})
	if len(hits) != 1 || hits[0] != 7 {
		t.Fatalf("hits = %v, want [7]", hits)
	}
}

func TestConvergenceBackToBack(t *testing.T) {
	// After an opportunity, the H1 round itself restarts the pattern: the
	// trailing Δ N's double as the next leading gap.
	// Δ=2: H N N H1 N N H1 N N → opportunities at rounds 6 and 9.
	hits := feed(t, 2, []int{1, 0, 0, 1, 0, 0, 1, 0, 0})
	if len(hits) != 2 || hits[0] != 6 || hits[1] != 9 {
		t.Fatalf("hits = %v, want [6 9]", hits)
	}
}

func TestConvergenceDelta1(t *testing.T) {
	// Δ=1: pattern H, ≥1 N, H1, 1 N.
	hits := feed(t, 1, []int{1, 0, 1, 0})
	if len(hits) != 1 || hits[0] != 4 {
		t.Fatalf("hits = %v, want [4]", hits)
	}
}

// TestConvergenceRateMatchesEq44 validates E[C]/T → ᾱ^{2Δ}·α₁ on a long
// synthetic i.i.d. state stream (Eq. 26 via Eq. 44).
func TestConvergenceRateMatchesEq44(t *testing.T) {
	const delta = 2
	const rounds = 2000000
	// Per-round honest block counts ~ binom(µn, p).
	pr := params.Params{N: 40, P: 0.01, Delta: delta, Nu: 0.25}
	mn := pr.HonestCount()
	r := rng.New(99)
	c, err := NewConvergenceCounter(delta)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		mined := 0
		for m := 0; m < mn; m++ {
			if r.Bernoulli(pr.P) {
				mined++
			}
		}
		c.Observe(mined)
	}
	got := float64(c.Count()) / rounds
	want := pr.ConvergenceOpportunityRate()
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("empirical rate %g, Eq. 44 predicts %g", got, want)
	}
}

func TestAccount(t *testing.T) {
	records := []engine.RoundRecord{
		{Round: 1, HonestMined: 1, AdversaryMined: 0},
		{Round: 2, HonestMined: 0, AdversaryMined: 1},
		{Round: 3, HonestMined: 0, AdversaryMined: 0},
		{Round: 4, HonestMined: 1, AdversaryMined: 2},
		{Round: 5, HonestMined: 0, AdversaryMined: 0},
		{Round: 6, HonestMined: 0, AdversaryMined: 0},
	}
	rec, err := NewLedgerRecorder(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		rec.OnRound(nil, r)
	}
	acc := rec.Accounting()
	if acc.Rounds != 6 {
		t.Errorf("rounds = %d", acc.Rounds)
	}
	if acc.Convergence != 1 {
		t.Errorf("convergence = %d, want 1", acc.Convergence)
	}
	if acc.Adversary != 3 {
		t.Errorf("adversary = %d, want 3", acc.Adversary)
	}
	if acc.Margin() != -2 {
		t.Errorf("margin = %d, want -2", acc.Margin())
	}
}

func TestAccountInvalidDelta(t *testing.T) {
	if _, err := NewLedgerRecorder(0); err == nil {
		t.Error("Δ=0 accepted")
	}
}

func TestNewCheckerValidation(t *testing.T) {
	if _, err := NewChecker(-1, 1); err == nil {
		t.Error("negative T accepted")
	}
	if _, err := NewChecker(2, 0); err == nil {
		t.Error("interval 0 accepted")
	}
}

// fixtureTree builds a tree with a fork of depth 3:
// genesis → 1 → 2 → 3 → 4 (main) and 1 → 10 → 11 (fork, depth 2 from 1).
func fixtureTree(t *testing.T) *blockchain.Tree {
	t.Helper()
	tree := blockchain.NewTree()
	add := func(id, parent blockchain.BlockID, honest bool) {
		t.Helper()
		if err := tree.Add(&blockchain.Block{ID: id, Parent: parent, Honest: honest}); err != nil {
			t.Fatal(err)
		}
	}
	add(1, blockchain.GenesisID, true)
	add(2, 1, true)
	add(3, 2, true)
	add(4, 3, true)
	add(10, 1, false)
	add(11, 10, false)
	return tree
}

func TestCheckerDetectsViolation(t *testing.T) {
	tree := fixtureTree(t)
	// Snapshot 1: one player on tip 3 (height 3), another on 11 (height 2).
	// With T = 1, chain(3) chopped by 1 (→ height 2, block 2) is not a
	// prefix of chain(11): violation.
	c, err := NewChecker(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.snaps = []Snapshot{{Round: 10, Tips: []blockchain.BlockID{3, 11}}}
	viols, err := c.Check(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) == 0 {
		t.Fatal("no violation found")
	}
	found := false
	for _, v := range viols {
		if v.TipA == 3 && v.TipB == 11 {
			found = true
			if v.ForkDepth != 2 {
				t.Errorf("fork depth = %d, want 2 (blocks 2,3 diverge)", v.ForkDepth)
			}
		}
	}
	if !found {
		t.Errorf("violations %v missing (3→11)", viols)
	}
}

func TestCheckerChopForgives(t *testing.T) {
	tree := fixtureTree(t)
	// With T = 2, chain(3) chopped by 2 (→ block 1) IS a prefix of
	// chain(11), and chain(11) chopped by 2 (→ height 0) is vacuous:
	// no violations.
	c, err := NewChecker(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.snaps = []Snapshot{{Round: 10, Tips: []blockchain.BlockID{3, 11}}}
	viols, err := c.Check(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Fatalf("unexpected violations: %v", viols)
	}
}

func TestCheckerFutureSelfConsistency(t *testing.T) {
	tree := fixtureTree(t)
	// Player on tip 3 at round 10, reorged onto tip 11 at round 20: the
	// future-self-consistency direction (r < s) must flag it at T = 1.
	c, err := NewChecker(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.snaps = []Snapshot{
		{Round: 10, Tips: []blockchain.BlockID{3}},
		{Round: 20, Tips: []blockchain.BlockID{11}},
	}
	viols, err := c.Check(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 1 {
		t.Fatalf("violations = %v, want exactly the (10,20) pair", viols)
	}
	v := viols[0]
	if v.RoundR != 10 || v.RoundS != 20 || v.TipA != 3 || v.TipB != 11 {
		t.Errorf("violation = %+v", v)
	}
}

func TestCheckerNormalGrowthConsistent(t *testing.T) {
	tree := fixtureTree(t)
	// Same player advancing 2 → 3 → 4 on one chain: consistent at T = 0.
	c, err := NewChecker(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.snaps = []Snapshot{
		{Round: 1, Tips: []blockchain.BlockID{2}},
		{Round: 2, Tips: []blockchain.BlockID{3}},
		{Round: 3, Tips: []blockchain.BlockID{4}},
	}
	viols, err := c.Check(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Fatalf("violations on a single growing chain: %v", viols)
	}
}

func TestMaxForkDepth(t *testing.T) {
	tree := fixtureTree(t)
	c, err := NewChecker(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.snaps = []Snapshot{{Round: 10, Tips: []blockchain.BlockID{4, 11}}}
	depth, err := c.MaxForkDepth(tree)
	if err != nil {
		t.Fatal(err)
	}
	// chain(4) diverges from chain(11) by blocks 2,3,4 → depth 3.
	if depth != 3 {
		t.Errorf("max fork depth = %d, want 3", depth)
	}
}

func TestCheckerOnRoundSampling(t *testing.T) {
	pr := params.Params{N: 20, P: 0.01, Delta: 3, Nu: 0.25}
	ck, err := NewChecker(5, 50)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{Params: pr, Rounds: 500, Seed: 3, Observer: ck})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(ck.Snapshots()); got != 10 {
		t.Errorf("snapshots = %d, want 10", got)
	}
	for i, s := range ck.Snapshots() {
		if s.Round != (i+1)*50 {
			t.Errorf("snapshot %d at round %d", i, s.Round)
		}
		if len(s.Tips) < 1 {
			t.Errorf("snapshot %d has no tips", i)
		}
	}
}

// TestEndToEndConsistencyHonestRun: with a passive adversary and c far
// above the bound, a full run must produce zero violations at a modest T.
func TestEndToEndConsistencyHonestRun(t *testing.T) {
	pr := params.Params{N: 20, P: 0.002, Delta: 2, Nu: 0.25} // c = 12.5
	ck, err := NewChecker(6, 100)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{Params: pr, Rounds: 20000, Seed: 4, Observer: ck})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	viols, err := ck.Check(res.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 0 {
		t.Errorf("honest run above the bound produced %d violations (first: %+v)", len(viols), viols[0])
	}
}

func BenchmarkConvergenceCounter(b *testing.B) {
	c, err := NewConvergenceCounter(8)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		h := 0
		if r.Bernoulli(0.1) {
			h = 1
		}
		c.Observe(h)
	}
}

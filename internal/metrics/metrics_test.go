package metrics

import (
	"math"
	"testing"

	"neatbound/internal/blockchain"
	"neatbound/internal/engine"
	"neatbound/internal/params"
)

func TestChainGrowthRate(t *testing.T) {
	records := []engine.RoundRecord{
		{Round: 1, MaxHonestHeight: 0},
		{Round: 2, MaxHonestHeight: 1},
		{Round: 3, MaxHonestHeight: 1},
		{Round: 4, MaxHonestHeight: 3},
	}
	if got := ChainGrowthRate(records); math.Abs(got-0.75) > 1e-15 {
		t.Errorf("growth = %g, want 0.75", got)
	}
	if got := ChainGrowthRate(nil); got != 0 {
		t.Errorf("empty growth = %g", got)
	}
}

// qualityTree: genesis → h1 → a2 → h3 → a4 with honest flags [t,f,t,f].
func qualityTree(t *testing.T) *blockchain.Tree {
	t.Helper()
	tree := blockchain.NewTree()
	add := func(id, parent blockchain.BlockID, honest bool) {
		t.Helper()
		if err := tree.Add(&blockchain.Block{ID: id, Parent: parent, Honest: honest}); err != nil {
			t.Fatal(err)
		}
	}
	add(1, blockchain.GenesisID, true)
	add(2, 1, false)
	add(3, 2, true)
	add(4, 3, false)
	return tree
}

func TestChainQuality(t *testing.T) {
	tree := qualityTree(t)
	q, err := ChainQuality(tree, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q-0.5) > 1e-15 {
		t.Errorf("full-chain quality = %g, want 0.5", q)
	}
	// Last 2 blocks: h3, a4 → 0.5. Last 1: a4 → 0.
	q, _ = ChainQuality(tree, 4, 1)
	if q != 0 {
		t.Errorf("last-1 quality = %g, want 0", q)
	}
	q, _ = ChainQuality(tree, 4, 3)
	if math.Abs(q-1.0/3) > 1e-15 {
		t.Errorf("last-3 quality = %g, want 1/3", q)
	}
	// k beyond the chain truncates.
	q, _ = ChainQuality(tree, 4, 99)
	if math.Abs(q-0.5) > 1e-15 {
		t.Errorf("k>len quality = %g, want 0.5", q)
	}
}

func TestChainQualityGenesisOnly(t *testing.T) {
	tree := blockchain.NewTree()
	q, err := ChainQuality(tree, blockchain.GenesisID, 0)
	if err != nil || q != 1 {
		t.Errorf("genesis-only quality = %g, %v", q, err)
	}
}

func TestChainQualityUnknownTip(t *testing.T) {
	tree := blockchain.NewTree()
	if _, err := ChainQuality(tree, 42, 0); err == nil {
		t.Error("unknown tip accepted")
	}
}

func TestMainChainShare(t *testing.T) {
	tree := qualityTree(t)
	// Add a fork at block 1: 1 → 20 → 21.
	if err := tree.Add(&blockchain.Block{ID: 20, Parent: 1, Honest: false}); err != nil {
		t.Fatal(err)
	}
	if err := tree.Add(&blockchain.Block{ID: 21, Parent: 20, Honest: false}); err != nil {
		t.Fatal(err)
	}
	// 6 blocks, 4 of them on the main chain to the height-4 tip.
	if got := MainChainShare(tree); math.Abs(got-4.0/6) > 1e-15 {
		t.Errorf("main chain share = %g, want 2/3", got)
	}
}

func TestMainChainShareGenesisOnly(t *testing.T) {
	if MainChainShare(blockchain.NewTree()) != 1 {
		t.Error("genesis-only share should be 1")
	}
}

// TestGrowthMatchesTheoryHonestRun: with Δ=1 and a passive adversary, the
// longest chain grows by one whenever anyone mines, so the growth rate
// approaches P[some block] = 1−(1−p)ⁿ per round.
func TestGrowthMatchesTheoryHonestRun(t *testing.T) {
	pr := params.Params{N: 20, P: 0.002, Delta: 1, Nu: 0.25}
	e, err := engine.New(engine.Config{Params: pr, Rounds: 40000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := ChainGrowthRate(res.Records)
	want := 1 - math.Pow(1-pr.P, float64(pr.N)) // all n mine & publish promptly
	if math.Abs(got-want)/want > 0.1 {
		t.Errorf("growth rate %g, want ≈ %g", got, want)
	}
}

// TestQualityFairShareHonestRun: with everyone well-behaved, the honest
// share of main-chain blocks approaches µ.
func TestQualityFairShareHonestRun(t *testing.T) {
	pr := params.Params{N: 20, P: 0.002, Delta: 1, Nu: 0.25}
	e, err := engine.New(engine.Config{Params: pr, Rounds: 40000, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	q, err := ChainQuality(res.Tree, res.Tree.Best(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q-pr.Mu()) > 0.08 {
		t.Errorf("chain quality %g, want ≈ µ = %g", q, pr.Mu())
	}
}

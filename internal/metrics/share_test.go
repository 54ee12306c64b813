package metrics_test

import (
	"context"
	"math"
	"sort"
	"testing"

	"neatbound/internal/adversary"
	"neatbound/internal/blockchain"
	"neatbound/internal/engine"
	"neatbound/internal/metrics"
	"neatbound/internal/params"
	"neatbound/internal/rng"
	"neatbound/internal/sweep"
)

// refMainChainShare is the fork-statistics scan MainChainShare replaced,
// kept as its reference: the main chain ends at the last stored leaf in
// (height, ID) order, and its height over the non-genesis block count
// is the share.
func refMainChainShare(tree *blockchain.Tree) float64 {
	children := make(map[blockchain.BlockID]int)
	var stored []blockchain.BlockID
	for id := tree.Base(); id < blockchain.BlockID(tree.ArenaLen()); id++ {
		b, ok := tree.Get(id)
		if !ok {
			continue
		}
		stored = append(stored, id)
		if id != blockchain.GenesisID {
			children[b.Parent]++
		}
	}
	var tips []blockchain.BlockID
	for _, id := range stored {
		if children[id] == 0 {
			tips = append(tips, id)
		}
	}
	height := func(id blockchain.BlockID) int {
		h, err := tree.Height(id)
		if err != nil {
			return 0
		}
		return h
	}
	sort.Slice(tips, func(i, j int) bool {
		hi, hj := height(tips[i]), height(tips[j])
		return hi < hj || hi == hj && tips[i] < tips[j]
	})
	blocks := tree.Len() - 1
	if blocks == 0 {
		return 1
	}
	return float64(height(tips[len(tips)-1])) / float64(blocks)
}

// requireShareMatches fails unless MainChainShare is bit-equal to the
// reference scan on tree.
func requireShareMatches(t *testing.T, tree *blockchain.Tree, what string) {
	t.Helper()
	got, want := metrics.MainChainShare(tree), refMainChainShare(tree)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: MainChainShare = %v, reference scan = %v", what, got, want)
	}
}

// growForked adds n blocks to tree, each on a random stored descendant
// of the floor (biased to recent blocks, so branches both race and
// die), skipping an ID now and then. It returns the next free ID.
func growForked(t *testing.T, r *rng.Stream, tree *blockchain.Tree, next blockchain.BlockID, n int) blockchain.BlockID {
	t.Helper()
	for k := 0; k < n; k++ {
		var parent blockchain.BlockID
		for {
			lo := int(tree.Base())
			if span := int(next) - lo; span > 8 && r.Intn(4) != 0 {
				lo = int(next) - 8
			}
			parent = blockchain.BlockID(lo + r.Intn(int(next)-lo))
			if ok, _ := tree.IsAncestor(tree.Base(), parent); ok {
				break
			}
		}
		if r.Intn(10) == 0 {
			next++ // leave a hole
		}
		if err := tree.Add(&blockchain.Block{ID: next, Parent: parent, Honest: r.Intn(3) != 0}); err != nil {
			t.Fatal(err)
		}
		next++
	}
	return next
}

// TestMainChainShareMatchesScan: the O(1) share equals the deleted
// fork-statistics scan bit for bit on random forked trees, before and
// after compaction and on trees grown again past a compaction floor.
func TestMainChainShareMatchesScan(t *testing.T) {
	requireShareMatches(t, blockchain.NewTree(), "genesis only")
	r := rng.New(32)
	for trial := 0; trial < 250; trial++ {
		tree := blockchain.NewTree()
		next := growForked(t, r, tree, 1, 1+r.Intn(300))
		requireShareMatches(t, tree, "before compaction")
		for round := 0; round < 2; round++ {
			floorH := tree.FloorHeight() + r.Intn(tree.MaxHeight()-tree.FloorHeight()+1)
			floor, err := tree.AncestorAt(tree.Best(), floorH)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tree.CompactBelow(floor); err != nil {
				t.Fatal(err)
			}
			requireShareMatches(t, tree, "after compaction")
			next = growForked(t, r, tree, next, r.Intn(50))
			requireShareMatches(t, tree, "grown after compaction")
		}
	}
}

// TestMainChainShareMatchesScanOnRuns: every built-in adversary's RunOne
// report carries the reference scan's share of its final tree, with and
// without arena compaction.
func TestMainChainShareMatchesScanOnRuns(t *testing.T) {
	compacted := false
	for _, name := range adversary.Names() {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, compactEvery := range []int{0, 97} {
				pr, err := params.FromC(20, 4, 0.3, 1)
				if err != nil {
					t.Fatal(err)
				}
				adv, err := adversary.ByName(name, 3)
				if err != nil {
					t.Fatal(err)
				}
				rep, res, err := sweep.RunOne(context.Background(), engine.Config{
					Params: pr, Seed: seed, Adversary: adv, CompactEvery: compactEvery, CompactMinRetire: 8,
				}, sweep.Semantics{Rounds: 2000, T: 4, SampleEvery: 20, CheckerRetention: 2})
				if err != nil {
					t.Fatal(err)
				}
				got, want := rep.MainChainShare, refMainChainShare(res.Tree)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s seed %d compact %d: MainChainShare = %v, reference scan = %v", name, seed, compactEvery, got, want)
				}
				if res.Tree.LiveBlocks() < res.Tree.Len() {
					compacted = true
				}
			}
		}
	}
	if !compacted {
		t.Error("no run compacted its arena; the compacted case went unchecked")
	}
}

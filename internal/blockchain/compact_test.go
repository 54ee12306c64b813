package blockchain

import (
	"errors"
	"reflect"
	"testing"

	"neatbound/internal/rng"
)

// leaves returns the stored blocks without a stored child, in ID order.
func leaves(tree *Tree) []BlockID {
	parents := make(map[BlockID]bool)
	var ids []BlockID
	for id := tree.Base(); id < BlockID(tree.ArenaLen()); id++ {
		if b, ok := tree.Get(id); ok {
			ids = append(ids, id)
			if id != GenesisID {
				parents[b.Parent] = true
			}
		}
	}
	out := ids[:0]
	for _, id := range ids {
		if !parents[id] {
			out = append(out, id)
		}
	}
	return out
}

// TestCompactBelowQueryParity is the core compaction contract: every
// query about a floor-descendant block answers exactly the same before
// and after CompactBelow, and queries that would need retired blocks
// report ErrCompacted instead of guessing.
func TestCompactBelowQueryParity(t *testing.T) {
	r := rng.New(77)
	tree := buildRandomTree(t, r, 2000)
	best := tree.Best()
	floorHeight := tree.MaxHeight() / 2
	floor, err := tree.AncestorAt(best, floorHeight)
	if err != nil {
		t.Fatal(err)
	}

	n := tree.ArenaLen()
	desc := make([]bool, n) // does id descend from the floor?
	var descIDs, orphanIDs []BlockID
	for id := 0; id < n; id++ {
		ok, err := tree.IsAncestor(floor, BlockID(id))
		if err != nil {
			t.Fatal(err)
		}
		desc[id] = ok
		if ok {
			descIDs = append(descIDs, BlockID(id))
		} else if BlockID(id) >= floor {
			orphanIDs = append(orphanIDs, BlockID(id))
		}
	}

	// Record pre-compaction answers.
	preBlocks := make(map[BlockID]Block)
	preStats := make(map[BlockID][2]int)
	for _, id := range descIDs {
		b, ok := tree.Get(id)
		if !ok {
			t.Fatalf("descendant %d missing pre-compaction", id)
		}
		preBlocks[id] = b
		blocks, honest, err := tree.ChainStats(id)
		if err != nil {
			t.Fatal(err)
		}
		preStats[id] = [2]int{blocks, honest}
	}
	type pairAnswer struct {
		a, b   BlockID
		ca     BlockID
		anc    bool // IsAncestor(a, b)
		chop   int
		prefix bool // PrefixHolds(a, b, chop)
	}
	pairs := make([]pairAnswer, 0, 500)
	for i := 0; i < 500; i++ {
		pa := pairAnswer{
			a:    descIDs[r.Intn(len(descIDs))],
			b:    descIDs[r.Intn(len(descIDs))],
			chop: r.Intn(tree.MaxHeight() + 2),
		}
		if pa.ca, err = tree.CommonAncestor(pa.a, pa.b); err != nil {
			t.Fatal(err)
		}
		if pa.anc, err = tree.IsAncestor(pa.a, pa.b); err != nil {
			t.Fatal(err)
		}
		if pa.prefix, err = tree.PrefixHolds(pa.a, pa.b, pa.chop); err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pa)
	}
	preLen, preLive := tree.Len(), tree.LiveBlocks()
	preMax := tree.MaxHeight()
	var preTips []BlockID
	for _, tip := range leaves(tree) {
		if tip >= floor {
			preTips = append(preTips, tip)
		}
	}

	retired, err := tree.CompactBelow(floor)
	if err != nil {
		t.Fatal(err)
	}
	if retired != int(floor) {
		// The tree is ID-dense, so exactly the IDs 0..floor-1 retire.
		t.Errorf("retired %d blocks, want %d", retired, int(floor))
	}
	if tree.Base() != floor || tree.FloorHeight() != floorHeight {
		t.Errorf("base = %d (height %d), want %d (height %d)",
			tree.Base(), tree.FloorHeight(), floor, floorHeight)
	}
	if tree.Len() != preLen {
		t.Errorf("Len changed across compaction: %d → %d", preLen, tree.Len())
	}
	if tree.LiveBlocks() != preLive-retired {
		t.Errorf("LiveBlocks = %d, want %d", tree.LiveBlocks(), preLive-retired)
	}
	if tree.Best() != best || tree.MaxHeight() != preMax {
		t.Errorf("best changed: %d/%d, want %d/%d", tree.Best(), tree.MaxHeight(), best, preMax)
	}
	if got := leaves(tree); !reflect.DeepEqual(got, preTips) {
		t.Errorf("tips = %v, want surviving pre-tips %v", got, preTips)
	}

	// Retired IDs: absent from Get/Has, ErrCompacted from lookups.
	for _, id := range []BlockID{GenesisID, floor / 2, floor - 1} {
		if _, ok := tree.Get(id); ok {
			t.Errorf("retired block %d still Get-able", id)
		}
		if tree.Has(id) {
			t.Errorf("retired block %d still Has-able", id)
		}
		if _, err := tree.Height(id); !errors.Is(err, ErrCompacted) {
			t.Errorf("Height(%d) = %v, want ErrCompacted", id, err)
		}
	}
	if _, err := tree.Chain(best); !errors.Is(err, ErrCompacted) {
		t.Errorf("Chain after compaction = %v, want ErrCompacted", err)
	}

	// Floor descendants answer identically.
	for _, id := range descIDs {
		b, ok := tree.Get(id)
		if !ok || b != preBlocks[id] {
			t.Fatalf("Get(%d) = %+v ok=%v, want %+v", id, b, ok, preBlocks[id])
		}
		blocks, honest, err := tree.ChainStats(id)
		if err != nil {
			t.Fatalf("ChainStats(%d): %v", id, err)
		}
		if got := [2]int{blocks, honest}; got != preStats[id] {
			t.Fatalf("ChainStats(%d) = %v, want %v", id, got, preStats[id])
		}
	}
	for _, pa := range pairs {
		ca, err := tree.CommonAncestor(pa.a, pa.b)
		if err != nil || ca != pa.ca {
			t.Fatalf("CommonAncestor(%d, %d) = %d, %v; want %d", pa.a, pa.b, ca, err, pa.ca)
		}
		anc, err := tree.IsAncestor(pa.a, pa.b)
		if err != nil || anc != pa.anc {
			t.Fatalf("IsAncestor(%d, %d) = %v, %v; want %v", pa.a, pa.b, anc, err, pa.anc)
		}
		prefix, err := tree.PrefixHolds(pa.a, pa.b, pa.chop)
		if err != nil || prefix != pa.prefix {
			t.Fatalf("PrefixHolds(%d, %d, %d) = %v, %v; want %v",
				pa.a, pa.b, pa.chop, prefix, err, pa.prefix)
		}
	}
	// AncestorAt parity at heights the arena still covers; ErrCompacted
	// strictly below the floor.
	for i := 0; i < 200; i++ {
		id := descIDs[r.Intn(len(descIDs))]
		h := preBlocks[id].Height
		at := floorHeight + r.Intn(h-floorHeight+1)
		got, err := tree.AncestorAt(id, at)
		if err != nil {
			t.Fatalf("AncestorAt(%d, %d): %v", id, at, err)
		}
		if want := naiveAncestorAt(tree, id, at); got != want {
			t.Fatalf("AncestorAt(%d, %d) = %d, want %d", id, at, got, want)
		}
		if floorHeight > 0 {
			if _, err := tree.AncestorAt(id, r.Intn(floorHeight)); !errors.Is(err, ErrCompacted) {
				t.Fatalf("AncestorAt below floor = %v, want ErrCompacted", err)
			}
		}
	}

	// Orphans — blocks above the floor ID that fork below the floor —
	// stay readable, are never misreported as ancestors of live chains,
	// and refuse CommonAncestor (the meet point is retired).
	for i, id := range orphanIDs {
		if i == 10 {
			break
		}
		if _, ok := tree.Get(id); !ok {
			t.Fatalf("orphan %d missing after compaction", id)
		}
		anc, err := tree.IsAncestor(id, best)
		if err != nil || anc {
			t.Errorf("IsAncestor(orphan %d, best) = %v, %v; want false, nil", id, anc, err)
		}
		if _, err := tree.CommonAncestor(id, best); !errors.Is(err, ErrCompacted) {
			t.Errorf("CommonAncestor(orphan %d, best) = %v, want ErrCompacted", id, err)
		}
	}

	// A second epoch must keep spine accounting exact: ChainStats totals
	// are unchanged even though two retired spines now stack.
	floor2, err := tree.AncestorAt(best, preMax*3/4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.CompactBelow(floor2); err != nil {
		t.Fatal(err)
	}
	blocks, honest, err := tree.ChainStats(best)
	if err != nil {
		t.Fatal(err)
	}
	if got := [2]int{blocks, honest}; got != preStats[best] {
		t.Errorf("ChainStats(best) after second epoch = %v, want %v", got, preStats[best])
	}
	if tree.Len() != preLen {
		t.Errorf("Len changed across second epoch: %d → %d", preLen, tree.Len())
	}
}

// TestCompactBelowSparseIDs exercises arena holes: IDs need not be
// dense, and compaction must count and retire only present blocks.
func TestCompactBelowSparseIDs(t *testing.T) {
	tree := NewTree()
	parent := GenesisID
	for _, id := range []BlockID{2, 5, 9, 12} {
		if err := tree.Add(&Block{ID: id, Parent: parent, Honest: true}); err != nil {
			t.Fatal(err)
		}
		parent = id
	}
	if tree.Has(3) {
		t.Error("hole ID 3 reported present")
	}
	if _, err := tree.Height(3); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("Height(hole) = %v, want ErrUnknownBlock", err)
	}

	retired, err := tree.CompactBelow(9)
	if err != nil {
		t.Fatal(err)
	}
	if retired != 3 { // genesis, 2, 5 — not the holes
		t.Errorf("retired = %d, want 3", retired)
	}
	if tree.LiveBlocks() != 2 || tree.Len() != 5 {
		t.Errorf("live/len = %d/%d, want 2/5", tree.LiveBlocks(), tree.Len())
	}
	if tree.ArenaLen() != 13 {
		t.Errorf("ArenaLen = %d, want 13", tree.ArenaLen())
	}
	// Below the floor, holes and retired blocks are indistinguishable:
	// both report ErrCompacted.
	for _, id := range []BlockID{3, 5} {
		if _, err := tree.Height(id); !errors.Is(err, ErrCompacted) {
			t.Errorf("Height(%d) = %v, want ErrCompacted", id, err)
		}
	}
	// A hole above the floor is still just unknown.
	if _, err := tree.Height(10); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("Height(10) = %v, want ErrUnknownBlock", err)
	}
	if got, err := tree.AncestorAt(12, 3); err != nil || got != 9 {
		t.Errorf("AncestorAt(12, 3) = %d, %v; want 9", got, err)
	}
	if _, err := tree.AncestorAt(12, 2); !errors.Is(err, ErrCompacted) {
		t.Errorf("AncestorAt(12, 2) = %v, want ErrCompacted", err)
	}
	blocks, honest, err := tree.ChainStats(12)
	if err != nil || blocks != 4 || honest != 4 {
		t.Errorf("ChainStats(12) = %d, %d, %v; want 4, 4", blocks, honest, err)
	}
}

// TestCompactBelowValidation pins the error surface of CompactBelow.
func TestCompactBelowValidation(t *testing.T) {
	tree := NewTree()
	// Spine 1→2→3 with 5..8 on top (best = 8), plus block 4 forking off
	// block 1 — an orphan candidate once the floor passes height 1.
	buildLinear(t, tree, 3)
	if err := tree.Add(&Block{ID: 4, Parent: 1, Honest: true}); err != nil {
		t.Fatal(err)
	}
	parent := BlockID(3)
	for id := BlockID(5); id <= 8; id++ {
		if err := tree.Add(&Block{ID: id, Parent: parent, Honest: true}); err != nil {
			t.Fatal(err)
		}
		parent = id
	}

	if _, err := tree.CompactBelow(99); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("unknown floor: %v", err)
	}
	// A floor above the best block would let future mining retire the
	// best chain's own ancestry; the tree refuses.
	tree2 := NewTree()
	buildLinear(t, tree2, 3)
	if err := tree2.Add(&Block{ID: 4, Parent: 2, Honest: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := tree2.CompactBelow(4); err == nil {
		t.Error("floor above best accepted")
	}

	if n, err := tree.CompactBelow(GenesisID); n != 0 || err != nil {
		t.Errorf("genesis floor should be a no-op: %d, %v", n, err)
	}
	if _, err := tree.CompactBelow(3); err != nil {
		t.Fatal(err)
	}
	// Floor already retired.
	if _, err := tree.CompactBelow(2); !errors.Is(err, ErrCompacted) {
		t.Errorf("retired floor: %v", err)
	}
	// Same floor again: no-op.
	if n, err := tree.CompactBelow(3); n != 0 || err != nil {
		t.Errorf("repeat floor should be a no-op: %d, %v", n, err)
	}
	// Block 4 survived as an orphan (parent 1 is retired); it does not
	// descend from the floor, so it is not a legal floor itself.
	if !tree.Has(4) {
		t.Fatal("orphan 4 retired unexpectedly")
	}
	if _, err := tree.CompactBelow(4); err == nil {
		t.Error("orphan floor accepted")
	}

	// Add validations against the floor: retired parents are
	// ErrCompacted, retired IDs are duplicates, live tips extend fine.
	if err := tree.Add(&Block{ID: 9, Parent: 1}); !errors.Is(err, ErrCompacted) {
		t.Errorf("retired parent: %v", err)
	}
	if err := tree.Add(&Block{ID: 2, Parent: 8}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("retired ID reuse: %v", err)
	}
	if err := tree.Add(&Block{ID: 9, Parent: 8, Honest: true}); err != nil {
		t.Fatal(err)
	}
	if h, err := tree.Height(9); err != nil || h != 8 {
		t.Errorf("Height(9) = %d, %v; want 8", h, err)
	}
}

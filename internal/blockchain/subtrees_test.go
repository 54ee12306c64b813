package blockchain

import (
	"testing"

	"neatbound/internal/rng"
)

// growWithHoles adds n blocks to tree with IDs that skip ahead by up to
// two unused values each (arena holes), parents biased toward recent
// stored blocks with occasional deep forks. It returns the next free ID.
func growWithHoles(t *testing.T, r *rng.Stream, tree *Tree, next BlockID, n int) BlockID {
	t.Helper()
	var stored []BlockID
	for id := tree.Base(); id < BlockID(tree.ArenaLen()); id++ {
		if tree.Has(id) {
			stored = append(stored, id)
		}
	}
	for i := 0; i < n; i++ {
		next += BlockID(1 + r.Intn(3))
		var parent BlockID
		if r.Float64() < 0.85 {
			lo := len(stored) - 4
			if lo < 0 {
				lo = 0
			}
			parent = stored[lo+r.Intn(len(stored)-lo)]
		} else {
			parent = stored[r.Intn(len(stored))]
		}
		if err := tree.Add(&Block{ID: next, Parent: parent}); err != nil {
			t.Fatal(err)
		}
		stored = append(stored, next)
	}
	return next
}

// requireSubtreesMatch relabels tree into s and checks Contains against
// IsAncestor on every pair of IDs from below the base to past the arena
// end: stored pairs must agree, and any pair naming a hole, a retired or
// a never-seen ID must be false.
func requireSubtreesMatch(t *testing.T, tree *Tree, s *Subtrees) {
	t.Helper()
	tree.Subtrees(s)
	lo := BlockID(0)
	if tree.Base() > 2 {
		lo = tree.Base() - 2
	}
	hi := BlockID(tree.ArenaLen() + 2)
	for a := lo; a < hi; a++ {
		for b := lo; b < hi; b++ {
			want, err := tree.IsAncestor(a, b)
			if err != nil {
				want = false
			}
			if got := s.Contains(a, b); got != want {
				t.Fatalf("base %d: Contains(%d, %d) = %v, IsAncestor %v (%v)", tree.Base(), a, b, got, want, err)
			}
		}
	}
}

// TestSubtreesMatchIsAncestor pins the pre-order labelling against the
// skip-pointer ancestry it replaces in the consistency scans: random
// forked trees with ID holes, before and after compactions that leave
// orphan branches forking below the floor, relabelled into one reused
// Subtrees value as the arena shrinks and grows.
func TestSubtreesMatchIsAncestor(t *testing.T) {
	var s Subtrees
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.New(seed)
		tree := NewTree()
		next := growWithHoles(t, r, tree, GenesisID, 150)
		requireSubtreesMatch(t, tree, &s)
		orphans := 0
		for epoch := 0; epoch < 2; epoch++ {
			// Cut halfway up the tallest floor descendant (the best block
			// may sit on an orphan branch grown after the last epoch).
			top, topH := tree.Base(), tree.FloorHeight()
			for id := tree.Base(); id < BlockID(tree.ArenaLen()); id++ {
				h, err := tree.Height(id)
				if in, _ := tree.IsAncestor(tree.Base(), id); in && err == nil && h > topH {
					top, topH = id, h
				}
			}
			floor, err := tree.AncestorAt(top, (tree.FloorHeight()+topH)/2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tree.CompactBelow(floor); err != nil {
				t.Fatal(err)
			}
			for id := floor + 1; id < BlockID(tree.ArenaLen()); id++ {
				if in, err := tree.IsAncestor(floor, id); err == nil && !in {
					orphans++
				}
			}
			requireSubtreesMatch(t, tree, &s)
			next = growWithHoles(t, r, tree, next, 60)
			requireSubtreesMatch(t, tree, &s)
		}
		if orphans == 0 {
			t.Errorf("seed %d: no orphan branch survived compaction — the multi-root case is untested", seed)
		}
	}
}

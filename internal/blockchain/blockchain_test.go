package blockchain

import (
	"errors"
	"testing"
	"testing/quick"

	"neatbound/internal/rng"
)

// buildLinear adds a linear chain of n blocks on top of genesis with IDs
// 1..n and returns the tip.
func buildLinear(t *testing.T, tree *Tree, n int) BlockID {
	t.Helper()
	parent := GenesisID
	for i := 1; i <= n; i++ {
		b := &Block{ID: BlockID(i), Parent: parent, Miner: 0, Honest: true}
		if err := tree.Add(b); err != nil {
			t.Fatal(err)
		}
		parent = b.ID
	}
	return parent
}

func TestNewTreeHasGenesis(t *testing.T) {
	tree := NewTree()
	if tree.Len() != 1 {
		t.Fatalf("new tree has %d blocks", tree.Len())
	}
	g, ok := tree.Get(GenesisID)
	if !ok || g.Height != 0 || g.Miner != -1 {
		t.Fatalf("genesis malformed: %+v ok=%v", g, ok)
	}
}

func TestAddValidations(t *testing.T) {
	tree := NewTree()
	if err := tree.Add(&Block{ID: GenesisID, Parent: GenesisID}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("re-adding genesis: %v", err)
	}
	if err := tree.Add(&Block{ID: 1, Parent: 99}); !errors.Is(err, ErrUnknownParent) {
		t.Errorf("unknown parent: %v", err)
	}
	if err := tree.Add(&Block{ID: 1, Parent: GenesisID}); err != nil {
		t.Fatal(err)
	}
	if err := tree.Add(&Block{ID: 1, Parent: GenesisID}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate ID: %v", err)
	}
	if err := tree.Add(&Block{ID: 2, Parent: GenesisID, Height: 7}); err == nil {
		t.Error("wrong explicit height accepted")
	}
	if err := tree.Add(&Block{ID: 2, Parent: 1, Height: 2}); err != nil {
		t.Errorf("correct explicit height rejected: %v", err)
	}
}

func TestHeightsAutoFilled(t *testing.T) {
	tree := NewTree()
	tip := buildLinear(t, tree, 5)
	h, err := tree.Height(tip)
	if err != nil || h != 5 {
		t.Fatalf("tip height = %d, %v", h, err)
	}
	if _, err := tree.Height(BlockID(999)); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("unknown height: %v", err)
	}
}

func TestChain(t *testing.T) {
	tree := NewTree()
	tip := buildLinear(t, tree, 3)
	chain, err := tree.Chain(tip)
	if err != nil {
		t.Fatal(err)
	}
	want := []BlockID{GenesisID, 1, 2, 3}
	if len(chain) != len(want) {
		t.Fatalf("chain %v", chain)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain[%d] = %d, want %d", i, chain[i], want[i])
		}
	}
	if _, err := tree.Chain(BlockID(42)); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("chain of unknown block: %v", err)
	}
}

// forkedTree builds genesis → 1 → 2 → 3 (tip height 3) and a longer fork
// genesis → 1 → 10 → 11 → 12 (tip height 4).
func forkedTree(t *testing.T) *Tree {
	t.Helper()
	tree := NewTree()
	add := func(id, parent BlockID) {
		t.Helper()
		if err := tree.Add(&Block{ID: id, Parent: parent, Honest: true}); err != nil {
			t.Fatal(err)
		}
	}
	add(1, GenesisID)
	add(2, 1)
	add(3, 2)
	add(10, 1)
	add(11, 10)
	add(12, 11)
	return tree
}

func TestAncestorAt(t *testing.T) {
	tree := forkedTree(t)
	if id, err := tree.AncestorAt(3, 1); err != nil || id != 1 {
		t.Errorf("AncestorAt(3,1) = %d, %v", id, err)
	}
	if id, err := tree.AncestorAt(12, 2); err != nil || id != 10 {
		t.Errorf("AncestorAt(12,2) = %d, %v", id, err)
	}
	if id, err := tree.AncestorAt(3, 3); err != nil || id != 3 {
		t.Errorf("AncestorAt(3,3) = %d, %v", id, err)
	}
	if _, err := tree.AncestorAt(3, 4); err == nil {
		t.Error("height above tip accepted")
	}
	if _, err := tree.AncestorAt(3, -1); err == nil {
		t.Error("negative height accepted")
	}
}

func TestIsAncestor(t *testing.T) {
	tree := forkedTree(t)
	cases := []struct {
		a, b BlockID
		want bool
	}{
		{GenesisID, 3, true},
		{1, 12, true},
		{2, 12, false},
		{3, 3, true},
		{12, 3, false},
		{10, 3, false},
	}
	for _, c := range cases {
		got, err := tree.IsAncestor(c.a, c.b)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("IsAncestor(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if _, err := tree.IsAncestor(99, 3); err == nil {
		t.Error("unknown a accepted")
	}
	if _, err := tree.IsAncestor(3, 99); err == nil {
		t.Error("unknown b accepted")
	}
}

func TestCommonAncestor(t *testing.T) {
	tree := forkedTree(t)
	if id, err := tree.CommonAncestor(3, 12); err != nil || id != 1 {
		t.Errorf("CommonAncestor(3,12) = %d, %v; want 1", id, err)
	}
	if id, err := tree.CommonAncestor(2, 3); err != nil || id != 2 {
		t.Errorf("CommonAncestor(2,3) = %d, %v; want 2", id, err)
	}
	if id, err := tree.CommonAncestor(12, 12); err != nil || id != 12 {
		t.Errorf("CommonAncestor(12,12) = %d, %v", id, err)
	}
	if _, err := tree.CommonAncestor(99, 3); err == nil {
		t.Error("unknown block accepted")
	}
}

func TestPrefixHolds(t *testing.T) {
	tree := forkedTree(t)
	// Chains diverge after block 1 (height 1). Chain(3) has height 3, so
	// chopping 2 leaves height 1, which is an ancestor of 12.
	if ok, err := tree.PrefixHolds(3, 12, 2); err != nil || !ok {
		t.Errorf("PrefixHolds(3,12,2) = %v, %v; want true", ok, err)
	}
	// Chopping only 1 leaves height 2 (= block 2), not an ancestor of 12.
	if ok, err := tree.PrefixHolds(3, 12, 1); err != nil || ok {
		t.Errorf("PrefixHolds(3,12,1) = %v, %v; want false", ok, err)
	}
	// Chop beyond length is vacuous.
	if ok, err := tree.PrefixHolds(3, 12, 10); err != nil || !ok {
		t.Errorf("PrefixHolds(3,12,10) = %v, %v; want true", ok, err)
	}
	// A chain is always a chopped prefix of itself.
	if ok, err := tree.PrefixHolds(12, 12, 0); err != nil || !ok {
		t.Errorf("PrefixHolds(12,12,0) = %v, %v; want true", ok, err)
	}
	// Same chain, a is a strict prefix of b even with chop 0.
	if ok, err := tree.PrefixHolds(2, 3, 0); err != nil || !ok {
		t.Errorf("PrefixHolds(2,3,0) = %v, %v; want true", ok, err)
	}
	if _, err := tree.PrefixHolds(99, 3, 0); err == nil {
		t.Error("unknown tip accepted")
	}
}

func TestMaxHeight(t *testing.T) {
	tree := forkedTree(t)
	if got := tree.MaxHeight(); got != 4 {
		t.Errorf("MaxHeight = %d, want 4", got)
	}
	if got := NewTree().MaxHeight(); got != 0 {
		t.Errorf("genesis MaxHeight = %d", got)
	}
}

func TestAdoptLongestChainRule(t *testing.T) {
	tree := forkedTree(t)
	// candidate higher ⇒ switch.
	got, err := tree.Adopt(2, 12)
	if err != nil || got != 12 {
		t.Errorf("Adopt(2,12) = %d, %v", got, err)
	}
	// tie (3 and 11 both at height 3) ⇒ keep current.
	got, err = tree.Adopt(3, 11)
	if err != nil || got != 3 {
		t.Errorf("Adopt(3,11) = %d, %v (tie must keep current)", got, err)
	}
	// candidate lower ⇒ keep.
	got, err = tree.Adopt(12, 2)
	if err != nil || got != 12 {
		t.Errorf("Adopt(12,2) = %d, %v", got, err)
	}
	if _, err := tree.Adopt(99, 2); err == nil {
		t.Error("unknown current accepted")
	}
	if _, err := tree.Adopt(2, 99); err == nil {
		t.Error("unknown candidate accepted")
	}
}

func TestAdoptIdempotentAndOrderInvariant(t *testing.T) {
	// Folding Adopt over any permutation of tips must land on a maximal-
	// height block; with distinct heights the result is unique.
	tree := NewTree()
	tipA := buildLinear(t, tree, 6)
	// Strictly shorter fork off block 2: tips at heights 3..5 < 6.
	parent := BlockID(2)
	for i := 100; i < 103; i++ {
		b := &Block{ID: BlockID(i), Parent: parent, Honest: true}
		if err := tree.Add(b); err != nil {
			t.Fatal(err)
		}
		parent = b.ID
	}
	tips := []BlockID{tipA, parent, 3, 101}
	r := rng.New(5)
	for trial := 0; trial < 50; trial++ {
		cur := GenesisID
		perm := r.Perm(len(tips))
		for _, i := range perm {
			var err error
			cur, err = tree.Adopt(cur, tips[i])
			if err != nil {
				t.Fatal(err)
			}
		}
		if cur != tipA {
			t.Fatalf("fold over %v adopted %d, want %d", perm, cur, tipA)
		}
		// Idempotence.
		again, _ := tree.Adopt(cur, cur)
		if again != cur {
			t.Fatal("Adopt not idempotent")
		}
	}
}

func TestChopLast(t *testing.T) {
	chain := []BlockID{0, 1, 2, 3, 4}
	if got := ChopLast(chain, 2); len(got) != 3 || got[2] != 2 {
		t.Errorf("ChopLast(…,2) = %v", got)
	}
	if got := ChopLast(chain, 0); len(got) != 5 {
		t.Errorf("ChopLast(…,0) = %v", got)
	}
	if got := ChopLast(chain, 5); len(got) != 0 {
		t.Errorf("ChopLast(…,5) = %v", got)
	}
	if got := ChopLast(chain, 99); len(got) != 0 {
		t.Errorf("ChopLast(…,99) = %v", got)
	}
	if got := ChopLast(chain, -1); len(got) != 5 {
		t.Errorf("ChopLast(…,-1) = %v", got)
	}
}

func TestHasPrefix(t *testing.T) {
	chain := []BlockID{0, 1, 2, 3}
	if !HasPrefix(chain, []BlockID{0, 1}) {
		t.Error("true prefix rejected")
	}
	if !HasPrefix(chain, nil) {
		t.Error("empty prefix rejected")
	}
	if HasPrefix(chain, []BlockID{0, 2}) {
		t.Error("non-prefix accepted")
	}
	if HasPrefix(chain, []BlockID{0, 1, 2, 3, 4}) {
		t.Error("longer prefix accepted")
	}
}

// Property: ChopLast output is always a prefix of the input.
func TestQuickChopIsPrefix(t *testing.T) {
	f := func(lenRaw uint8, chopRaw uint8) bool {
		n := int(lenRaw % 50)
		chain := make([]BlockID, n)
		for i := range chain {
			chain[i] = BlockID(i)
		}
		chopped := ChopLast(chain, int(chopRaw%60))
		return HasPrefix(chain, chopped)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: on a random tree, PrefixHolds(a, b, chop) agrees with the
// definition computed via explicit chains.
func TestQuickPrefixHoldsMatchesDefinition(t *testing.T) {
	f := func(seed uint64, chopRaw uint8) bool {
		r := rng.New(seed)
		tree := NewTree()
		ids := []BlockID{GenesisID}
		for i := 1; i <= 30; i++ {
			parent := ids[r.Intn(len(ids))]
			b := &Block{ID: BlockID(i), Parent: parent, Honest: true}
			if err := tree.Add(b); err != nil {
				return false
			}
			ids = append(ids, b.ID)
		}
		a := ids[r.Intn(len(ids))]
		b := ids[r.Intn(len(ids))]
		chop := int(chopRaw % 35)
		got, err := tree.PrefixHolds(a, b, chop)
		if err != nil {
			return false
		}
		chainA, err1 := tree.Chain(a)
		chainB, err2 := tree.Chain(b)
		if err1 != nil || err2 != nil {
			return false
		}
		want := HasPrefix(chainB, ChopLast(chainA, chop))
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: CommonAncestor is symmetric and is an ancestor of both.
func TestQuickCommonAncestor(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		tree := NewTree()
		ids := []BlockID{GenesisID}
		for i := 1; i <= 25; i++ {
			parent := ids[r.Intn(len(ids))]
			if err := tree.Add(&Block{ID: BlockID(i), Parent: parent}); err != nil {
				return false
			}
			ids = append(ids, BlockID(i))
		}
		a := ids[r.Intn(len(ids))]
		b := ids[r.Intn(len(ids))]
		ab, err1 := tree.CommonAncestor(a, b)
		ba, err2 := tree.CommonAncestor(b, a)
		if err1 != nil || err2 != nil || ab != ba {
			return false
		}
		okA, _ := tree.IsAncestor(ab, a)
		okB, _ := tree.IsAncestor(ab, b)
		return okA && okB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTreeAdd(b *testing.B) {
	tree := NewTree()
	parent := GenesisID
	for i := 0; i < b.N; i++ {
		id := BlockID(i + 1)
		if err := tree.Add(&Block{ID: id, Parent: parent}); err != nil {
			b.Fatal(err)
		}
		parent = id
	}
}

func BenchmarkPrefixHolds(b *testing.B) {
	tree := NewTree()
	parent := GenesisID
	for i := 1; i <= 10000; i++ {
		id := BlockID(i)
		if err := tree.Add(&Block{ID: id, Parent: parent}); err != nil {
			b.Fatal(err)
		}
		parent = id
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tree.PrefixHolds(parent, parent, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// Package blockchain provides the chain substrate of Nakamoto's protocol
// as modeled in Section III of the paper: blocks are abstract records
// (their messages are not stored), every player maintains a local chain
// C, and honest players adopt the longest chain they have seen. The
// package stores all mined blocks in a Tree (the global block DAG is a
// tree because every block names one parent) and offers the prefix
// predicates that the consistency property (Definition 1) is stated in.
//
// Storage is a struct-of-arrays arena indexed directly by BlockID: the
// mining substrate hands out sequential IDs starting at 1 (genesis is 0),
// so id−base is a direct slice index into flat parallel columns
// (parent/jump/height/miner) plus packed present/honest bit flags — no
// per-block heap object, no pointer chase, ~24 bytes per block. Every
// Add also maintains a skip pointer per block (binary-lifting style, one
// pointer per node), so the ancestor queries — AncestorAt, IsAncestor,
// CommonAncestor, PrefixHolds — run in O(log height) instead of
// O(height) parent walks. For the many-pair questions of a finished
// run, Subtrees labels the read-only arena in pre-order once, in O(live
// blocks), after which each ancestry test is one integer comparison;
// the consistency checker's pairwise scans use it.
//
// CompactBelow retires the ID prefix strictly below a floor block: IDs
// stay stable while the storage index rebases behind an O(1) offset
// (base), so long runs whose live suffix is bounded run in bounded
// resident memory. The floor must be a common ancestor of everything
// the caller will ever query again (the engine computes it as the
// common ancestor of every live tip, capped by observer retention);
// queries that would cross the floor return ErrCompacted — exact answer
// or explicit error, never silently wrong. Compaction assumes
// ID-monotonic ancestry (every child's ID exceeds its parent's), which
// the sequential allocator guarantees.
package blockchain

import (
	"errors"
	"fmt"
	"math/bits"
)

// BlockID identifies a block. IDs are assigned by the mining substrate;
// the genesis block has ID GenesisID.
type BlockID uint64

// GenesisID is the ID of the unique genesis block present in every Tree.
const GenesisID BlockID = 0

// Block is an abstract record in the blockchain. Height and parent links
// are validated by Tree.Add. Get returns blocks by value, assembled from
// the arena columns.
type Block struct {
	// ID uniquely identifies the block.
	ID BlockID
	// Parent is the block this one extends.
	Parent BlockID
	// Height is the distance from genesis (genesis has height 0).
	Height int
	// Miner is the index of the mining player, or -1 for genesis.
	Miner int
	// Honest records whether the miner was honest when the block was
	// mined. It feeds the chain-quality metric.
	Honest bool
}

// Common errors returned by Tree operations.
var (
	ErrUnknownParent = errors.New("blockchain: parent block not in tree")
	ErrDuplicateID   = errors.New("blockchain: block ID already present")
	ErrUnknownBlock  = errors.New("blockchain: block not in tree")
	// ErrCompacted reports that a query touched a block retired by
	// CompactBelow — either the queried ID itself is below the floor, or
	// answering exactly would require walking ancestry the arena no
	// longer holds.
	ErrCompacted = errors.New("blockchain: block retired by compaction")
)

// Tree is an append-only store of all blocks ever mined, rooted at
// genesis. It is not safe for concurrent mutation; the engine serializes
// writes per round.
//
// All per-block state lives in parallel slices indexed by id−base. IDs
// are expected to be (nearly) dense — the arena grows to the largest ID
// seen — which matches the sequential IDAllocator; sparse test IDs
// simply leave unset holes in the present bitset.
type Tree struct {
	// base is the lowest ID the arena still stores; IDs below it were
	// retired by CompactBelow. Storage index of id is id−base.
	base BlockID
	// parent[i] is the parent ID of block base+i (absolute, may be below
	// base for the floor block and for orphan branches that fork below
	// it).
	parent []BlockID
	// jump[i] is the skip pointer of block base+i: an ancestor chosen so
	// that following jump links visits O(log height) nodes on the way to
	// any target height (the one-pointer variant of binary lifting: the
	// jump distance doubles exactly when the two previous jumps covered
	// equal distances). After a compaction the floor acts as virtual
	// genesis (jump = self) and jumps are rebuilt against it; orphan
	// blocks keep a retired jump target and degrade to parent walks.
	jump []BlockID
	// height and miner are the remaining per-block columns. int32 bounds
	// heights at ~2.1e9 and player counts likewise — far beyond any
	// simulated horizon — at half the memory.
	height []int32
	miner  []int32
	// present and honest are packed bit flags, indexed by storage index.
	present []uint64
	honest  []uint64
	// count is the number of blocks ever added including retired ones
	// (Len is stable across compaction); live counts stored blocks.
	count int
	live  int
	// bestID/bestHeight track the highest block (ties keep the earlier
	// arrival), updated incrementally on Add so Best is O(1). The best
	// block is never retired: the engine folds it into the watermark.
	bestID     BlockID
	bestHeight int
	// floorHeight is the height of the floor block base (0 before any
	// compaction, when base is genesis).
	floorHeight int
	// spineBlocks/spineHonest count the non-genesis ancestors of the
	// floor, floor included (0 while base is genesis) — the retired
	// prefix every live chain shares, so ChainStats stays exact across
	// compaction.
	spineBlocks int
	spineHonest int
}

// NewTree returns a Tree containing only the genesis block.
func NewTree() *Tree {
	t := &Tree{
		parent:  []BlockID{GenesisID},
		jump:    []BlockID{GenesisID},
		height:  []int32{0},
		miner:   []int32{-1},
		present: []uint64{0},
		honest:  []uint64{0},
		count:   1,
		live:    1,
		bestID:  GenesisID,
	}
	bitSet(t.present, 0)
	bitSet(t.honest, 0)
	return t
}

// bitGet reports bit i of the packed flag array.
func bitGet(words []uint64, i int) bool {
	return words[i>>6]&(1<<(uint(i)&63)) != 0
}

// bitSet sets bit i of the packed flag array.
func bitSet(words []uint64, i int) {
	words[i>>6] |= 1 << (uint(i) & 63)
}

// index returns the storage index of id, reporting presence.
func (t *Tree) index(id BlockID) (int, bool) {
	if id < t.base {
		return 0, false
	}
	i := int(id - t.base)
	if i >= len(t.parent) || !bitGet(t.present, i) {
		return 0, false
	}
	return i, true
}

// lookup is index with the error split the query API reports: retired
// IDs are ErrCompacted, never-seen IDs are ErrUnknownBlock.
func (t *Tree) lookup(id BlockID) (int, error) {
	if id < t.base {
		return 0, fmt.Errorf("%w: %d", ErrCompacted, id)
	}
	i, ok := t.index(id)
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownBlock, id)
	}
	return i, nil
}

// blockAt assembles the Block value stored at index i.
func (t *Tree) blockAt(i int) Block {
	return Block{
		ID:     t.base + BlockID(i),
		Parent: t.parent[i],
		Height: int(t.height[i]),
		Miner:  int(t.miner[i]),
		Honest: bitGet(t.honest, i),
	}
}

// Len returns the number of blocks ever added including genesis — stable
// across compaction, which retires storage but not history.
func (t *Tree) Len() int { return t.count }

// LiveBlocks returns the number of blocks currently stored in the arena
// (Len minus compaction-retired blocks).
func (t *Tree) LiveBlocks() int { return t.live }

// Base returns the floor of the arena: the lowest ID still stored.
// GenesisID before any compaction.
func (t *Tree) Base() BlockID { return t.base }

// FloorHeight returns the height of the floor block (0 before any
// compaction).
func (t *Tree) FloorHeight() int { return t.floorHeight }

// Get returns the block with the given ID by value. Retired and unknown
// IDs both report false; use Height or lookup-style queries to tell them
// apart.
func (t *Tree) Get(id BlockID) (Block, bool) {
	i, ok := t.index(id)
	if !ok {
		return Block{}, false
	}
	return t.blockAt(i), true
}

// Has reports whether id is currently stored — the allocation-free
// presence probe the delivery hot path uses.
func (t *Tree) Has(id BlockID) bool {
	_, ok := t.index(id)
	return ok
}

// grow extends the arena columns so that storage index i is valid.
func (t *Tree) grow(i int) {
	n := i + 1
	if len(t.parent) >= n {
		return
	}
	t.parent = extend(t.parent, n)
	t.jump = extend(t.jump, n)
	t.height = extend(t.height, n)
	t.miner = extend(t.miner, n)
	words := (n + 63) >> 6
	t.present = extend(t.present, words)
	t.honest = extend(t.honest, words)
}

// extend appends zeros to s up to length n. Element by element, so no
// temporary slice is allocated even where the compiler does not fuse
// append(s, make(...)...) (race builds): the arena usually grows by
// one slot per block.
func extend[T any](s []T, n int) []T {
	var zero T
	for len(s) < n {
		s = append(s, zero)
	}
	return s
}

// Add inserts a block. The parent must exist, the ID must be new and
// non-genesis, and the height must be parent height + 1 (it is filled in
// when zero). Re-using an ID below the compaction floor is rejected as a
// duplicate; extending a retired parent is ErrCompacted.
func (t *Tree) Add(b *Block) error {
	if b.ID == GenesisID {
		return fmt.Errorf("%w: cannot re-add genesis", ErrDuplicateID)
	}
	if b.ID < t.base {
		return fmt.Errorf("%w: %d", ErrDuplicateID, b.ID)
	}
	if _, ok := t.index(b.ID); ok {
		return fmt.Errorf("%w: %d", ErrDuplicateID, b.ID)
	}
	if b.Parent < t.base {
		return fmt.Errorf("%w: parent %d", ErrCompacted, b.Parent)
	}
	pi, ok := t.index(b.Parent)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownParent, b.Parent)
	}
	ph := int(t.height[pi])
	if b.Height == 0 {
		b.Height = ph + 1
	} else if b.Height != ph+1 {
		return fmt.Errorf("blockchain: block %d height %d, parent height %d", b.ID, b.Height, ph)
	}
	i := int(b.ID - t.base)
	t.grow(i)
	t.parent[i] = b.Parent
	t.height[i] = int32(b.Height)
	t.miner[i] = int32(b.Miner)
	bitSet(t.present, i)
	if b.Honest {
		bitSet(t.honest, i)
	}
	t.count++
	t.live++
	// Skip pointer: double the jump distance when the parent's last two
	// jumps covered equal distances, else fall back to the parent. The
	// jump target's height is a function of the block's height alone
	// (offset by the floor after a compaction), so equal-height blocks on
	// live chains always carry equal-height jump targets — which is what
	// lets CommonAncestor advance both sides in lockstep. Orphan branches
	// whose jumps were retired degrade to the parent fallback.
	jumpTo := b.Parent
	if jp := t.jump[pi]; jp >= t.base {
		jpi := int(jp - t.base)
		if jjp := t.jump[jpi]; jjp >= t.base {
			jjpi := int(jjp - t.base)
			if int32(ph)-t.height[jpi] == t.height[jpi]-t.height[jjpi] {
				jumpTo = jjp
			}
		}
	}
	t.jump[i] = jumpTo
	if b.Height > t.bestHeight {
		t.bestHeight = b.Height
		t.bestID = b.ID
	}
	return nil
}

// Best returns the highest block in the tree in O(1) (first-added wins
// ties). It is the chain an omniscient longest-chain miner extends.
func (t *Tree) Best() BlockID { return t.bestID }

// Height returns the height of the block, or an error if unknown or
// retired.
func (t *Tree) Height(id BlockID) (int, error) {
	i, err := t.lookup(id)
	if err != nil {
		return 0, err
	}
	return int(t.height[i]), nil
}

// Chain returns the block IDs from genesis to tip inclusive. After a
// compaction the genesis-rooted walk no longer resolves and the call
// reports ErrCompacted; use ChainStats for the aggregate the metrics
// need.
func (t *Tree) Chain(tip BlockID) ([]BlockID, error) {
	i, err := t.lookup(tip)
	if err != nil {
		return nil, err
	}
	if t.base != GenesisID {
		return nil, fmt.Errorf("%w: chain below floor %d", ErrCompacted, t.base)
	}
	out := make([]BlockID, int(t.height[i])+1)
	id := tip
	for {
		out[t.height[i]] = id
		if id == GenesisID {
			return out, nil
		}
		id = t.parent[i]
		i = int(id - t.base)
	}
}

// ChainStats returns the number of non-genesis blocks on the chain
// ending at tip and how many of them are honest — the aggregates
// chain-quality scoring needs — in O(live chain length), exact across
// compaction: the retired spine below the floor is carried in counters.
func (t *Tree) ChainStats(tip BlockID) (blocks, honest int, err error) {
	if _, err := t.lookup(tip); err != nil {
		return 0, 0, err
	}
	for id := tip; id != t.base; {
		i := int(id - t.base)
		blocks++
		if bitGet(t.honest, i) {
			honest++
		}
		p := t.parent[i]
		if p < t.base {
			return 0, 0, fmt.Errorf("%w: chain from %d forks below floor %d", ErrCompacted, tip, t.base)
		}
		id = p
	}
	return blocks + t.spineBlocks, honest + t.spineHonest, nil
}

// ancestorAt returns the storage index of the ancestor of index i at the
// given height, assuming height ≤ its height. It descends via skip
// pointers, falling back to the parent link when a jump would overshoot
// — O(log height) steps. Crossing the compaction floor reports
// ErrCompacted.
func (t *Tree) ancestorAt(i int, height int) (int, error) {
	for int(t.height[i]) > height {
		if j := t.jump[i]; j >= t.base {
			ji := int(j - t.base)
			if ji != i && int(t.height[ji]) >= height {
				i = ji
				continue
			}
		}
		p := t.parent[i]
		if p < t.base {
			return 0, fmt.Errorf("%w: ancestor below floor %d", ErrCompacted, t.base)
		}
		i = int(p - t.base)
	}
	return i, nil
}

// AncestorAt returns the ancestor of tip at the given height (genesis is
// height 0). It errors when height exceeds tip's height or the ancestor
// was retired by compaction.
func (t *Tree) AncestorAt(tip BlockID, height int) (BlockID, error) {
	i, err := t.lookup(tip)
	if err != nil {
		return 0, err
	}
	if height < 0 || height > int(t.height[i]) {
		return 0, fmt.Errorf("blockchain: height %d outside [0, %d]", height, t.height[i])
	}
	a, err := t.ancestorAt(i, height)
	if err != nil {
		return 0, err
	}
	return t.base + BlockID(a), nil
}

// IsAncestor reports whether a lies on the path from genesis to b
// (a block is an ancestor of itself). A stored a whose height b's chain
// only reaches below the floor is reported as not an ancestor.
func (t *Tree) IsAncestor(a, b BlockID) (bool, error) {
	ia, err := t.lookup(a)
	if err != nil {
		return false, err
	}
	ib, err := t.lookup(b)
	if err != nil {
		return false, err
	}
	if t.height[ia] > t.height[ib] {
		return false, nil
	}
	anc, err := t.ancestorAt(ib, int(t.height[ia]))
	if err != nil {
		// b's ancestor at a's height is retired, and a is stored — they
		// cannot be the same block.
		return false, nil
	}
	return anc == ia, nil
}

// CommonAncestor returns the deepest block that is an ancestor of both a
// and b. When the meet point was retired by compaction (both sides fork
// below the floor) it reports ErrCompacted.
func (t *Tree) CommonAncestor(a, b BlockID) (BlockID, error) {
	ia, err := t.lookup(a)
	if err != nil {
		return 0, err
	}
	ib, err := t.lookup(b)
	if err != nil {
		return 0, err
	}
	// Level the heights, then descend in lockstep: equal-height blocks on
	// live chains have equal-height jump targets, so either both jumps
	// stay above the common ancestor (take them) or both would overshoot
	// (step parents). The jump step additionally verifies both targets
	// are stored at equal heights, so orphan branches with degraded jumps
	// fall back to exact parent steps.
	if t.height[ia] > t.height[ib] {
		if ia, err = t.ancestorAt(ia, int(t.height[ib])); err != nil {
			return 0, err
		}
	} else if t.height[ib] > t.height[ia] {
		if ib, err = t.ancestorAt(ib, int(t.height[ia])); err != nil {
			return 0, err
		}
	}
	for ia != ib {
		ja, jb := t.jump[ia], t.jump[ib]
		if ja != jb && ja >= t.base && jb >= t.base {
			jia, jib := int(ja-t.base), int(jb-t.base)
			if jia != ia && t.height[jia] == t.height[jib] {
				// Distinct equal-height ancestors: the meet is strictly
				// lower, so jumping both sides cannot overshoot it.
				ia, ib = jia, jib
				continue
			}
		}
		pa, pb := t.parent[ia], t.parent[ib]
		if pa < t.base || pb < t.base {
			return 0, fmt.Errorf("%w: common ancestor below floor %d", ErrCompacted, t.base)
		}
		ia, ib = int(pa-t.base), int(pb-t.base)
	}
	return t.base + BlockID(ia), nil
}

// PrefixHolds reports whether all but the last chop blocks of the chain
// ending at tipA form a prefix of the chain ending at tipB — the core
// predicate of Definition 1 with chop = T. A chop larger than the chain
// length makes the predicate vacuously true. Under compaction the
// answer is exact whenever the anchors resolve; a cut whose anchors were
// both retired reports ErrCompacted rather than guessing.
func (t *Tree) PrefixHolds(tipA, tipB BlockID, chop int) (bool, error) {
	ia, err := t.lookup(tipA)
	if err != nil {
		return false, err
	}
	ib, err := t.lookup(tipB)
	if err != nil {
		return false, err
	}
	cut := int(t.height[ia]) - chop
	if cut <= 0 {
		return true, nil // only genesis (or nothing) remains after chopping
	}
	if cut > int(t.height[ib]) {
		return false, nil // chain(tipB) is too short to contain the prefix
	}
	if t.base != GenesisID && cut <= t.floorHeight {
		// The anchor height sits at or below the floor. Chains descending
		// from the floor share every block there, so two floor
		// descendants agree; anything else would need retired blocks.
		fa, errA := t.ancestorAt(ia, t.floorHeight)
		fb, errB := t.ancestorAt(ib, t.floorHeight)
		if errA == nil && errB == nil && fa == 0 && fb == 0 {
			return true, nil
		}
		return false, fmt.Errorf("%w: prefix anchor below floor %d", ErrCompacted, t.base)
	}
	aAnchor, errA := t.ancestorAt(ia, cut)
	bAnchor, errB := t.ancestorAt(ib, cut)
	if errA != nil && errB != nil {
		return false, fmt.Errorf("%w: prefix anchors below floor %d", ErrCompacted, t.base)
	}
	if errA != nil || errB != nil {
		// Exactly one anchor is retired, the other stored — they differ.
		return false, nil
	}
	return aAnchor == bAnchor, nil
}

// Subtrees is a pre-order labelling of a Tree's live arena: every
// stored block gets an interval [pre, end) that holds exactly the labels
// of its stored descendants, itself included. It answers ancestry in one
// integer comparison, for as long as the tree it was built from is not
// mutated; Tree.Subtrees (re)builds it in place, reusing its buffers.
type Subtrees struct {
	base BlockID
	// pre and end are indexed by storage index, like the Tree columns;
	// holes carry the empty interval [-1, -1).
	pre, end []int32
}

// Subtrees labels the live arena into s in O(live blocks), reusing s's
// buffers. Ancestry is ID-monotonic, so two flat passes suffice: a
// reverse-ID pass sums subtree sizes into end, then a forward-ID pass
// hands each block the next free label under its parent (a block whose
// parent is retired — the floor, an orphan branch — starts a new root).
// While the forward pass runs, end[p] doubles as parent p's cursor:
// once p's last child is placed it has advanced to pre[p] + size(p).
func (t *Tree) Subtrees(s *Subtrees) {
	n := len(t.parent)
	s.base = t.base
	s.pre = append(s.pre[:0], make([]int32, n)...)
	s.end = append(s.end[:0], make([]int32, n)...)
	for i := n - 1; i >= 0; i-- {
		if !bitGet(t.present, i) {
			continue
		}
		s.end[i]++
		if p := t.parent[i]; i > 0 && p >= t.base {
			s.end[p-t.base] += s.end[i]
		}
	}
	var next int32 // the next root's label
	for i := 0; i < n; i++ {
		if !bitGet(t.present, i) {
			s.pre[i], s.end[i] = -1, -1
			continue
		}
		size := s.end[i]
		if p := t.parent[i]; i > 0 && p >= t.base {
			pi := p - t.base
			s.pre[i] = s.end[pi]
			s.end[pi] += size
		} else {
			s.pre[i] = next
			next += size
		}
		s.end[i] = s.pre[i] + 1
	}
}

// Span returns id's label interval [pre, end): a stored b descends from
// id (or is id) exactly when pre ≤ Span(b).pre < end. ok is false for an
// ID the labelled arena does not store.
func (s *Subtrees) Span(id BlockID) (pre, end int32, ok bool) {
	if id < s.base || id-s.base >= BlockID(len(s.pre)) {
		return 0, 0, false
	}
	i := id - s.base
	return s.pre[i], s.end[i], s.pre[i] >= 0
}

// Contains reports whether a is an ancestor of b or equal to it — the
// same answer as Tree.IsAncestor for two stored blocks, in O(1). It is
// false when either block is not stored.
func (s *Subtrees) Contains(a, b BlockID) bool {
	lo, hi, okA := s.Span(a)
	pb, _, okB := s.Span(b)
	return okA && okB && lo <= pb && pb < hi
}

// ArenaLen returns the exclusive upper bound of the ID arena: every
// stored block's ID is < ArenaLen(). The arena may contain holes (sparse
// test IDs) and, after compaction, starts at Base(); Get reports
// presence. It supports flat iteration over all blocks without recursive
// tree walks.
func (t *Tree) ArenaLen() int { return int(t.base) + len(t.parent) }

// MaxHeight returns the height of the tallest block in O(1).
func (t *Tree) MaxHeight() int { return t.bestHeight }

// Adopt implements the longest-chain rule for honest players: it returns
// candidate when it is strictly higher than current, else current. Ties
// keep the current chain, matching the model in which an honest player's
// longest chain grows by at most one block per round.
func (t *Tree) Adopt(current, candidate BlockID) (BlockID, error) {
	ic, err := t.lookup(current)
	if err != nil {
		return 0, err
	}
	in, err := t.lookup(candidate)
	if err != nil {
		return 0, err
	}
	if t.height[in] > t.height[ic] {
		return candidate, nil
	}
	return current, nil
}

// CompactBelow retires every block with ID strictly below floor and
// rebases the arena so floor becomes index 0. The floor must be stored,
// must descend from the current floor, and must not sit above the best
// block — the engine passes a common ancestor of every block any future
// query can name (live tips, observer-retained snapshots, in-flight
// messages), which satisfies all three. It returns the number of blocks
// retired. Column backing arrays are reused (copy-down), so a run whose
// live window is bounded runs in bounded resident memory.
func (t *Tree) CompactBelow(floor BlockID) (int, error) {
	if floor == t.base {
		return 0, nil
	}
	fi, err := t.lookup(floor)
	if err != nil {
		return 0, err
	}
	if floor > t.bestID {
		return 0, fmt.Errorf("blockchain: compaction floor %d above best block %d", floor, t.bestID)
	}
	// Fold the about-to-retire spine into the counters first, while its
	// blocks are still readable: every non-genesis ancestor of the new
	// floor down to (excluding) the old floor, new floor included.
	spine, spineHonest := t.spineBlocks, t.spineHonest
	for id := floor; id != t.base; {
		i := int(id - t.base)
		spine++
		if bitGet(t.honest, i) {
			spineHonest++
		}
		p := t.parent[i]
		if p < t.base {
			return 0, fmt.Errorf("blockchain: floor %d does not descend from current floor %d", floor, t.base)
		}
		id = p
	}
	k := fi // storage index of the new floor == number of slots dropped
	retired := popcountPrefix(t.present, k)
	n := len(t.parent) - k
	t.parent = t.parent[:copy(t.parent, t.parent[k:])]
	t.jump = t.jump[:copy(t.jump, t.jump[k:])]
	t.height = t.height[:copy(t.height, t.height[k:])]
	t.miner = t.miner[:copy(t.miner, t.miner[k:])]
	t.present = shiftBitsDown(t.present, k, n)
	t.honest = shiftBitsDown(t.honest, k, n)
	t.base = floor
	t.live -= retired
	t.floorHeight = int(t.height[0])
	t.spineBlocks, t.spineHonest = spine, spineHonest
	t.rebuildJumps()
	return retired, nil
}

// rebuildJumps recomputes every skip pointer against the new floor,
// which acts as virtual genesis (jump = self, exactly like genesis in a
// fresh tree). Ascending order sees every stored parent before its
// children (ID-monotonic ancestry). Orphan blocks whose parent was
// retired keep the retired parent as jump target, so their descendants
// degrade to guarded parent walks.
func (t *Tree) rebuildJumps() {
	for i := 0; i < len(t.parent); i++ {
		if !bitGet(t.present, i) {
			continue
		}
		if i == 0 {
			t.jump[0] = t.base
			continue
		}
		p := t.parent[i]
		if p < t.base {
			t.jump[i] = p
			continue
		}
		pi := int(p - t.base)
		t.jump[i] = p
		if jp := t.jump[pi]; jp >= t.base {
			jpi := int(jp - t.base)
			if jjp := t.jump[jpi]; jjp >= t.base {
				jjpi := int(jjp - t.base)
				if t.height[pi]-t.height[jpi] == t.height[jpi]-t.height[jjpi] {
					t.jump[i] = jjp
				}
			}
		}
	}
}

// popcountPrefix counts set bits with index < k.
func popcountPrefix(words []uint64, k int) int {
	n := 0
	for i := 0; i < k>>6; i++ {
		n += bits.OnesCount64(words[i])
	}
	if r := uint(k) & 63; r != 0 {
		n += bits.OnesCount64(words[k>>6] & (1<<r - 1))
	}
	return n
}

// shiftBitsDown shifts the packed flags down by k bit positions and
// truncates to n valid bits, reusing the backing array.
func shiftBitsDown(words []uint64, k, n int) []uint64 {
	q, r := k>>6, uint(k)&63
	outWords := (n + 63) >> 6
	for i := 0; i < outWords; i++ {
		var w uint64
		if i+q < len(words) {
			w = words[i+q] >> r
			if r != 0 && i+q+1 < len(words) {
				w |= words[i+q+1] << (64 - r)
			}
		}
		words[i] = w
	}
	return words[:outWords]
}

// ChopLast returns chain with its last chop elements removed. A chop
// larger than the chain returns an empty slice. The result aliases chain.
func ChopLast(chain []BlockID, chop int) []BlockID {
	if chop >= len(chain) {
		return chain[:0]
	}
	if chop < 0 {
		chop = 0
	}
	return chain[:len(chain)-chop]
}

// HasPrefix reports whether prefix is a prefix of chain element-wise.
func HasPrefix(chain, prefix []BlockID) bool {
	if len(prefix) > len(chain) {
		return false
	}
	for i, id := range prefix {
		if chain[i] != id {
			return false
		}
	}
	return true
}

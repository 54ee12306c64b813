package engine

import (
	"fmt"

	"neatbound/internal/blockchain"
	"neatbound/internal/network"
)

// maxIdx is the sentinel "no player" index for the per-half argmax; any
// real player index compares smaller.
const maxIdx = int(^uint(0) >> 1)

// viewStats holds the incremental honest-view statistics: every tip
// change and honest-set resize updates it, so the engine's global
// queries (MaxHonestHeight, DistinctTipCount, BranchBest, …) are O(1)
// reads instead of scans over all players.
//
// The accumulators are exact functions of the current honest views, not
// of the update order: heights only ever increase under the
// longest-chain rule, so the brackets, refcounts and per-half argmax
// report bit for bit what a scan over all players would.
type viewStats struct {
	// heightCount[h-hBase] counts honest views at chain height h; minH
	// and maxH bracket its support (heights only grow, so the brackets
	// advance amortized O(1)); tracked is the number of honest views
	// currently counted. hBase follows minH, or the lazy majority height
	// when that is lower, at compaction time (see rebaseHeights), so the
	// array spans the live height range, not the whole chain.
	heightCount []int
	hBase       int
	minH, maxH  int
	tracked     int
	// tipRefs[id-base] counts honest views sitting on tip id. tipList
	// enumerates the ids with non-zero refcount (unordered, hence
	// distinct) and tipPos[id-base] is that id's tipList index plus one
	// (0 = absent), so distinct-tip queries never scan the refcount
	// arena. base follows the tree's compaction floor (see rebase), so
	// the arena spans live IDs only.
	tipRefs []int32
	tipPos  []int32
	tipList []blockchain.BlockID
	base    blockchain.BlockID
	// Per-half argmax for the adversary's BranchBest query: for half
	// ∈ {0, 1} (split at the engine's halfLo boundary), the maximal
	// honest chain height in that half, the minimal player index
	// attaining it, and that player's tip. bestIdx is maxIdx and bestTip
	// GenesisID until a player of the half passes height 0.
	bestH   [2]int
	bestIdx [2]int
	bestTip [2]blockchain.BlockID
}

// resetBest clears the per-half argmax accumulators.
func (s *viewStats) resetBest() {
	for half := 0; half < 2; half++ {
		s.bestH[half] = 0
		s.bestIdx[half] = maxIdx
		s.bestTip[half] = blockchain.GenesisID
	}
}

// add counts honest player i at tip id, height h. halfLo is the engine's
// current half boundary (honest/2).
func (s *viewStats) add(i int, id blockchain.BlockID, h, halfLo int) {
	if s.tracked == 0 {
		s.minH, s.maxH = h, h
	} else {
		if h > s.maxH {
			s.maxH = h
		}
		if h < s.minH {
			s.minH = h
		}
	}
	s.tracked++
	*s.heights(h)++
	s.addTipRef(id, 1)
	half := 0
	if i >= halfLo {
		half = 1
	}
	// Heights never decrease, so (max height, min index at it) is
	// maintainable by pure insertion — removals are handled by the full
	// recompute in resizeHonest, the only place heights leave the set.
	if h > s.bestH[half] || (h == s.bestH[half] && i < s.bestIdx[half]) {
		if h > 0 {
			s.bestH[half], s.bestIdx[half], s.bestTip[half] = h, i, id
		}
	}
}

// heights returns the counter of views at height h ≥ hBase, growing the
// array to hold it.
func (s *viewStats) heights(h int) *int {
	k := h - s.hBase
	for len(s.heightCount) <= k {
		s.heightCount = append(s.heightCount, 0)
	}
	return &s.heightCount[k]
}

// rebaseHeights moves hBase up to floor ≤ minH, dropping the counters
// below it, once floor has passed half the array; the copy-down is then
// amortized O(1) per height. Every counter below minH is zero. The
// engine calls it only without a NuSchedule: then no honest view ever
// moves below minH (heights only grow), while a corrupted player's
// parked view may re-enter the honest set below it.
func (s *viewStats) rebaseHeights(floor int) {
	shift := floor - s.hBase
	if 2*shift <= len(s.heightCount) {
		return
	}
	s.heightCount = s.heightCount[:copy(s.heightCount, s.heightCount[shift:])]
	s.hBase = floor
}

// addTipRef counts count views on tip id, growing the refcount arena
// and registering the tip in tipList on first reference.
func (s *viewStats) addTipRef(id blockchain.BlockID, count int32) {
	k := id - s.base
	for uint64(len(s.tipRefs)) <= uint64(k) {
		s.tipRefs = append(s.tipRefs, 0)
		s.tipPos = append(s.tipPos, 0)
	}
	s.tipRefs[k] += count
	if s.tipRefs[k] == count {
		s.tipList = append(s.tipList, id)
		s.tipPos[k] = int32(len(s.tipList))
	}
}

// dropTipRefs zeroes every listed tip's refcount slot and empties the
// tip list.
func (s *viewStats) dropTipRefs() {
	for _, id := range s.tipList {
		s.tipRefs[id-s.base] = 0
		s.tipPos[id-s.base] = 0
	}
	s.tipList = s.tipList[:0]
}

// rebase moves the refcount arena's base up to floor, the tree's new
// compaction floor. Every view sits at or above the floor, so the slots
// below it are all zero and drop out. The copy-down runs only once the
// floor has passed half the arena, so its cost is amortized O(1) per
// slot and the arena stays within twice the live ID span.
func (s *viewStats) rebase(floor blockchain.BlockID) {
	shift := uint64(floor - s.base)
	if 2*shift <= uint64(len(s.tipRefs)) {
		return
	}
	keep := 0
	if shift < uint64(len(s.tipRefs)) {
		keep = copy(s.tipRefs, s.tipRefs[shift:])
		copy(s.tipPos, s.tipPos[shift:])
	}
	s.tipRefs, s.tipPos = s.tipRefs[:keep], s.tipPos[:keep]
	s.base = floor
}

// remove uncounts an honest view at tip id, height h. The per-half
// argmax is deliberately left alone: on the longest-chain path a remove
// is always paired with an add of the same player at a greater height
// (setTip), which re-establishes the argmax; honest-set resizes instead
// trigger recomputeBest.
func (s *viewStats) remove(id blockchain.BlockID, h int) {
	s.tracked--
	hk := h - s.hBase
	s.heightCount[hk]--
	if s.heightCount[hk] == 0 && s.tracked > 0 {
		// The support brackets only shrink inward; each loop step is paid
		// for by an earlier height increase, so the amortized cost is O(1).
		if h == s.maxH {
			for s.maxH > s.minH && s.heightCount[s.maxH-s.hBase] == 0 {
				s.maxH--
			}
		}
		if h == s.minH {
			for s.minH < s.maxH && s.heightCount[s.minH-s.hBase] == 0 {
				s.minH++
			}
		}
	}
	k := id - s.base
	s.tipRefs[k]--
	if s.tipRefs[k] == 0 {
		p := s.tipPos[k] - 1
		last := s.tipList[len(s.tipList)-1]
		s.tipList[p] = last
		s.tipPos[last-s.base] = p + 1
		s.tipList = s.tipList[:len(s.tipList)-1]
		s.tipPos[k] = 0
	}
}

// recomputeBest rebuilds the per-half argmax from the current views of
// the honest players [0, honest) — needed after honest-set resizes,
// which both evict players and move the half boundary.
func (s *viewStats) recomputeBest(tips []blockchain.BlockID, heights []int, honest, halfLo int) {
	s.resetBest()
	for i := 0; i < honest; i++ {
		half := 0
		if i >= halfLo {
			half = 1
		}
		if h := heights[i]; h > s.bestH[half] {
			s.bestH[half], s.bestIdx[half], s.bestTip[half] = h, i, tips[i]
		}
	}
}

// deliver runs round t's delivery phase over the due entries. It first
// checks that every delivered block is in the global tree (an O(1)
// arena probe per entry): a strategy sending an unregistered block is a
// bug that must surface, not be silently out-adopted, so the round fails
// on the first unknown block in delivery order before any view moves.
// A round of nil-list entries onto compactly tracked views is then
// folded in bulk (flashDeliver, bit-identical by construction); any
// other round writes the tracked views back and walks the entries,
// applying the longest-chain rule (adopt only strictly higher chains).
// The entries are in delivery order, so every recipient meets its
// messages in that order.
func (e *Engine) deliver(t int, due []network.Entry) error {
	uniform := true
	for k := range due {
		if id := due[k].Msg.Block.ID; !e.tree.Has(id) {
			return fmt.Errorf("engine: round %d adopt: %w %d", t, blockchain.ErrUnknownBlock, id)
		}
		uniform = uniform && due[k].To == nil
	}
	if uniform && e.ff.armed && e.ensureUniformViews() {
		e.flashDeliver(due)
		return nil
	}
	e.materializeViews()
	for k := range due {
		en := &due[k]
		id, h := en.Msg.Block.ID, int(en.Msg.Block.Height)
		if en.To != nil {
			for _, i := range en.To {
				if h > e.tipHeights[i] {
					e.setTip(int(i), id, h)
				}
			}
			continue
		}
		for i := 0; i < e.players; i++ {
			if h > e.tipHeights[i] && i != int(en.Msg.From) {
				e.setTip(i, id, h)
			}
		}
	}
	return nil
}

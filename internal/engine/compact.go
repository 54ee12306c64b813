package engine

// This file is the engine side of epoch-based arena compaction
// (Config.CompactEvery): between rounds, the engine computes a
// watermark W — a block provably on the chain of everything any future
// query can name — and asks the tree to retire all blocks strictly
// below it (blockchain.Tree.CompactBelow). Compaction is pure
// representation: RoundRecords, final tips, and every tree query that
// still resolves are bit-identical with it on or off, pinned by the
// golden-trace compaction tests.
//
// The watermark invariant. W is the running common ancestor of
//
//   - the tree's best block (covers strategies that mine on Best),
//   - every live honest view tip (via the distinct tip list), plus
//     every parked corrupted view under adaptive corruption,
//   - every block the adversary reports through Retainer (withheld
//     private chains),
//   - every block any observer reports through Retainer (the
//     consistency checker's retained snapshots),
//   - every in-flight network message (Network.AppendInFlight).
//
// Honest adoption only ever moves a view to a strictly higher tip it
// just received, and received blocks are covered by the in-flight fold
// until delivery — so no view can move below W. Adversarial references
// are covered by the Retainer report, and observer references likewise.
// Hence nothing below W is reachable again, which is exactly
// CompactBelow's contract. Whenever any piece of this fold cannot be
// established — the adversary does not implement Retainer, a retention
// fold declines, a common-ancestor query crosses the previous floor —
// the epoch stands down and the arena simply keeps growing until the
// next one. See docs/memory.md for the full proof sketch.

import (
	"fmt"

	"neatbound/internal/blockchain"
)

// Retainer reports every block ID its implementer may still dereference
// in a future round. Adversaries must implement it for compaction to
// arm (a strategy holding a withheld chain reports its tip; stateless
// strategies report nothing); observers that hold BlockIDs across
// rounds (e.g. the consistency checker's snapshots) implement it so
// compaction never retires a block they will query. The second return
// declines compaction outright for this epoch — the safe answer when
// the implementer cannot enumerate its references.
type Retainer interface {
	// AppendRetained appends every retained block ID to buf and returns
	// it, with ok = false to veto compaction this epoch.
	AppendRetained(buf []blockchain.BlockID) ([]blockchain.BlockID, bool)
}

// defaultCompactMinRetire is the ID span an epoch must retire to be
// worth a rebase when Config.CompactMinRetire is zero.
const defaultCompactMinRetire = 1024

// maybeCompact runs one compaction epoch: compute the watermark, stand
// down if it cannot be established or retires too little, else retire
// the arena below it. A CompactBelow failure is a broken invariant and
// fails the run; a declined watermark is routine and free.
func (e *Engine) maybeCompact() error {
	w, ok := e.compactionWatermark()
	if !ok {
		return nil
	}
	minRetire := e.cfg.CompactMinRetire
	if minRetire <= 0 {
		minRetire = defaultCompactMinRetire
	}
	if w <= e.tree.Base() || int(w-e.tree.Base()) < minRetire {
		return nil
	}
	if _, err := e.tree.CompactBelow(w); err != nil {
		return fmt.Errorf("engine: compaction at round %d: %w", e.round, err)
	}
	e.stats.rebase(e.tree.Base())
	return nil
}

// compactionWatermark folds the common ancestor over every retained
// reference (see the file comment) and reports whether a safe watermark
// exists this epoch.
func (e *Engine) compactionWatermark() (blockchain.BlockID, bool) {
	ret, ok := e.adv.(Retainer)
	if !ok {
		// An adversary that cannot enumerate its references might hold a
		// withheld block whose ancestry crosses any floor we pick.
		return 0, false
	}
	w := e.tree.Best()
	folded := true
	fold := func(id blockchain.BlockID) {
		if !folded {
			return
		}
		ca, err := e.tree.CommonAncestor(w, id)
		if err != nil {
			folded = false
			return
		}
		w = ca
	}
	// Live honest views, deduplicated through the tip list; then the
	// parked corrupted views under adaptive corruption (empty slice
	// otherwise — players == honest).
	for _, id := range e.stats.tipList {
		fold(id)
	}
	if e.players > e.honest {
		// Only a NuSchedule parks views, and it runs materialized.
		for _, id := range e.tips[e.honest:] {
			fold(id)
		}
	}
	// Adversary-retained blocks (withheld chains).
	e.retainBuf = e.retainBuf[:0]
	var retOK bool
	if e.retainBuf, retOK = ret.AppendRetained(e.retainBuf); !retOK {
		return 0, false
	}
	for _, id := range e.retainBuf {
		fold(id)
	}
	// Observer-retained blocks (consistency snapshots).
	if !e.foldObserverRetained(fold) {
		return 0, false
	}
	// In-flight messages: every block still undelivered.
	e.retainBuf = e.net.AppendInFlight(e.retainBuf[:0])
	for _, id := range e.retainBuf {
		fold(id)
	}
	if !folded {
		return 0, false
	}
	return w, true
}

// foldObserverRetained walks the observer stack and folds every
// Retainer member's reported blocks, reporting false when any member
// vetoes. Observers that do not implement Retainer are, per the
// Config.CompactEvery contract, assumed to hold no block references.
func (e *Engine) foldObserverRetained(fold func(blockchain.BlockID)) bool {
	var walk func(o Observer) bool
	walk = func(o Observer) bool {
		if o == nil {
			return true
		}
		if multi, ok := o.(MultiObserver); ok {
			for _, m := range multi {
				if !walk(m) {
					return false
				}
			}
			return true
		}
		r, ok := o.(Retainer)
		if !ok {
			return true
		}
		e.retainBuf = e.retainBuf[:0]
		var retOK bool
		if e.retainBuf, retOK = r.AppendRetained(e.retainBuf); !retOK {
			return false
		}
		for _, id := range e.retainBuf {
			fold(id)
		}
		return true
	}
	return walk(e.obs)
}

// Package consistency implements the paper's consistency property
// (Definition 1) and its proof-side accounting (Lemma 1):
//
//   - Checker verifies, over an executed run, that for any two sampled
//     rounds r ≤ s and any two honest views, all but the last T blocks of
//     the chain at r form a prefix of the chain at s — reporting every
//     violation with its fork depth.
//
//   - ConvergenceCounter detects convergence opportunities — the pattern
//     HN^{≥Δ} ‖ H₁ N^Δ of Section V-A, i.e. a round with exactly one
//     honest block flanked by ≥Δ and Δ block-free rounds — whose
//     stationary rate is ᾱ^{2Δ}·α₁ (Eq. 44).
//
//   - Accounting tallies C(t₀, t₀+T−1) against A(t₀, t₀+T−1), the
//     quantities Lemma 1 compares: consistency holds when convergence
//     opportunities outnumber adversarial blocks.
//
// # Concurrency and ownership
//
// A Checker is single-owner: OnRound observes one engine's rounds and
// Check/MaxForkDepth run after (or between) rounds on the same
// goroutine; nothing here is safe for concurrent use on one instance,
// and nothing here spawns a goroutine: the pairwise scans behind Check
// and MaxForkDepth walk the snapshot-pair upper triangle serially, in
// lexicographic order. Snapshot tips are copied into a checker-owned
// arena, so the engine may reuse its buffers freely.
package consistency

import (
	"fmt"

	"neatbound/internal/blockchain"
	"neatbound/internal/engine"
	"neatbound/internal/markov"
	"neatbound/internal/pool"
)

// ConvergenceCounter incrementally detects convergence opportunities from
// the per-round honest block counts. Feed every round's count to Observe
// (or a run of block-free rounds to ObserveQuiet); Observe returns true
// on rounds that complete the HN^{≥Δ}‖H₁N^Δ pattern. Its state is O(1):
// an opportunity completes exactly when the trailing N-run reaches Δ
// after an H₁ that itself followed an H and ≥ Δ N's.
type ConvergenceCounter struct {
	delta int
	// tracker follows the H/N stream up to the current round: its
	// trailing N-run, and whether any H has been seen.
	tracker *markov.SuffixTracker
	// armed records that the last H round was an H₁ preceded by
	// HN^{≥Δ}: the Δ-th N after it completes an opportunity.
	armed  bool
	count  int
	rounds int
}

// NewConvergenceCounter returns a counter for delay bound delta ≥ 1.
func NewConvergenceCounter(delta int) (*ConvergenceCounter, error) {
	tr, err := markov.NewSuffixTracker(delta)
	if err != nil {
		return nil, fmt.Errorf("consistency: %w", err)
	}
	return &ConvergenceCounter{delta: delta, tracker: tr}, nil
}

// Observe consumes the number of honest blocks mined in the next round and
// reports whether this round completes a convergence opportunity.
func (c *ConvergenceCounter) Observe(honestMined int) bool {
	c.rounds++
	if honestMined > 0 {
		// An H: it arms the counter when it is an H₁ closing HN^{≥Δ}.
		c.armed = honestMined == 1 && c.tracker.InLongN()
		c.tracker.Observe(true)
		return false
	}
	c.tracker.Observe(false)
	if c.armed && c.tracker.NRun() == c.delta {
		c.count++
		return true
	}
	return false
}

// ObserveQuiet consumes k ≥ 0 block-free rounds in O(1), exactly as k
// calls Observe(0) would, and returns how many opportunities they
// complete (0 or 1).
func (c *ConvergenceCounter) ObserveQuiet(k int) int {
	if k <= 0 {
		return 0
	}
	c.rounds += k
	before := c.tracker.NRun()
	c.tracker.ObserveN(k)
	if c.armed && before < c.delta && c.delta <= before+k {
		c.count++
		return 1
	}
	return 0
}

// Count returns the number of convergence opportunities seen so far.
func (c *ConvergenceCounter) Count() int { return c.count }

// Rounds returns the number of rounds observed.
func (c *ConvergenceCounter) Rounds() int { return c.rounds }

// Accounting is the Lemma-1 ledger over a window of rounds: consistency
// follows when Convergence > Adversary with overwhelming probability.
type Accounting struct {
	// Rounds is the window length T.
	Rounds int
	// Convergence is C(t₀, t₀+T−1), the convergence-opportunity count.
	Convergence int
	// Adversary is A(t₀, t₀+T−1), the adversarial block count.
	Adversary int
}

// Margin returns C − A; Lemma 1 requires it positive.
func (a Accounting) Margin() int { return a.Convergence - a.Adversary }

// Account replays a run's records through a ConvergenceCounter and returns
// the Lemma-1 ledger for the whole run.
func Account(records []engine.RoundRecord, delta int) (Accounting, error) {
	rec, err := NewLedgerRecorder(delta)
	if err != nil {
		return Accounting{}, err
	}
	for _, r := range records {
		rec.OnRound(nil, r)
	}
	return rec.Accounting(), nil
}

// LedgerRecorder is the streaming form of Account: an engine.Observer
// that folds every round into the Lemma-1 ledger as the run executes,
// so the accounting needs no post-run replay of the record slice. The
// resulting Accounting is bit-identical to Account over the same
// records (both drive the same ConvergenceCounter on integer counts).
type LedgerRecorder struct {
	counter *ConvergenceCounter
	adv     int
}

// NewLedgerRecorder returns a recorder for delay bound delta ≥ 1.
func NewLedgerRecorder(delta int) (*LedgerRecorder, error) {
	counter, err := NewConvergenceCounter(delta)
	if err != nil {
		return nil, err
	}
	return &LedgerRecorder{counter: counter}, nil
}

// OnRound implements engine.Observer; the engine argument is unused, so
// record slices can be replayed with a nil engine.
func (l *LedgerRecorder) OnRound(_ *engine.Engine, rec engine.RoundRecord) {
	l.counter.Observe(rec.HonestMined)
	l.adv += rec.AdversaryMined
}

// OnQuietSpan implements engine.SpanObserver: a quiet span's rounds
// mine nothing, so they fold into the counter in O(1).
func (l *LedgerRecorder) OnQuietSpan(_ *engine.Engine, _ engine.RoundRecord, first, last int) {
	l.counter.ObserveQuiet(last - first + 1)
}

// Accounting returns the ledger over the rounds observed so far.
func (l *LedgerRecorder) Accounting() Accounting {
	return Accounting{
		Rounds:      l.counter.Rounds(),
		Convergence: l.counter.Count(),
		Adversary:   l.adv,
	}
}

// Snapshot captures the distinct honest chain tips at one round.
type Snapshot struct {
	// Round is when the snapshot was taken.
	Round int
	// Tips are the distinct honest views at that round.
	Tips []blockchain.BlockID
}

// Violation records one breach of Definition 1: the chain at tip A in
// round R, chopped by T, is not a prefix of the chain at tip B in round S.
type Violation struct {
	// RoundR and RoundS are the two sampled rounds, RoundR ≤ RoundS.
	RoundR, RoundS int
	// TipA is an honest view at RoundR; TipB an honest view at RoundS.
	TipA, TipB blockchain.BlockID
	// ForkDepth is the number of blocks of chain(TipA) past the deepest
	// common ancestor with chain(TipB) — how much history diverged.
	ForkDepth int
}

// Checker samples honest views during a run and evaluates the Definition-1
// predicate across all sampled round pairs afterwards. Attach the checker
// as an engine Observer (it implements engine.Observer), then call Check.
type Checker struct {
	// T is Definition 1's chop parameter.
	T int
	// Every is the sampling interval in rounds (1 = every round).
	Every int

	snaps []Snapshot
	// scratch receives each sampling round's tips from the engine
	// (AppendDistinctTips) before they are copied into the arena; slab
	// is the checker-owned arena the snapshots' Tips alias — tips are
	// packed into chunked slabs instead of one fresh slice per snapshot,
	// so sampling allocates only when a slab fills. Earlier slabs stay
	// referenced by their snapshots when a new one is carved.
	scratch []blockchain.BlockID
	slab    []blockchain.BlockID
	// retain bounds the snapshot history to the most recent retain
	// samples (0 = keep the whole run); pin is the running common
	// ancestor of every retained snapshot tip, the single block the
	// checker reports to the engine's compaction watermark
	// (AppendRetained) — every retained tip descends from it, so by
	// ID-monotonic ancestry every tip (and every block a pairwise scan
	// visits) survives any compaction at or below the pin. pinBroken
	// records a failed pin fold, after which the checker vetoes
	// compaction outright.
	retain    int
	pin       blockchain.BlockID
	pinOK     bool
	pinBroken bool
	// sub and anchors are the pairwise scans' buffers: the tree's
	// subtree labels, and the anchors of the r-snapshot being scanned.
	sub     blockchain.Subtrees
	anchors []anchor
}

// Compile-time checks: the checker participates in the engine's
// compaction watermark, and the checker and the ledger fold quiet spans.
var (
	_ engine.Retainer     = (*Checker)(nil)
	_ engine.SpanObserver = (*Checker)(nil)
	_ engine.SpanObserver = (*LedgerRecorder)(nil)
)

// NewChecker returns a checker with chop parameter tee, sampling every
// `every` rounds.
func NewChecker(tee, every int) (*Checker, error) {
	if tee < 0 {
		return nil, fmt.Errorf("consistency: T = %d must be ≥ 0", tee)
	}
	if every < 1 {
		return nil, fmt.Errorf("consistency: sampling interval %d must be ≥ 1", every)
	}
	return &Checker{T: tee, Every: every}, nil
}

// UsePool does nothing: the pairwise scans are serial.
//
// Deprecated: ignored, like pool.Pool.
func (c *Checker) UsePool(*pool.Pool) {}

// SetRetention bounds the snapshot history to the most recent keep
// samples; 0 (the default) retains the whole run. Retention is what
// makes the checker compatible with arena compaction
// (engine.Config.CompactEvery): with full history the checker's oldest
// tips pin the compaction watermark near genesis and the arena never
// shrinks, while a bounded window lets the pin — and with it the
// watermark — advance as old snapshots are released. Check and
// MaxForkDepth then evaluate Definition 1 over the retained window
// only.
//
// Shrinking the window mid-run releases the dropped snapshots
// immediately and compacts the tip arena down to the retained window's
// bounded high-water mark — without this, slabs referenced only by
// dropped snapshots would stay resident until enough new samples
// rotated them out. The retention pin is left where it is: it may now
// sit below the smaller window's true common ancestor, which merely
// over-retains until the next release in OnRound refolds it (the
// checker has no tree to refold against here).
func (c *Checker) SetRetention(keep int) {
	if keep < 0 {
		keep = 0
	}
	shrink := keep > 0 && (c.retain == 0 || keep < c.retain)
	c.retain = keep
	if shrink && len(c.snaps) > keep {
		c.snaps = c.snaps[len(c.snaps)-keep:]
		c.compactSlab()
	}
}

// compactSlab rewrites the retained snapshots' tips into one fresh
// bounded slab, releasing every slab only dropped snapshots were
// keeping alive. Appends continue into the new slab's spare capacity,
// so the rewrite does not disturb arenaCopy's steady state.
func (c *Checker) compactSlab() {
	total := 0
	for i := range c.snaps {
		total += len(c.snaps[i].Tips)
	}
	size := 1024
	if size < total {
		size = total
	}
	slab := make([]blockchain.BlockID, 0, size)
	for i := range c.snaps {
		tips := c.snaps[i].Tips
		if len(tips) == 0 {
			continue
		}
		lo := len(slab)
		slab = append(slab, tips...)
		c.snaps[i].Tips = slab[lo:len(slab):len(slab)]
	}
	c.slab = slab
}

// AppendRetained implements engine.Retainer: the pin covers every
// retained snapshot tip (each descends from it), so reporting the pin
// alone keeps all of them — and every block the pairwise scans walk
// between them — out of compaction's reach. A broken pin fold vetoes
// compaction for the rest of the run.
func (c *Checker) AppendRetained(buf []blockchain.BlockID) ([]blockchain.BlockID, bool) {
	if c.pinBroken {
		return buf, false
	}
	if c.pinOK {
		buf = append(buf, c.pin)
	}
	return buf, true
}

// foldPin lowers the pin to cover tips.
func (c *Checker) foldPin(tree *blockchain.Tree, tips []blockchain.BlockID) {
	if c.pinBroken {
		return
	}
	for _, t := range tips {
		if !c.pinOK {
			c.pin, c.pinOK = t, true
			continue
		}
		ca, err := tree.CommonAncestor(c.pin, t)
		if err != nil {
			c.pinBroken = true
			return
		}
		c.pin = ca
	}
}

// refoldPin recomputes the pin from scratch over the retained
// snapshots — called when a release drops the oldest samples, letting
// the pin climb back up to the window's true common ancestor.
func (c *Checker) refoldPin(tree *blockchain.Tree) {
	c.pinOK = false
	for i := range c.snaps {
		c.foldPin(tree, c.snaps[i].Tips)
	}
}

// OnRound implements engine.Observer: it snapshots the engine's distinct
// honest tips on sampling rounds. The tips are copied into the
// checker's arena, so a snapshot costs zero allocations in steady state
// (DistinctTips built a fresh sorted slice per sample).
func (c *Checker) OnRound(e *engine.Engine, rec engine.RoundRecord) {
	if rec.Round%c.Every == 0 {
		c.sample(e, rec.Round)
	}
}

// OnQuietSpan implements engine.SpanObserver: the views are unchanged
// across the span, so it takes OnRound's snapshot at every multiple of
// Every in [first, last] without visiting the other rounds.
func (c *Checker) OnQuietSpan(e *engine.Engine, _ engine.RoundRecord, first, last int) {
	for r := (first + c.Every - 1) / c.Every * c.Every; r <= last; r += c.Every {
		c.sample(e, r)
	}
}

// sample snapshots the engine's distinct honest tips as round's.
func (c *Checker) sample(e *engine.Engine, round int) {
	c.scratch = e.AppendDistinctTips(c.scratch[:0])
	c.snaps = append(c.snaps, Snapshot{Round: round, Tips: c.arenaCopy(c.scratch)})
	c.foldPin(e.Tree(), c.snaps[len(c.snaps)-1].Tips)
	if c.retain > 0 && len(c.snaps) > c.retain {
		// Release the oldest samples. The slab memory behind them stays
		// alive until its slab rotates out; with a bounded window both
		// the snapshot slice and the slabs are bounded too.
		c.snaps = c.snaps[len(c.snaps)-c.retain:]
		c.refoldPin(e.Tree())
	}
}

// arenaCopy copies ids into the checker-owned arena and returns the
// copy, capacity-capped so later appends cannot clobber a neighbour.
func (c *Checker) arenaCopy(ids []blockchain.BlockID) []blockchain.BlockID {
	if len(ids) == 0 {
		return nil
	}
	if cap(c.slab)-len(c.slab) < len(ids) {
		size := 1024
		if size < len(ids) {
			size = len(ids)
		}
		// The old slab remains alive through the snapshots aliasing it.
		c.slab = make([]blockchain.BlockID, 0, size)
	}
	lo := len(c.slab)
	c.slab = append(c.slab, ids...)
	return c.slab[lo:len(c.slab):len(c.slab)]
}

// Snapshots returns the samples collected so far.
func (c *Checker) Snapshots() []Snapshot { return c.snaps }

// Check evaluates the Definition-1 predicate over every sampled pair
// (r ≤ s) and every tip pair, returning all violations found.
func (c *Checker) Check(tree *blockchain.Tree) ([]Violation, error) {
	return c.ViolationsAtChop(tree, c.T)
}

// ViolationsAtChop evaluates the Definition-1 predicate at an arbitrary
// chop parameter over the collected snapshots. It supports the S7
// fork-depth-tail experiment, which scans chop values on one run.
//
// The scan walks a read-only tree's snapshot pairs in lexicographic
// (r-index, s-index) order; it stops at the first error and then
// returns no violations. It costs an O(live blocks) labelling of the
// tree (Tree.Subtrees), O(snaps × tips × log height) anchor
// resolutions, and O(1) per tip pair.
func (c *Checker) ViolationsAtChop(tree *blockchain.Tree, chop int) ([]Violation, error) {
	if chop < 0 {
		return nil, fmt.Errorf("consistency: chop %d must be ≥ 0", chop)
	}
	tree.Subtrees(&c.sub)
	var out []Violation
	var err error
	for ri := range c.snaps {
		c.resolveAnchors(tree, c.snaps[ri].Tips, chop)
		for si := ri; si < len(c.snaps); si++ {
			if out, err = c.scanPair(tree, chop, ri, si, out); err != nil {
				return nil, fmt.Errorf("consistency: %w", err)
			}
		}
	}
	return out, nil
}

// anchor is one tip's Definition-1 cut — its ancestor at height
// h − chop — as a label interval of the checker's Subtrees: the chopped
// chain is a prefix of the chain at a stored b exactly when b's label
// falls in [lo, hi). lo < 0 marks a tip whose cut did not resolve.
type anchor struct{ lo, hi int32 }

// resolveAnchors fills c.anchors with the anchors of tips at chop. A
// cut at or below the floor height (0 on an uncompacted tree, so this
// includes a chop that leaves only genesis) stays unresolved, and so
// does a tip or cut the tree cannot resolve: PrefixHolds answers those
// exactly, floor rules and errors included.
func (c *Checker) resolveAnchors(tree *blockchain.Tree, tips []blockchain.BlockID, chop int) {
	c.anchors = c.anchors[:0]
	for _, a := range tips {
		anc := anchor{lo: -1}
		if h, err := tree.Height(a); err == nil && h-chop > tree.FloorHeight() {
			if id, err := tree.AncestorAt(a, h-chop); err == nil {
				if lo, hi, ok := c.sub.Span(id); ok {
					anc = anchor{lo, hi}
				}
			}
		}
		c.anchors = append(c.anchors, anc)
	}
}

// prefixHolds answers tree.PrefixHolds(a, b, chop) for a tip a whose
// anchor at chop is anc: one label comparison when the anchor resolved
// and b is stored, else the tree predicate itself.
func (c *Checker) prefixHolds(tree *blockchain.Tree, anc anchor, a, b blockchain.BlockID, chop int) (bool, error) {
	if anc.lo >= 0 {
		if pb, _, ok := c.sub.Span(b); ok {
			return anc.lo <= pb && pb < anc.hi, nil
		}
	}
	return tree.PrefixHolds(a, b, chop)
}

// scanPair evaluates the predicate for one snapshot pair (ri ≤ si),
// appending violations to out. c.anchors holds ri's anchors at chop.
func (c *Checker) scanPair(tree *blockchain.Tree, chop, ri, si int, out []Violation) ([]Violation, error) {
	sr, ss := c.snaps[ri], c.snaps[si]
	for k, a := range sr.Tips {
		for _, b := range ss.Tips {
			if sr.Round == ss.Round && a == b {
				continue // a view is trivially consistent with itself
			}
			ok, err := c.prefixHolds(tree, c.anchors[k], a, b, chop)
			if err != nil {
				return out, err
			}
			if ok {
				continue
			}
			depth, err := forkDepth(tree, a, b)
			if err != nil {
				return out, err
			}
			out = append(out, Violation{
				RoundR: sr.Round, RoundS: ss.Round,
				TipA: a, TipB: b, ForkDepth: depth,
			})
		}
	}
	return out, nil
}

// forkDepth returns height(a) − height(commonAncestor(a, b)).
func forkDepth(tree *blockchain.Tree, a, b blockchain.BlockID) (int, error) {
	anc, err := tree.CommonAncestor(a, b)
	if err != nil {
		return 0, err
	}
	ha, err := tree.Height(a)
	if err != nil {
		return 0, err
	}
	hanc, err := tree.Height(anc)
	if err != nil {
		return 0, err
	}
	return ha - hanc, nil
}

// MaxForkDepth returns the deepest fork across all sampled pairs — the
// smallest T for which the run would have been consistent is
// MaxForkDepth. It is cheaper than Check when only the depth is needed:
// one running maximum, threaded through the whole triangle, doubles as
// the pruning bound. Its cost is Check's, plus one anchor re-resolution
// of a snapshot's tips each time the maximum grows.
func (c *Checker) MaxForkDepth(tree *blockchain.Tree) (int, error) {
	tree.Subtrees(&c.sub)
	max := 0
	var err error
	for ri := range c.snaps {
		c.resolveAnchors(tree, c.snaps[ri].Tips, max)
		for si := ri; si < len(c.snaps); si++ {
			if max, err = c.scanPairDepth(tree, ri, si, max); err != nil {
				return 0, fmt.Errorf("consistency: %w", err)
			}
		}
	}
	return max, nil
}

// scanPairDepth deepens max with the forks of one snapshot pair: depth
// only grows when a chopped by the running max is not a prefix of b, so
// the threshold doubles as a pruning bound. c.anchors holds ri's
// anchors at max, and is re-resolved whenever max grows.
func (c *Checker) scanPairDepth(tree *blockchain.Tree, ri, si, max int) (int, error) {
	sr, ss := c.snaps[ri], c.snaps[si]
	for k, a := range sr.Tips {
		for _, b := range ss.Tips {
			ok, err := c.prefixHolds(tree, c.anchors[k], a, b, max)
			if err != nil {
				return 0, err
			}
			if ok {
				continue
			}
			d, err := forkDepth(tree, a, b)
			if err != nil {
				return 0, err
			}
			if d > max {
				max = d
				c.resolveAnchors(tree, sr.Tips, max)
			}
		}
	}
	return max, nil
}

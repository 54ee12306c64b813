// Package adversary implements attack strategies against Nakamoto's
// protocol in the Δ-delay model, exercising the adversarial capabilities
// the paper grants in Section III: delaying/reordering honest messages up
// to Δ rounds, full control of corrupted players (sequential queries,
// mining on arbitrary blocks, withholding), and rushing (acting on the
// current round's honest blocks).
//
// The strategies span the space the paper's results bracket:
//
//   - MaxDelay: the scheduling adversary the convergence-opportunity
//     analysis of Theorem 1 must survive — every honest message delayed
//     the full Δ, corrupted power mining honestly.
//   - PrivateMining: the deep-fork (double-spend) attack; succeeds
//     exactly when the adversary can outgrow the honest chain, breaking
//     the T-chopped prefix property of Definition 1.
//   - Balance: the Pass–Seeman–Shelat-style attack behind the paper's red
//     curve (Remark 8.5 of PSS): the honest players are split into two
//     halves kept on diverging branches by Δ-delays, with corrupted
//     blocks feeding whichever branch falls behind.
//   - Selfish: the chain-quality attack of Eyal–Sirer, included for the
//     related-work metrics (Section II).
package adversary

import (
	"neatbound/internal/blockchain"
	"neatbound/internal/engine"
	"neatbound/internal/network"
)

// MaxDelay delays every honest broadcast by the full Δ while its corrupted
// players mine on the longest chain and publish immediately.
type MaxDelay struct{}

// Name implements engine.Adversary.
func (MaxDelay) Name() string { return "max-delay" }

// HonestDelayPolicy implements engine.Adversary.
func (MaxDelay) HonestDelayPolicy(ctx *engine.Context) network.DelayPolicy {
	return network.MaxDelay{Delta: ctx.Params().Delta}
}

// Mine implements engine.Adversary: longest-chain mining, immediate
// publication (the adversarial power spent here is purely the scheduling).
func (MaxDelay) Mine(ctx *engine.Context, mined int) {
	if mined == 0 {
		return
	}
	parent := ctx.Tree().Best()
	for k := 0; k < mined; k++ {
		b, err := ctx.MineBlock(parent, "")
		if err != nil {
			return
		}
		parent = b.ID
		_ = ctx.SendToAll(b, ctx.Round()+1)
	}
}

// PrivateMining withholds a private chain forked from the public chain and
// publishes it only once it is both strictly longer than every honest view
// and at least MinForkDepth blocks deep past the fork point — forcing a
// reorganization that violates consistency at chop parameter
// T < MinForkDepth. Honest messages are delayed the full Δ to slow honest
// growth.
type PrivateMining struct {
	// MinForkDepth is the fork depth the attacker waits for before
	// publishing (the T it aims to violate plus one).
	MinForkDepth int

	privateTip blockchain.BlockID
	forkHeight int
	// Published counts successful deep-fork publications.
	Published int
	// DeepestFork records the deepest fork depth achieved at publication.
	DeepestFork int
}

// Name implements engine.Adversary.
func (a *PrivateMining) Name() string { return "private-mining" }

// HonestDelayPolicy implements engine.Adversary.
func (a *PrivateMining) HonestDelayPolicy(ctx *engine.Context) network.DelayPolicy {
	return network.MaxDelay{Delta: ctx.Params().Delta}
}

// Mine implements engine.Adversary.
func (a *PrivateMining) Mine(ctx *engine.Context, mined int) {
	tree := ctx.Tree()
	if a.privateTip == 0 {
		a.restartFork(ctx)
	}
	// Extend the private chain with every success (sequential queries).
	for k := 0; k < mined; k++ {
		b, err := ctx.MineBlock(a.privateTip, "private")
		if err != nil {
			return
		}
		a.privateTip = b.ID
	}
	privHeight, err := tree.Height(a.privateTip)
	if err != nil {
		return
	}
	honestMax := ctx.MaxHonestHeight()
	depth := honestMax - a.forkHeight
	if privHeight > honestMax && depth >= a.minDepth() {
		// Publish the whole private chain: honest players adopt it (it is
		// strictly longer), abandoning ≥ MinForkDepth blocks.
		a.publishChain(ctx, a.privateTip)
		a.Published++
		if depth > a.DeepestFork {
			a.DeepestFork = depth
		}
		a.restartFork(ctx)
	} else if privHeight < honestMax {
		// The honest chain escaped; a fork from the stale point can no
		// longer win. Restart from the current best public block.
		a.restartFork(ctx)
	}
}

func (a *PrivateMining) minDepth() int {
	if a.MinForkDepth < 1 {
		return 1
	}
	return a.MinForkDepth
}

// restartFork re-anchors the private chain at the highest honest tip.
func (a *PrivateMining) restartFork(ctx *engine.Context) {
	best := ctx.BestHonestTip()
	a.privateTip = best
	h, err := ctx.Tree().Height(best)
	if err != nil {
		h = 0
	}
	a.forkHeight = h
}

// publishChain sends every withheld block of the private chain to all
// honest players for next-round delivery, tip first, as it walks the
// withheld (adversarial) suffix down to the fork point.
func (a *PrivateMining) publishChain(ctx *engine.Context, tip blockchain.BlockID) {
	tree := ctx.Tree()
	for id := tip; ; {
		b, ok := tree.Get(id)
		if !ok || b.Honest || b.ID == blockchain.GenesisID {
			return
		}
		_ = ctx.SendToAll(b, ctx.Round()+1)
		id = b.Parent
	}
}

// splitPolicy delays same-half honest messages minimally and cross-half
// messages by the full Δ, sustaining a network partition without ever
// violating the Δ guarantee.
type splitPolicy struct {
	honest int
	delta  int
}

// half returns the partition (0 or 1) of honest player i: the lower half
// of indices is partition 0.
func (p splitPolicy) half(i int) int {
	if i < p.honest/2 {
		return 0
	}
	return 1
}

// DeliveryRound implements network.DelayPolicy.
func (p splitPolicy) DeliveryRound(m network.Message, recipient int) int {
	if p.half(int(m.From)) == p.half(recipient) {
		return int(m.SentRound) + 1
	}
	return int(m.SentRound) + p.delta
}

// Balance is the PSS-style consistency attack: honest players are split
// into two halves whose blocks cross the partition only after Δ rounds;
// corrupted blocks are mined on whichever branch is shorter and delivered
// only to that half, keeping the two branches at equal length so honest
// players never converge.
type Balance struct {
	// BalancedRounds counts rounds in which the two halves' best heights
	// differed by at most one (attack health metric).
	BalancedRounds int
	// TotalRounds counts rounds observed.
	TotalRounds int
}

// Name implements engine.Adversary.
func (a *Balance) Name() string { return "balance" }

// HonestDelayPolicy implements engine.Adversary.
func (a *Balance) HonestDelayPolicy(ctx *engine.Context) network.DelayPolicy {
	return splitPolicy{honest: ctx.HonestCount(), delta: ctx.Params().Delta}
}

// Mine implements engine.Adversary: every success extends the currently
// shorter branch and is delivered to that half only. The per-branch best
// tip comes from the engine's incremental per-shard accumulators
// (ctx.BranchBest, O(shards)); this strategy used to re-scan every
// honest view each round.
func (a *Balance) Mine(ctx *engine.Context, mined int) {
	a.TotalRounds++
	tips, heights := ctx.BranchBest()
	diff := heights[0] - heights[1]
	if diff < 0 {
		diff = -diff
	}
	if diff <= 1 {
		a.BalancedRounds++
	}
	if mined == 0 {
		return
	}
	honest := ctx.HonestCount()
	for k := 0; k < mined; k++ {
		// Rebalance: extend the shorter branch.
		short := 0
		if heights[1] < heights[0] {
			short = 1
		}
		b, err := ctx.MineBlock(tips[short], "balance")
		if err != nil {
			return
		}
		tips[short] = b.ID
		heights[short]++
		lo, hi := 0, honest/2
		if short == 1 {
			lo, hi = honest/2, honest
		}
		for i := lo; i < hi; i++ {
			_ = ctx.Send(b, i, ctx.Round()+1)
		}
	}
}

// Selfish implements an Eyal–Sirer-style selfish-mining strategy adapted
// to the Δ-delay model: the attacker mines on a withheld private chain and,
// whenever honest players extend the public chain while it holds matching
// or deeper secret blocks, it rushes the competing withheld block to every
// player while delaying the honest block the full Δ. Recipients therefore
// adopt the attacker's branch first (the γ ≈ 1 race-winning variant, which
// the model legitimizes because the adversary controls all scheduling),
// orphaning honest work and degrading chain quality below the fair
// share µ.
type Selfish struct {
	privateTip blockchain.BlockID
	// lastHonestMax is the public height seen at the previous round, used
	// to detect honest advances.
	lastHonestMax int
	// Overrides counts publications that displaced honest blocks.
	Overrides int
}

// Name implements engine.Adversary.
func (a *Selfish) Name() string { return "selfish" }

// HonestDelayPolicy implements engine.Adversary: honest blocks are delayed
// the full Δ so the attacker's rushed publications win every race.
func (a *Selfish) HonestDelayPolicy(ctx *engine.Context) network.DelayPolicy {
	return network.MaxDelay{Delta: ctx.Params().Delta}
}

// Mine implements engine.Adversary.
func (a *Selfish) Mine(ctx *engine.Context, mined int) {
	tree := ctx.Tree()
	honestMax := ctx.MaxHonestHeight()
	honestAdvanced := honestMax > a.lastHonestMax
	a.lastHonestMax = honestMax
	if a.privateTip == 0 {
		a.privateTip = ctx.BestHonestTip()
	}
	privHeight, err := tree.Height(a.privateTip)
	if err != nil {
		privHeight = 0
	}
	if privHeight < honestMax {
		// The public chain outran the secret one: abandon and re-anchor.
		a.privateTip = ctx.BestHonestTip()
		privHeight = honestMax
	}
	// Extend the secret chain with this round's successes (withheld).
	for k := 0; k < mined; k++ {
		b, err := ctx.MineBlock(a.privateTip, "selfish")
		if err != nil {
			return
		}
		a.privateTip = b.ID
		privHeight++
	}
	// Honest players just advanced while we hold secret blocks reaching
	// their new height: rush the withheld prefix up to honestMax. Because
	// honest blocks are Δ-delayed and ours arrive next round, every other
	// player adopts our branch, orphaning the honest block. Deeper secret
	// blocks stay withheld.
	if honestAdvanced && privHeight >= honestMax {
		if a.publishUpTo(ctx, honestMax) {
			a.Overrides++
		}
	}
}

// publishUpTo releases withheld private blocks of height ≤ maxHeight and
// reports whether anything was sent.
func (a *Selfish) publishUpTo(ctx *engine.Context, maxHeight int) bool {
	tree := ctx.Tree()
	var toSend []blockchain.Block
	id := a.privateTip
	for {
		b, ok := tree.Get(id)
		if !ok || b.Honest || b.ID == blockchain.GenesisID {
			break
		}
		if b.Height <= maxHeight {
			toSend = append(toSend, b)
		}
		id = b.Parent
	}
	for _, b := range toSend {
		_ = ctx.SendToAll(b, ctx.Round()+1)
	}
	return len(toSend) > 0
}

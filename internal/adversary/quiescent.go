package adversary

import (
	"neatbound/internal/engine"
)

// This file implements engine.SpanQuiescent for every single strategy,
// letting the engine's fast-forward path compress spans of quiet rounds
// — zero mining on both sides, nothing due on the network — into one
// ObserveQuiet call. Each ObserveQuiet body is the exact residue of
// stepping the strategy through the span: what Mine(ctx, 0) plus the
// per-round HonestDelayPolicy consultation would have mutated, given
// that the honest views (and hence every ctx query) are constant across
// a quiet span.
//
// A Switcher is not span-quiescent. The PrivateMining and Selfish proofs
// below assume the strategy's own previous Mine call saw the current
// views; a member re-activated after a period away sees views that
// changed meanwhile, so its first quiet Mine may publish or restart. A
// rotation therefore disarms fast-forward and steps.

// Compile-time checks that every single strategy is span-quiescent.
var (
	_ engine.SpanQuiescent = MaxDelay{}
	_ engine.SpanQuiescent = (*PrivateMining)(nil)
	_ engine.SpanQuiescent = (*Balance)(nil)
	_ engine.SpanQuiescent = (*Selfish)(nil)
)

// SkipSafe implements engine.SpanQuiescent: Mine(ctx, 0) returns before
// touching state and the delay policy is stateless.
func (MaxDelay) SkipSafe() bool { return true }

// ObserveQuiet implements engine.SpanQuiescent: nothing to replay.
func (MaxDelay) ObserveQuiet(*engine.Context, int, int) {}

// SkipSafe implements engine.SpanQuiescent: on a quiet round the
// strategy only re-evaluates its publish/restart conditions, and both
// are provably false — the views (and so privHeight, honestMax, depth)
// are exactly as the previous Mine call left them, and every exit path
// of Mine leaves the conditions false: a no-action exit re-evaluates to
// the same no-action, while publish and restart both end by re-anchoring
// at the best honest tip (privHeight == honestMax, depth 0).
func (a *PrivateMining) SkipSafe() bool { return true }

// ObserveQuiet implements engine.SpanQuiescent. The only quiet-round
// mutation is the initial anchoring while privateTip is still the zero
// BlockID — genesis — which Mine retries each round until the honest
// views leave genesis; views are constant across the span, so one retry
// replicates all of them.
func (a *PrivateMining) ObserveQuiet(ctx *engine.Context, first, last int) {
	if a.privateTip == 0 {
		a.restartFork(ctx)
	}
}

// SkipSafe implements engine.SpanQuiescent: quiet rounds only update
// the balance counters, from ctx queries that are constant across the
// span.
func (a *Balance) SkipSafe() bool { return true }

// ObserveQuiet implements engine.SpanQuiescent: k quiet rounds observe
// the same branch heights, so the counters advance by k in one step.
func (a *Balance) ObserveQuiet(ctx *engine.Context, first, last int) {
	k := last - first + 1
	a.TotalRounds += k
	_, heights := ctx.BranchBest()
	diff := heights[0] - heights[1]
	if diff < 0 {
		diff = -diff
	}
	if diff <= 1 {
		a.BalancedRounds += k
	}
}

// SkipSafe implements engine.SpanQuiescent: on a quiet round honestMax
// is unchanged since the previous Mine call stored it, so
// honestAdvanced is false and nothing is published; the re-anchor
// condition is false too, since every Mine exit leaves
// privHeight ≥ honestMax.
func (a *Selfish) SkipSafe() bool { return true }

// ObserveQuiet implements engine.SpanQuiescent: replay the
// honest-height observation (a value-level no-op on quiet rounds, kept
// for exactness) and the initial anchoring while privateTip is still
// the zero/genesis BlockID.
func (a *Selfish) ObserveQuiet(ctx *engine.Context, first, last int) {
	a.lastHonestMax = ctx.MaxHonestHeight()
	if a.privateTip == 0 {
		a.privateTip = ctx.BestHonestTip()
	}
}

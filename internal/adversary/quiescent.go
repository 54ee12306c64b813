package adversary

import (
	"neatbound/internal/engine"
)

// This file implements engine.SpanQuiescent for every strategy, letting
// the engine's fast-forward path compress spans of quiet rounds — zero
// mining on both sides, nothing due on the network — into one
// ObserveQuiet call. Each ObserveQuiet body is the exact residue of
// stepping the strategy through the span: what Mine(ctx, 0) plus the
// per-round HonestDelayPolicy consultation would have mutated, given
// that the honest views (and hence every ctx query) are constant across
// a quiet span. TestQuiescentMatchesStepped pins each body against the
// stepped strategy.

// Compile-time checks that every strategy is span-quiescent.
var (
	_ engine.SpanQuiescent = MaxDelay{}
	_ engine.SpanQuiescent = (*PrivateMining)(nil)
	_ engine.SpanQuiescent = (*Balance)(nil)
	_ engine.SpanQuiescent = (*Selfish)(nil)
	_ engine.SpanQuiescent = (*Switcher)(nil)
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

// SkipSafe implements engine.SpanQuiescent: a rotation is skip-safe iff
// every strategy in it is.
func (a *Switcher) SkipSafe() bool {
	for _, s := range a.Strategies {
		q, ok := s.(engine.SpanQuiescent)
		if !ok || !q.SkipSafe() {
			return false
		}
	}
	return true
}

// ObserveQuiet implements engine.SpanQuiescent by walking the period
// blocks the span crosses: each block replays the activation bookkeeping
// active() performs on its first round (the later rounds' active()
// calls see the same index and mutate nothing) and delegates the
// block's sub-range to the strategy that would have received those
// rounds' Mine calls.
func (a *Switcher) ObserveQuiet(ctx *engine.Context, first, last int) {
	for r := first; r <= last; {
		idx := ((r - 1) / a.Period) % len(a.Strategies)
		if idx != a.lastIdx {
			a.lastIdx = idx
			a.Activations++
		}
		end := ((r-1)/a.Period + 1) * a.Period
		if end > last {
			end = last
		}
		if q, ok := a.Strategies[idx].(engine.SpanQuiescent); ok {
			q.ObserveQuiet(ctx, r, end)
		}
		r = end + 1
	}
}

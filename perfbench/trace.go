package main

import (
	"time"

	"neatbound/internal/blockchain"
	"neatbound/internal/engine"
	"neatbound/internal/network"
)

// The traced run times the calls into each layer from the outside: the
// engine is handed wrapped adversaries and observers that clock every
// call before forwarding it. The engine discovers optional capabilities
// by type assertion — fast-forward needs engine.SpanQuiescent on the
// adversary, compaction needs engine.Retainer on the adversary and on
// every block-holding observer, the run's end needs
// engine.FinishObserver — so the wrappers implement all three and
// forward each to the wrapped value. A wrapper that dropped one would
// silently disarm fast-forward or stall compaction, and the trace would
// time a different program.

var (
	_ engine.SpanQuiescent  = (*timedAdversary)(nil)
	_ engine.Retainer       = (*timedAdversary)(nil)
	_ engine.Retainer       = (*timedObserver)(nil)
	_ engine.FinishObserver = (*timedObserver)(nil)
)

// timedAdversary clocks the strategy's per-round work: Mine on every
// stepped round and ObserveQuiet once per fast-forwarded span.
type timedAdversary struct {
	inner engine.Adversary
	busy  time.Duration
	calls int // Mine calls
}

func (a *timedAdversary) Name() string { return a.inner.Name() }

func (a *timedAdversary) HonestDelayPolicy(ctx *engine.Context) network.DelayPolicy {
	return a.inner.HonestDelayPolicy(ctx)
}

func (a *timedAdversary) Mine(ctx *engine.Context, mined int) {
	start := time.Now()
	a.inner.Mine(ctx, mined)
	a.busy += time.Since(start)
	a.calls++
}

// SkipSafe forwards engine.SpanQuiescent; a strategy without it is not
// skip-safe.
func (a *timedAdversary) SkipSafe() bool {
	q, ok := a.inner.(engine.SpanQuiescent)
	return ok && q.SkipSafe()
}

// ObserveQuiet is only called once SkipSafe reported true, so the inner
// strategy is SpanQuiescent.
func (a *timedAdversary) ObserveQuiet(ctx *engine.Context, first, last int) {
	start := time.Now()
	a.inner.(engine.SpanQuiescent).ObserveQuiet(ctx, first, last)
	a.busy += time.Since(start)
}

// AppendRetained forwards engine.Retainer; a strategy without it vetoes
// compaction, exactly as the engine treats it unwrapped.
func (a *timedAdversary) AppendRetained(buf []blockchain.BlockID) ([]blockchain.BlockID, bool) {
	if r, ok := a.inner.(engine.Retainer); ok {
		return r.AppendRetained(buf)
	}
	return buf, false
}

// timedObserver clocks an observer's OnRound and OnFinish calls.
type timedObserver struct {
	inner engine.Observer
	busy  time.Duration
}

func (o *timedObserver) OnRound(e *engine.Engine, rec engine.RoundRecord) {
	start := time.Now()
	o.inner.OnRound(e, rec)
	o.busy += time.Since(start)
}

// OnFinish forwards engine.FinishObserver; an observer without it has
// nothing to finish.
func (o *timedObserver) OnFinish(res *engine.Result) error {
	f, ok := o.inner.(engine.FinishObserver)
	if !ok {
		return nil
	}
	start := time.Now()
	err := f.OnFinish(res)
	o.busy += time.Since(start)
	return err
}

// AppendRetained forwards engine.Retainer; an observer without it holds
// no block references, which the engine reads as nothing retained.
func (o *timedObserver) AppendRetained(buf []blockchain.BlockID) ([]blockchain.BlockID, bool) {
	if r, ok := o.inner.(engine.Retainer); ok {
		return r.AppendRetained(buf)
	}
	return buf, true
}

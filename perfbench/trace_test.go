package main

import (
	"context"
	"reflect"
	"testing"

	"neatbound"
	"neatbound/internal/adversary"
	"neatbound/internal/consistency"
	"neatbound/internal/engine"
)

// bareAdversary exposes only engine.Adversary's methods, hiding every
// optional capability of the strategy it embeds.
type bareAdversary struct{ engine.Adversary }

func TestTimedAdversaryForwardsCapabilities(t *testing.T) {
	base, err := adversary.ByName("private", 4)
	if err != nil {
		t.Fatal(err)
	}
	var adv engine.Adversary = &timedAdversary{inner: base}
	q, ok := adv.(engine.SpanQuiescent)
	if !ok || !q.SkipSafe() {
		t.Fatal("the wrapped private strategy is not skip-safe: fast-forward would disarm")
	}
	r, ok := adv.(engine.Retainer)
	if !ok {
		t.Fatal("the wrapped strategy is not a Retainer: compaction would stall")
	}
	got, gotOK := r.AppendRetained(nil)
	want, wantOK := base.(engine.Retainer).AppendRetained(nil)
	if gotOK != wantOK || !reflect.DeepEqual(got, want) {
		t.Errorf("AppendRetained = %v, %t; the strategy itself says %v, %t", got, gotOK, want, wantOK)
	}

	bare := &timedAdversary{inner: bareAdversary{engine.PassiveAdversary{}}}
	if bare.SkipSafe() {
		t.Error("a strategy without SpanQuiescent became skip-safe when wrapped")
	}
	if _, ok := bare.AppendRetained(nil); ok {
		t.Error("a strategy without Retainer stopped vetoing compaction when wrapped")
	}
}

func TestTimedObserverForwardsCapabilities(t *testing.T) {
	checker, err := consistency.NewChecker(6, 10)
	if err != nil {
		t.Fatal(err)
	}
	var obs engine.Observer = &timedObserver{inner: checker}
	r, ok := obs.(engine.Retainer)
	if !ok {
		t.Fatal("the wrapped checker is not a Retainer: compaction could retire blocks it still reads")
	}
	if _, ok := obs.(engine.FinishObserver); !ok {
		t.Fatal("the wrapped checker is not a FinishObserver")
	}
	got, gotOK := r.AppendRetained(nil)
	want, wantOK := checker.AppendRetained(nil)
	if gotOK != wantOK || !reflect.DeepEqual(got, want) {
		t.Errorf("AppendRetained = %v, %t; the checker itself says %v, %t", got, gotOK, want, wantOK)
	}

	ledger, err := consistency.NewLedgerRecorder(10)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := &timedObserver{inner: ledger}
	if ids, ok := wrapped.AppendRetained(nil); !ok || len(ids) != 0 {
		t.Errorf("an observer without Retainer reports %v, %t; want nothing retained", ids, ok)
	}
	if err := wrapped.OnFinish(nil); err != nil {
		t.Errorf("an observer without OnFinish failed to finish: %v", err)
	}
}

// TestTracedPipelineMatchesRun runs short versions of both Run
// workloads through the traced pipeline and through neatbound.Run: the
// reports must be equal, and the event-driven paths must still engage.
func TestTracedPipelineMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name     string
		c        runConfig
		skipping bool // fast-forward armed and compaction retiring
	}{
		{"sparse", runConfig{
			pr:     neatbound.Params{N: 10_000, P: 1e-5, Delta: 10, Nu: 0.3},
			rounds: 20_000, tee: 6, forkDepth: 4, fastForward: true,
			compactEvery: 2000, compactMinRetire: 128, retention: 4,
		}, true},
		{"dense", runConfig{
			pr:     neatbound.Params{N: 5000, P: 2e-5, Delta: 10, Nu: 0.3},
			rounds: 300, tee: 6, forkDepth: 4, fastForward: true, autoShards: true,
			scenario: "stochastic-delay",
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			want, err := tc.c.run(ctx, 7)
			if err != nil {
				t.Fatal(err)
			}
			got, lt, err := tracedRun(ctx, tc.c, 7)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("traced report differs from Run's:\ntraced %+v\nRun    %+v", got, want)
			}
			if err := tc.c.check(got); err != nil {
				t.Error(err)
			}
			switch {
			case !tc.skipping && lt.mineCalls != lt.rounds:
				t.Errorf("%d Mine calls over %d rounds; a stepping run calls Mine every round", lt.mineCalls, lt.rounds)
			case tc.skipping && lt.mineCalls*2 > lt.rounds:
				t.Errorf("%d Mine calls over %d rounds: fast-forward did not arm", lt.mineCalls, lt.rounds)
			case tc.skipping && got.LiveBlocks > got.TotalBlocks:
				t.Errorf("%d of %d blocks live: compaction retired nothing", got.LiveBlocks, got.TotalBlocks)
			}
		})
	}
}

// TestTracedRowMatchesRuns checks sweepd's stand-in op: a traced grid row
// returns the reports of the row's untraced Runs, and its counts add up
// over the row.
func TestTracedRowMatchesRuns(t *testing.T) {
	row, err := probeGrid.rowRuns()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := runBatch(ctx, row, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr, got, err := traceOp(ctx, row, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("traced row reports differ from the untraced Runs'")
	}
	if n := len(row) * probeGrid.rounds; tr.rounds != n || tr.mineCalls != n {
		t.Errorf("traced row: %d rounds and %d Mine calls, want %d of each", tr.rounds, tr.mineCalls, n)
	}
}

package neatbound

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"neatbound/internal/adversary"
	"neatbound/internal/consistency"
	"neatbound/internal/engine"
	"neatbound/internal/params"
)

// These tests pin the fast-forward equivalence contract beyond the
// golden hashes: the exact artifacts downstream consumers read — the
// JSONL round trace, the Lemma-1 ledger accounting, the full
// RoundRecord stream, adversary diagnostics — must be byte- and
// value-identical between the step engine and the event-driven engine.

// runArtifacts executes one case and returns the raw JSONL trace, the
// ledger accounting, and the engine result.
func runArtifacts(t *testing.T, gc goldenCase, fastForward bool, shards int) ([]byte, consistency.Accounting, *engine.Result) {
	t.Helper()
	cfg := gc.cfg
	cfg.FastForward = fastForward
	cfg.Shards = shards
	var buf bytes.Buffer
	ledger, err := consistency.NewLedgerRecorder(cfg.Params.Delta)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = engine.Observers(engine.NewTraceWriter(&buf), ledger)
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gc.oracle {
		if err := e.WithOracleMining(gc.oracleKey); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), ledger.Accounting(), res
}

// TestFastForwardArtifactsIdentical: on every golden configuration the
// fast-forward engine must produce a byte-identical JSONL round trace
// (TraceWriter) and an identical Lemma-1 ledger (LedgerRecorder) to the
// step engine — skipped rounds still emit their records, so external
// consumers of the trace interchange cannot tell the engines apart.
func TestFastForwardArtifactsIdentical(t *testing.T) {
	for name := range goldenCases(t) {
		t.Run(name, func(t *testing.T) {
			// Strategies are stateful: each run needs its own instance,
			// so the case is rebuilt per engine.
			stepTrace, stepLedger, stepRes := runArtifacts(t, goldenCases(t)[name], false, 0)
			skipTrace, skipLedger, skipRes := runArtifacts(t, goldenCases(t)[name], true, 0)
			if !bytes.Equal(stepTrace, skipTrace) {
				t.Errorf("JSONL traces differ (step %d bytes, skip %d bytes)", len(stepTrace), len(skipTrace))
			}
			if stepLedger != skipLedger {
				t.Errorf("ledger accounting differs: step %+v, skip %+v", stepLedger, skipLedger)
			}
			if !reflect.DeepEqual(stepRes.FinalTips, skipRes.FinalTips) {
				t.Error("final tips differ")
			}
			if stepRes.HonestBlocks != skipRes.HonestBlocks || stepRes.AdversaryBlocks != skipRes.AdversaryBlocks {
				t.Errorf("block counters differ: step (%d, %d), skip (%d, %d)",
					stepRes.HonestBlocks, stepRes.AdversaryBlocks, skipRes.HonestBlocks, skipRes.AdversaryBlocks)
			}
		})
	}
}

// sparseCases are configurations in the fast path's payoff regime —
// n·p ≪ 1 per round, where almost every round is quiet — including the
// large-n benchmark parameterization. The step engine is the reference.
func sparseCases(t *testing.T) map[string]goldenCase {
	t.Helper()
	large := params.Params{N: 100000, P: 1e-6, Delta: 10, Nu: 0.3}
	largeRounds := 3000
	if testing.Short() {
		// The step-engine reference at n=10⁵ dominates the short-mode
		// gate; a few hundred rounds still cross several mining events.
		largeRounds = 400
	}
	tiny := params.Params{N: 12, P: 1e-4, Delta: 3, Nu: 0.3}
	sw, err := adversary.NewSwitcher(97,
		adversary.MaxDelay{},
		&adversary.Selfish{},
		&adversary.Balance{},
	)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]goldenCase{
		"large-passive": {cfg: engine.Config{Params: large, Rounds: largeRounds, Seed: 21}},
		"large-selfish": {cfg: engine.Config{Params: large, Rounds: largeRounds, Seed: 22,
			Adversary: &adversary.Selfish{}}},
		"tiny-switcher": {cfg: engine.Config{Params: tiny, Rounds: 5000, Seed: 23,
			Adversary: sw}},
		"tiny-private": {cfg: engine.Config{Params: tiny, Rounds: 5000, Seed: 24,
			Adversary: &adversary.PrivateMining{MinForkDepth: 2}}},
	}
}

// TestFastForwardSparseEquivalence compares the full RoundRecord stream
// — every field of every round, not a hash — between step and
// fast-forward engines on sparse-regime configurations, across shard
// counts. This is the regime where fast-forward actually skips almost
// every round, so any draw-order or record-synthesis bug surfaces here.
func TestFastForwardSparseEquivalence(t *testing.T) {
	for name := range sparseCases(t) {
		for _, shards := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/P=%d", name, shards), func(t *testing.T) {
				// Fresh case per engine: strategies are stateful.
				_, stepLedger, stepRes := runArtifacts(t, sparseCases(t)[name], false, shards)
				_, skipLedger, skipRes := runArtifacts(t, sparseCases(t)[name], true, shards)
				if len(stepRes.Records) != len(skipRes.Records) {
					t.Fatalf("record counts differ: step %d, skip %d", len(stepRes.Records), len(skipRes.Records))
				}
				for i := range stepRes.Records {
					if stepRes.Records[i] != skipRes.Records[i] {
						t.Fatalf("round %d record differs:\nstep %+v\nskip %+v",
							i+1, stepRes.Records[i], skipRes.Records[i])
					}
				}
				if stepLedger != skipLedger {
					t.Errorf("ledger accounting differs: step %+v, skip %+v", stepLedger, skipLedger)
				}
				if !reflect.DeepEqual(stepRes.FinalTips, skipRes.FinalTips) {
					t.Error("final tips differ")
				}
				if stepRes.Tree.Len() != skipRes.Tree.Len() || stepRes.Tree.Best() != skipRes.Tree.Best() {
					t.Error("tree shape differs")
				}
			})
		}
	}
}

// TestFastForwardSweepParity pins the knob's threading through the
// sweep pipeline: a RunSweep grid with WithFastForward is
// byte-identical (MarshalCells encoding) to the plain RunSweep grid —
// across cells whose (ν, c) coordinates put them on both sides of the
// arming predicate.
func TestFastForwardSweepParity(t *testing.T) {
	grid := SweepGrid{
		N:        24,
		Delta:    3,
		NuValues: []float64{0.1, 0.3},
		CValues:  []float64{1, 40},
	}
	opts := []Option{
		WithRounds(400),
		WithSeed(17),
		WithConsistency(2, 0),
		WithAdversaryName("selfish", AdversaryOpts{}),
		WithReplicates(2),
	}
	marshal := func(cells []AggregateCell) string {
		var buf bytes.Buffer
		if err := MarshalCells(&buf, cells); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	ref, err := RunSweep(context.Background(), grid, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(ref)
	ffOpts := append(append([]Option(nil), opts...), WithFastForward())
	got, err := RunSweep(context.Background(), grid, ffOpts...)
	if err != nil {
		t.Fatal(err)
	}
	if g := marshal(got); g != want {
		t.Errorf("RunSweep grid differs with fast-forward:\ngot:\n%s\nwant:\n%s", g, want)
	}
}

// TestFastForwardAdversaryStateIdentical pins the ObserveQuiet replay:
// the strategies' public diagnostics — activation counts, balance
// counters, publication stats — must end identical whether quiet rounds
// were stepped one by one or compressed into span observations.
func TestFastForwardAdversaryStateIdentical(t *testing.T) {
	base := params.Params{N: 40, P: 0.005, Delta: 4, Nu: 0.3}
	run := func(adv engine.Adversary, ff bool) {
		e, err := engine.New(engine.Config{Params: base, Rounds: 4000, Seed: 31, Adversary: adv, FastForward: ff})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("balance", func(t *testing.T) {
		step, skip := &adversary.Balance{}, &adversary.Balance{}
		run(step, false)
		run(skip, true)
		if *step != *skip {
			t.Errorf("balance counters differ: step %+v, skip %+v", *step, *skip)
		}
	})
	t.Run("private-mining", func(t *testing.T) {
		step := &adversary.PrivateMining{MinForkDepth: 3}
		skip := &adversary.PrivateMining{MinForkDepth: 3}
		run(step, false)
		run(skip, true)
		if step.Published != skip.Published || step.DeepestFork != skip.DeepestFork {
			t.Errorf("private-mining stats differ: step (%d, %d), skip (%d, %d)",
				step.Published, step.DeepestFork, skip.Published, skip.DeepestFork)
		}
	})
	t.Run("selfish", func(t *testing.T) {
		step, skip := &adversary.Selfish{}, &adversary.Selfish{}
		run(step, false)
		run(skip, true)
		if step.Overrides != skip.Overrides {
			t.Errorf("selfish overrides differ: step %d, skip %d", step.Overrides, skip.Overrides)
		}
	})
	t.Run("switcher", func(t *testing.T) {
		mk := func() *adversary.Switcher {
			sw, err := adversary.NewSwitcher(130,
				adversary.MaxDelay{},
				&adversary.Balance{},
				&adversary.PrivateMining{MinForkDepth: 3},
			)
			if err != nil {
				t.Fatal(err)
			}
			return sw
		}
		step, skip := mk(), mk()
		run(step, false)
		run(skip, true)
		if step.Activations != skip.Activations {
			t.Errorf("switcher activations differ: step %d, skip %d", step.Activations, skip.Activations)
		}
	})
}

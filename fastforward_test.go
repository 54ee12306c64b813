package neatbound

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"neatbound/internal/adversary"
	"neatbound/internal/consistency"
	"neatbound/internal/engine"
	"neatbound/internal/metrics"
	"neatbound/internal/params"
	"neatbound/internal/sweep"
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
			if !reflect.DeepEqual(stepRes.FinalTips(), skipRes.FinalTips()) {
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
				if !reflect.DeepEqual(stepRes.FinalTips(), skipRes.FinalTips()) {
					t.Error("final tips differ")
				}
				if stepRes.Tree.Len() != skipRes.Tree.Len() || stepRes.Tree.Best() != skipRes.Tree.Best() {
					t.Error("tree shape differs")
				}
			})
		}
	}
}

// sweepParityDigest is the SHA-256 of TestFastForwardSweepParity's
// MarshalCells bytes, recorded while RunSweep still stepped every round
// unless WithFastForward was given (and identical with it).
const sweepParityDigest = "423eb7ff71b32bbab66df42d791af49f2af1c5572fe1c9e510d9ceff89f50267"

// TestFastForwardSweepParity pins fast-forward's threading through the
// sweep pipeline: every RunSweep cell now takes the fast path where it
// arms, and the grid's MarshalCells bytes must still hash to the
// digest the stepping pipeline produced — across cells whose (ν, c)
// coordinates put them on both sides of the arming predicate.
func TestFastForwardSweepParity(t *testing.T) {
	grid := SweepGrid{
		N:        24,
		Delta:    3,
		NuValues: []float64{0.1, 0.3},
		CValues:  []float64{1, 40},
	}
	cells, err := RunSweep(context.Background(), grid,
		WithRounds(400),
		WithSeed(17),
		WithConsistency(2, 0),
		WithAdversaryName("selfish", AdversaryOpts{}),
		WithReplicates(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := MarshalCells(&buf, cells); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != sweepParityDigest {
		t.Errorf("RunSweep grid hashes to %s, want %s:\n%s", got, sweepParityDigest, buf.Bytes())
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

// spanProbe is a SpanObserver that counts the rounds it is told about
// and the quiet spans among them, so a test can see which dispatch path
// the engine took.
type spanProbe struct{ rounds, spans int }

func (p *spanProbe) OnRound(*engine.Engine, engine.RoundRecord) { p.rounds++ }

func (p *spanProbe) OnQuietSpan(_ *engine.Engine, _ engine.RoundRecord, first, last int) {
	p.spans++
	p.rounds += last - first + 1
}

// spanStackResult is what a span-folding observer stack leaves behind.
type spanStackResult struct {
	dense, sparse []consistency.Snapshot
	ledger        consistency.Accounting
	growth        float64
	probe         spanProbe
}

// runSpanStack runs gc with fast-forward under two checkers (every
// round; every 7th round with a 3-sample window), a ledger, a growth
// recorder and a span probe — all span observers. perRound adds an
// ObserverFunc, which has no span hook, so every member falls back to
// per-round calls.
func runSpanStack(t *testing.T, gc goldenCase, perRound bool) spanStackResult {
	t.Helper()
	cfg := gc.cfg
	cfg.FastForward = true
	dense, err := consistency.NewChecker(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := consistency.NewChecker(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	sparse.SetRetention(3)
	ledger, err := consistency.NewLedgerRecorder(cfg.Params.Delta)
	if err != nil {
		t.Fatal(err)
	}
	var out spanStackResult
	growth := &metrics.GrowthRecorder{}
	stack := []engine.Observer{dense, sparse, ledger, growth, &out.probe}
	if perRound {
		stack = append(stack, engine.ObserverFunc(func(*engine.Engine, engine.RoundRecord) {}))
	}
	cfg.Observer = engine.Observers(stack...)
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
	if out.probe.rounds != cfg.Rounds || res.Rounds != cfg.Rounds || len(res.Records) != cfg.Rounds {
		t.Fatalf("probe saw %d rounds, result counts %d with %d records, want %d",
			out.probe.rounds, res.Rounds, len(res.Records), cfg.Rounds)
	}
	if got := metrics.ChainGrowthRate(res.Records); growth.Rate() != got {
		t.Errorf("growth recorder rate %v, records give %v", growth.Rate(), got)
	}
	out.dense, out.sparse = dense.Snapshots(), sparse.Snapshots()
	out.ledger, out.growth = ledger.Accounting(), growth.Rate()
	return out
}

// TestFastForwardSpanObserversIdentical: a stack of span observers —
// checkers, the Lemma-1 ledger, the growth recorder — must end exactly
// as the same stack fed round by round (forced by one per-round
// ObserverFunc), on every golden and sparse configuration. On the
// sparse ones other than the switcher the folding stack must really
// have received spans.
func TestFastForwardSpanObserversIdentical(t *testing.T) {
	cases := map[string]func() goldenCase{}
	for name := range goldenCases(t) {
		cases["golden/"+name] = func() goldenCase { return goldenCases(t)[name] }
	}
	for name := range sparseCases(t) {
		cases["sparse/"+name] = func() goldenCase { return sparseCases(t)[name] }
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			// Fresh case per run: strategies are stateful.
			fold := runSpanStack(t, mk(), false)
			step := runSpanStack(t, mk(), true)
			if step.probe.spans != 0 {
				t.Fatalf("a stack with a per-round observer received %d spans", step.probe.spans)
			}
			// A rotation is not span-quiescent, so its run steps.
			if strings.HasPrefix(name, "sparse/") && name != "sparse/tiny-switcher" && fold.probe.spans == 0 {
				t.Fatal("the span-folding stack received no spans")
			}
			if !reflect.DeepEqual(fold.dense, step.dense) {
				t.Error("every-round checker snapshots differ")
			}
			if !reflect.DeepEqual(fold.sparse, step.sparse) {
				t.Error("windowed checker snapshots differ")
			}
			if fold.ledger != step.ledger {
				t.Errorf("ledger differs: folded %+v, per round %+v", fold.ledger, step.ledger)
			}
			if fold.growth != step.growth {
				t.Errorf("growth rate differs: folded %v, per round %v", fold.growth, step.growth)
			}
		})
	}
}

// TestFastForwardRunOneSpanIdentical: RunOne's report is the same
// whether its own observers fold quiet spans or a per-round observer
// attached by the caller makes every member take per-round calls; and
// with the span path, the result carries no Records but counts every
// round.
func TestFastForwardRunOneSpanIdentical(t *testing.T) {
	cases := map[string]func() goldenCase{}
	for name := range goldenCases(t) {
		cases["golden/"+name] = func() goldenCase { return goldenCases(t)[name] }
	}
	for name := range sparseCases(t) {
		cases["sparse/"+name] = func() goldenCase { return sparseCases(t)[name] }
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			run := func(obs engine.Observer) (sweep.Report, *engine.Result) {
				cfg := mk().cfg
				cfg.FastForward = true
				cfg.Observer = obs
				rep, res, err := sweep.RunOne(context.Background(), cfg,
					sweep.Semantics{Rounds: cfg.Rounds, T: 3, CheckerRetention: 5})
				if err != nil {
					t.Fatal(err)
				}
				return rep, res
			}
			fold, foldRes := run(nil)
			var perRound int
			step, _ := run(engine.ObserverFunc(func(*engine.Engine, engine.RoundRecord) { perRound++ }))
			rounds := mk().cfg.Rounds
			if perRound != rounds || foldRes.Rounds != rounds || len(foldRes.Records) != 0 {
				t.Fatalf("per-round observer saw %d rounds; folded result counts %d with %d records; want %d and none",
					perRound, foldRes.Rounds, len(foldRes.Records), rounds)
			}
			if !reflect.DeepEqual(fold, step) {
				t.Errorf("reports differ:\nfolded   %+v\nper round %+v", fold, step)
			}
		})
	}
}

// runSparseBytesPerRound is the heap allocated per round by one façade
// Run of perfbench's run-sparse configuration at the given length.
func runSparseBytesPerRound(t *testing.T, rounds int) float64 {
	t.Helper()
	pr := Params{N: 1_000_000, P: 1e-7, Delta: 10, Nu: 0.3}
	opts := []Option{
		WithRounds(rounds),
		WithSeed(1),
		WithConsistency(6, 0),
		WithAdversaryName("private", AdversaryOpts{ForkDepth: 4}),
		WithFastForward(),
		WithCompaction(2000, 128),
		WithCheckerRetention(4),
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Run(context.Background(), pr, opts...)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RoundsExecuted != rounds {
		t.Fatalf("executed %d rounds, want %d", rep.RoundsExecuted, rounds)
	}
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds)
}

// TestFastForwardAllocFlat pins run-length-independent memory on the
// sparse path: a façade Run allocates no per-round record and makes no
// per-round observer call, so its allocation per round stays small at
// 10⁴ and 10⁵ rounds alike (a Records slice alone is 56 B/round, more
// with append growth).
func TestFastForwardAllocFlat(t *testing.T) {
	const limit = 16 // B/round, with headroom for -race
	for _, rounds := range []int{10_000, 100_000} {
		if b := runSparseBytesPerRound(t, rounds); b > limit {
			t.Errorf("%d rounds: %.1f B/round allocated, want ≤ %d", rounds, b, limit)
		} else {
			t.Logf("%d rounds: %.1f B/round", rounds, b)
		}
	}
}

// TestHugeRoundsReturnPartial: a run asked for 2⁴⁰ rounds must start
// at once and stop at its deadline with a partial result — nothing is
// sized by the requested length up front — both through RunOne and
// through a plain engine.Config that keeps Records.
func TestHugeRoundsReturnPartial(t *testing.T) {
	pr := params.Params{N: 40, P: 0.005, Delta: 4, Nu: 0.3}
	const huge = 1 << 40
	deadline := func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(context.Background(), 50*time.Millisecond)
	}
	t.Run("RunOne", func(t *testing.T) {
		ctx, cancel := deadline()
		defer cancel()
		rep, res, err := sweep.RunOne(ctx, engine.Config{Params: pr, Seed: 1}, sweep.Semantics{Rounds: huge, T: 3})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want the deadline", err)
		}
		if res == nil || !res.Partial || res.Rounds == 0 || res.Rounds >= huge {
			t.Fatalf("result %+v, want a partial run", res)
		}
		if rep.Ledger.Rounds != res.Rounds || len(res.Records) != 0 {
			t.Errorf("ledger covers %d rounds, result %d with %d records", rep.Ledger.Rounds, res.Rounds, len(res.Records))
		}
	})
	t.Run("engine", func(t *testing.T) {
		ctx, cancel := deadline()
		defer cancel()
		e, err := engine.New(engine.Config{Params: pr, Rounds: huge, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunContext(ctx)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want the deadline", err)
		}
		if !res.Partial || res.Rounds == 0 || len(res.Records) != res.Rounds {
			t.Fatalf("partial %t, %d rounds with %d records", res.Partial, res.Rounds, len(res.Records))
		}
	})
}

// TestSwitcherRotationMatchesStepped: a rotation's quiet rounds are not
// replayable in bulk — a member re-activated after a period away sees
// views that changed while it was inactive, so its first Mine(ctx, 0)
// may publish or restart — so a Switcher must make fast-forward step,
// leaving the RoundRecord stream equal to the step engine's on every
// seed.
func TestSwitcherRotationMatchesStepped(t *testing.T) {
	pr := params.Params{N: 22, P: 1.0 / 8192, Delta: 8, Nu: 0.17}
	run := func(seed uint64, ff bool) []engine.RoundRecord {
		sw, err := adversary.NewSwitcher(4, adversary.MaxDelay{}, &adversary.Selfish{}, &adversary.Balance{})
		if err != nil {
			t.Fatal(err)
		}
		e, err := engine.New(engine.Config{Params: pr, Rounds: 4000, Seed: seed, Adversary: sw, FastForward: ff})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Records
	}
	for seed := uint64(1); seed <= 300; seed++ {
		if !reflect.DeepEqual(run(seed, false), run(seed, true)) {
			t.Errorf("seed %d: step and fast-forward records differ", seed)
		}
	}
}

// TestRunGridAllDeviantRebase: with n = 4 every honest view can be a
// taller self-mined deviant while the lazy views are valid, so the
// tracked height minimum sits above the majority height the next flash
// delivery writes. Compaction must not rebase the height counters past
// that majority height; this grid used to panic in a RunGrid worker.
func TestRunGridAllDeviantRebase(t *testing.T) {
	var spec sweep.Spec
	if err := json.Unmarshal([]byte(`{"n":4,"delta":16,"nu_values":[0.4],"c_values":[1],"seed":1,
		"replicates":400,"adversary":"max-delay","rounds":2020,"t":5,"sample_every":104,
		"checker_retention":1,"compact_every":301,"compact_min_retire":2}`), &spec); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		spec.Seed = seed
		cfg, err := spec.Config()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 1
		if _, err := sweep.RunGrid(context.Background(), cfg, spec.Replicates, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

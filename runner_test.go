package neatbound

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"neatbound/internal/consistency"
	"neatbound/internal/engine"
	"neatbound/internal/metrics"
	"neatbound/internal/sweep"
)

// parityCase is one Run configuration the parity tests replay by hand.
type parityCase struct {
	Params         Params
	Rounds         int
	Seed           uint64
	Adversary      Adversary
	T, SampleEvery int
	Shards         int
}

// legacySimulate re-implements the pre-Runner Simulate data path — the
// checker as the only observer plus post-run record replays — so the
// parity tests compare Run's streaming observer stack against the
// historical assembly, not against itself.
func legacySimulate(t *testing.T, cfg parityCase) SimulationReport {
	t.Helper()
	sampleEvery := cfg.SampleEvery
	if sampleEvery <= 0 {
		sampleEvery = cfg.Rounds / 50
		if sampleEvery < 1 {
			sampleEvery = 1
		}
	}
	checker, err := consistency.NewChecker(cfg.T, sampleEvery)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{
		Params:    cfg.Params,
		Rounds:    cfg.Rounds,
		Seed:      cfg.Seed,
		Adversary: cfg.Adversary,
		Observer:  checker,
		Shards:    cfg.Shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	viols, err := checker.Check(res.Tree)
	if err != nil {
		t.Fatal(err)
	}
	maxDepth, err := checker.MaxForkDepth(res.Tree)
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := consistency.Account(res.Records, cfg.Params.Delta)
	if err != nil {
		t.Fatal(err)
	}
	quality, err := metrics.ChainQuality(res.Tree, res.Tree.Best(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return SimulationReport{
		Violations:           len(viols),
		ViolationList:        viols,
		MaxForkDepth:         maxDepth,
		Ledger:               ledger,
		PredictedConvergence: float64(cfg.Rounds) * cfg.Params.ConvergenceOpportunityRate(),
		PredictedAdversary:   float64(cfg.Rounds) * cfg.Params.AdversaryBlockRate(),
		HonestBlocks:         res.HonestBlocks,
		AdversaryBlocks:      res.AdversaryBlocks,
		ChainGrowthRate:      metrics.ChainGrowthRate(res.Records),
		ChainQuality:         quality,
		MainChainShare:       metrics.MainChainShare(res.Tree),
		TotalBlocks:          res.Tree.Len() - 1,
		LiveBlocks:           res.Tree.LiveBlocks(),
	}
}

// runnerParityCases spans every adversary class on the golden-seed
// parameterizations (the oracle and adaptive-ν golden cases are
// engine-level features pinned by TestGoldenTracesObserver).
func runnerParityCases() []parityCase {
	base := Params{N: 40, P: 0.005, Delta: 4, Nu: 0.3}
	deep := Params{N: 40, P: 0.005, Delta: 8, Nu: 0.45}
	return []parityCase{
		{Params: base, Rounds: 3000, Seed: 1, T: 6},
		{Params: base, Rounds: 3000, Seed: 2, T: 6, Adversary: NewMaxDelayAdversary()},
		{Params: deep, Rounds: 3000, Seed: 3, T: 3, Adversary: NewPrivateMiningAdversary(3)},
		{Params: base, Rounds: 3000, Seed: 5, T: 6, Adversary: NewSelfishAdversary()},
		{Params: deep, Rounds: 3000, Seed: 6, T: 4, Adversary: NewBalanceAdversary(), SampleEvery: 17},
	}
}

func TestRunMatchesLegacySimulate(t *testing.T) {
	for _, shards := range []int{0, 3} {
		for i, cfg := range runnerParityCases() {
			cfg.Shards = shards
			want := legacySimulate(t, cfg)
			// Fresh adversary: strategies are stateful, so rebuild for
			// the second execution.
			fresh := runnerParityCases()[i]
			opts := []Option{
				WithRounds(cfg.Rounds),
				WithSeed(cfg.Seed),
				WithConsistency(cfg.T, cfg.SampleEvery),
				WithShards(shards),
			}
			if fresh.Adversary != nil {
				opts = append(opts, WithAdversary(fresh.Adversary))
			}
			rep, err := Run(context.Background(), cfg.Params, opts...)
			if err != nil {
				t.Fatalf("case %d shards %d: %v", i, shards, err)
			}
			if rep.Partial || rep.RoundsExecuted != cfg.Rounds {
				t.Errorf("case %d shards %d: partial=%v executed=%d", i, shards, rep.Partial, rep.RoundsExecuted)
			}
			if !reflect.DeepEqual(rep.SimulationReport, want) {
				t.Errorf("case %d shards %d: Run report diverged from legacy Simulate\n got %+v\nwant %+v",
					i, shards, rep.SimulationReport, want)
			}
		}
	}
}

func TestRunObserverStack(t *testing.T) {
	pr, err := NewParams(20, 0.002, 2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 400
	seen := 0
	finished := false
	var progress []int
	var trace bytes.Buffer
	rep, err := Run(context.Background(), pr,
		WithRounds(rounds),
		WithSeed(3),
		WithAdversary(NewMaxDelayAdversary()),
		WithConsistency(6, 0),
		WithTraceJSON(&trace),
		WithProgress(100, func(p Progress) { progress = append(progress, p.Round) }),
		WithObserver(
			ObserverFunc(func(_ *Engine, _ RoundRecord) { seen++ }),
			finishObserverFunc(func(res *RunResult) error {
				finished = true
				if res.Partial {
					return errors.New("unexpected partial")
				}
				return nil
			}),
		),
	)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RoundsExecuted != rounds || seen != rounds {
		t.Errorf("observer saw %d of %d rounds", seen, rounds)
	}
	if !finished {
		t.Error("OnFinish not dispatched")
	}
	wantProgress := []int{100, 200, 300, 400}
	if !reflect.DeepEqual(progress, wantProgress) {
		t.Errorf("progress = %v, want %v", progress, wantProgress)
	}
	if got := bytes.Count(trace.Bytes(), []byte("\n")); got != rounds {
		t.Errorf("trace has %d lines, want %d", got, rounds)
	}
}

// finishObserverFuncT adapts a function to FinishObserver for tests.
type finishObserverFuncT struct{ fn func(*RunResult) error }

func finishObserverFunc(fn func(*RunResult) error) Observer { return finishObserverFuncT{fn} }

func (f finishObserverFuncT) OnRound(*Engine, RoundRecord) {}

func (f finishObserverFuncT) OnFinish(res *RunResult) error { return f.fn(res) }

func TestRunCancellationMidRun(t *testing.T) {
	pr, err := NewParams(20, 0.002, 2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const stopAt = 40
	rep, err := Run(ctx, pr,
		WithRounds(1_000_000),
		WithSeed(7),
		WithConsistency(4, 0),
		WithObserver(ObserverFunc(func(_ *Engine, rec RoundRecord) {
			if rec.Round == stopAt {
				cancel()
			}
		})),
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("no partial report returned")
	}
	if !rep.Partial {
		t.Error("Partial flag not set")
	}
	// "Within one round": the cancel lands during round stopAt's
	// observer dispatch, so the engine must stop before round stopAt+1.
	if rep.RoundsExecuted != stopAt {
		t.Errorf("executed %d rounds, want exactly %d", rep.RoundsExecuted, stopAt)
	}
	// The partial report still carries the analysis over what ran — the
	// Eq. 26/27 predictions included, which must scale with the executed
	// rounds, not the configured million.
	if rep.Ledger.Rounds != stopAt {
		t.Errorf("ledger covers %d rounds, want %d", rep.Ledger.Rounds, stopAt)
	}
	wantPred := float64(stopAt) * pr.ConvergenceOpportunityRate()
	if rep.PredictedConvergence != wantPred {
		t.Errorf("partial PredictedConvergence = %g, want %g (scaled to executed rounds)",
			rep.PredictedConvergence, wantPred)
	}
}

func TestOptionScopeValidation(t *testing.T) {
	pr, err := NewParams(20, 0.002, 2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), pr, WithRounds(10), WithReplicates(3)); err == nil ||
		!strings.Contains(err.Error(), "WithReplicates") {
		t.Errorf("sweep-only option accepted by Run: %v", err)
	}
	if _, err := Run(context.Background(), pr, WithRounds(10), WithWorkers(2)); err == nil {
		t.Error("WithWorkers accepted by Run")
	}
	if _, err := Run(context.Background(), pr, Option{}); err == nil {
		t.Error("zero Option accepted")
	}
	grid := SweepGrid{N: 20, Delta: 2, NuValues: []float64{0.25}, CValues: []float64{5}}
	if _, err := RunSweep(context.Background(), grid, WithRounds(100),
		WithObserver(ObserverFunc(func(*Engine, RoundRecord) {}))); err == nil ||
		!strings.Contains(err.Error(), "WithObserver") {
		t.Errorf("run-only option accepted by RunSweep: %v", err)
	}
	if _, err := RunSweep(context.Background(), grid, WithRounds(100),
		WithAdversary(NewMaxDelayAdversary())); err == nil {
		t.Error("WithAdversary accepted by RunSweep")
	}
}

func TestWithAdversaryName(t *testing.T) {
	pr, err := NewParams(20, 0.002, 2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	byName, err := Run(context.Background(), pr,
		WithRounds(500), WithSeed(9), WithConsistency(4, 0),
		WithAdversaryName("max-delay", AdversaryOpts{}))
	if err != nil {
		t.Fatal(err)
	}
	byValue, err := Run(context.Background(), pr,
		WithRounds(500), WithSeed(9), WithConsistency(4, 0),
		WithAdversary(NewMaxDelayAdversary()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byName.SimulationReport, byValue.SimulationReport) {
		t.Error("WithAdversaryName(max-delay) diverged from WithAdversary(NewMaxDelayAdversary())")
	}
	if _, err := Run(context.Background(), pr, WithRounds(10),
		WithAdversaryName("bogus", AdversaryOpts{})); err == nil {
		t.Error("unknown adversary name accepted")
	}
	if _, err := Run(context.Background(), pr, WithRounds(10),
		WithAdversary(NewMaxDelayAdversary()),
		WithAdversaryName("max-delay", AdversaryOpts{})); err == nil {
		t.Error("WithAdversary + WithAdversaryName accepted together")
	}
}

// TestRunSweepMatchesLegacyReplicatedStream pins RunSweep's option
// translation against the sweep pipeline the legacy
// SweepReplicatedStream wrapped: sweep.RunGrid with a cell callback and
// a hand-built adversary factory.
func TestRunSweepMatchesLegacyReplicatedStream(t *testing.T) {
	cfg := sweep.Config{
		N: 20, Delta: 2,
		NuValues: []float64{0.2, 0.3},
		CValues:  []float64{2, 8},
		Rounds:   800, Seed: 11, T: 4,
		NewAdversary: func() Adversary { return NewPrivateMiningAdversary(3) },
	}
	var streamed []AggregateCell
	want, err := sweep.RunGrid(context.Background(), cfg, 3, func(c AggregateCell) { streamed = append(streamed, c) })
	if err != nil {
		t.Fatal(err)
	}
	var got []AggregateCell
	cells, err := RunSweep(context.Background(),
		SweepGrid{N: cfg.N, Delta: cfg.Delta, NuValues: cfg.NuValues, CValues: cfg.CValues},
		WithRounds(cfg.Rounds),
		WithSeed(cfg.Seed),
		WithConsistency(cfg.T, 0),
		WithReplicates(3),
		WithAdversaryName("private", AdversaryOpts{ForkDepth: 3}),
		WithCellObserver(func(c AggregateCell) { got = append(got, c) }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells, want) {
		t.Errorf("RunSweep cells diverged from sweep.RunGrid\n got %+v\nwant %+v", cells, want)
	}
	if len(got) != len(streamed) || len(got) != len(cells) {
		t.Errorf("streamed %d cells via observer, RunGrid streamed %d, grid has %d", len(got), len(streamed), len(cells))
	}
}

// TestRunSweepCellMatchesRun pins that a sweep cell and a single Run are
// the same computation: every single-replicate RunSweep cell equals a
// Run at the cell's (ν, c) with the cell's sweep.CellSeed seed — under
// the default model and under a scenario.
func TestRunSweepCellMatchesRun(t *testing.T) {
	stochastic, err := ParseScenario("stochastic-delay")
	if err != nil {
		t.Fatal(err)
	}
	grid := SweepGrid{N: 40, Delta: 8, NuValues: []float64{0.3, 0.45}, CValues: []float64{0.6, 6}}
	const (
		rounds = 3000
		seed   = 5
		tee    = 3
	)
	for _, tc := range []struct {
		name string
		spec *ScenarioSpec
	}{{"default", nil}, {"stochastic-delay", stochastic}} {
		t.Run(tc.name, func(t *testing.T) {
			shared := []Option{
				WithRounds(rounds),
				WithConsistency(tee, 0),
				WithAdversaryName("private", AdversaryOpts{ForkDepth: 3}),
				WithScenario(tc.spec),
			}
			cells, err := RunSweep(context.Background(), grid, append(shared, WithSeed(seed))...)
			if err != nil {
				t.Fatal(err)
			}
			violated := 0
			for i, cell := range cells {
				if cell.Err != nil || cell.Replicates != 1 {
					t.Fatalf("cell %d: replicates %d, err %v", i, cell.Replicates, cell.Err)
				}
				pr, err := ParamsFromC(grid.N, grid.Delta, cell.Nu, cell.C)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := Run(context.Background(), pr, append(shared, WithSeed(sweep.CellSeed(seed, i, 0)))...)
				if err != nil {
					t.Fatal(err)
				}
				got := [5]float64{cell.Violations.Mean, cell.MaxForkDepth.Mean,
					cell.Convergence.Mean, cell.Adversary.Mean, cell.Margin.Mean}
				want := [5]float64{float64(rep.Violations), float64(rep.MaxForkDepth),
					float64(rep.Ledger.Convergence), float64(rep.Ledger.Adversary), float64(rep.Ledger.Margin())}
				if got != want {
					t.Errorf("cell (ν=%g, c=%g): sweep [viol fork conv adv margin] = %v, Run = %v",
						cell.Nu, cell.C, got, want)
				}
				if rep.Violations > 0 {
					violated++
				}
			}
			if violated == 0 {
				t.Error("no cell violated: the comparison never exercised a non-empty violation list")
			}
		})
	}
}

func TestRunSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	grid := SweepGrid{N: 20, Delta: 2, NuValues: []float64{0.2, 0.25, 0.3}, CValues: []float64{2, 5, 8}}
	finished := 0
	cells, err := RunSweep(ctx, grid,
		WithRounds(20000),
		WithSeed(13),
		WithConsistency(4, 0),
		WithWorkers(2),
		WithCellObserver(func(AggregateCell) {
			finished++
			cancel() // stop the grid after the first finished cell
		}),
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(cells) != 9 {
		t.Fatalf("grid slice has %d slots, want 9", len(cells))
	}
	aggregated := 0
	for _, c := range cells {
		if c.Replicates > 0 {
			aggregated++
		}
	}
	if aggregated == 0 {
		t.Error("no cell finished before cancellation propagated")
	}
	// Cancelling after the first finished cell must prevent most of the
	// grid from running: with 2 workers, at most the in-flight jobs can
	// still land after the producer stops dispatching.
	if aggregated == 9 {
		t.Error("cancellation did not stop the grid — all 9 cells completed")
	}
}

func TestMergeCellStreamsReassemblesPartitions(t *testing.T) {
	// Cross-process sharding: two shards each run a partition of the
	// NuValues, stream their cells as JSON lines, and the driver merges
	// the streams back into one ν-major grid.
	runShard := func(nus []float64) []AggregateCell {
		cells, err := RunSweep(context.Background(),
			SweepGrid{N: 20, Delta: 2, NuValues: nus, CValues: []float64{2, 8}},
			WithRounds(600), WithSeed(17), WithConsistency(4, 0), WithReplicates(2))
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	shardA := runShard([]float64{0.3})
	shardB := runShard([]float64{0.2})
	var bufA, bufB bytes.Buffer
	if err := MarshalCells(&bufA, shardA); err != nil {
		t.Fatal(err)
	}
	if err := MarshalCells(&bufB, shardB); err != nil {
		t.Fatal(err)
	}
	merged, err := MergeCellStreams(&bufA, &bufB)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]AggregateCell{}, shardB...), shardA...) // sorted ascending by ν
	if !reflect.DeepEqual(merged, want) {
		t.Errorf("merged stream diverged\n got %+v\nwant %+v", merged, want)
	}
}

func TestUnmarshalCellsRoundTripsErrors(t *testing.T) {
	// An infeasible cell (p out of range) marshals its error string and
	// unmarshals back to a non-nil Err.
	cells, err := RunSweep(context.Background(),
		SweepGrid{N: 4, Delta: 1, NuValues: []float64{0.3}, CValues: []float64{0.01}},
		WithRounds(100), WithConsistency(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Err == nil {
		t.Fatalf("expected one infeasible cell, got %+v", cells)
	}
	var buf bytes.Buffer
	if err := MarshalCells(&buf, cells); err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalCells(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Err == nil ||
		back[0].Err.Error() != cells[0].Err.Error() {
		t.Errorf("error did not round-trip: %+v", back)
	}
}

// TestRunAutoShardsBitIdentical pins that the deprecated
// WithShards(AutoShards), which frozen callers still pass, is ignored:
// the report equals the default run's.
func TestRunAutoShardsBitIdentical(t *testing.T) {
	pr := Params{N: 40, P: 0.005, Delta: 4, Nu: 0.3}
	serial, err := Run(context.Background(), pr,
		WithRounds(1500), WithSeed(21), WithConsistency(6, 0))
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Run(context.Background(), pr,
		WithRounds(1500), WithSeed(21), WithConsistency(6, 0), WithShards(AutoShards))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.SimulationReport, auto.SimulationReport) {
		t.Error("WithShards(AutoShards) diverged from the default run")
	}
}

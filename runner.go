package neatbound

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"neatbound/internal/adversary"
	"neatbound/internal/engine"
	"neatbound/internal/scenario"
	"neatbound/internal/sweep"
)

// This file is the execution API: one context-aware Runner (Run) and
// one option-driven sweep pipeline (RunSweep), both running each
// simulation through sweep.RunOne; trace writers and user hooks plug
// into it as composable observers.

// EngineVersion is the engine-semantics version (sweep.EngineVersion):
// it changes only when a code change alters simulation results for some
// configuration — never for bit-identical refactors. It is stamped into
// every interchange cell record ("engine_version"), into benchmark
// entries (cmd/benchjson), and into the sweepd store's cell content
// addresses, so results are only pooled or deduplicated across
// identical semantics.
const EngineVersion = sweep.EngineVersion

// Engine is the protocol execution engine observers receive; it exposes
// honest views (DistinctTips, PlayerTip, MaxHonestHeight, …) for
// inspection during a run.
type Engine = engine.Engine

// RoundRecord is one executed round's summary, streamed to observers.
type RoundRecord = engine.RoundRecord

// RunResult is the engine-level outcome handed to OnFinish hooks.
type RunResult = engine.Result

// Observer receives every executed round; implement OnFinish
// (FinishObserver) to also finalize after the last round. Attach with
// WithObserver; the consistency checker and metric recorders Run
// installs are observers on the same stack.
type Observer = engine.Observer

// FinishObserver is an Observer with an end-of-run hook.
type FinishObserver = engine.FinishObserver

// ObserverFunc adapts a plain function to Observer.
type ObserverFunc = engine.ObserverFunc

// Observers composes observers into one (nils dropped, nested stacks
// flattened).
func Observers(obs ...Observer) Observer { return engine.Observers(obs...) }

// AutoShards was the WithShards value that picked the engine's
// delivery-phase parallelism automatically.
//
// Deprecated: ignored, like WithShards.
const AutoShards = engine.AutoShards

// AdversaryOpts carries the strategy-specific knobs NewAdversaryByName
// accepts.
type AdversaryOpts struct {
	// ForkDepth is the private-mining strategy's minimum published fork
	// depth; 0 means the default of 4. Other strategies ignore it.
	ForkDepth int
}

// AdversaryNames lists the strategy names NewAdversaryByName accepts.
func AdversaryNames() []string { return adversary.Names() }

// NewAdversaryByName builds a strategy from its experiment/CLI name —
// the one switch (adversary.ByName) shared by cmd/simulate, cmd/sweep,
// cmd/report, and sweepd job requests.
func NewAdversaryByName(name string, opts AdversaryOpts) (Adversary, error) {
	adv, err := adversary.ByName(name, opts.ForkDepth)
	if err != nil {
		return nil, fmt.Errorf("neatbound: %w", err)
	}
	return adv, nil
}

// Progress is the periodic update WithProgress delivers.
type Progress struct {
	// Round is the last executed round; Rounds the configured total.
	Round, Rounds int
}

// runOptions collects what the functional options configure; Run and
// RunSweep each read the subset that applies to them. Every per-cell
// knob lives in the embedded sweep.Spec, whose grid stays empty until a
// sweep entry point fills it (spec).
type runOptions struct {
	sweep.Spec
	adversary     Adversary
	advFactory    func() Adversary
	advNameSet    bool
	observers     []Observer
	progressEvery int
	progressFn    func(Progress)
	traceW        io.Writer
	nuSchedule    func(round int) float64
	workers       int
	onCell        func(AggregateCell)
}

// spec is the one serializable sweep the options describe over grid.
func (o *runOptions) spec(grid SweepGrid) sweep.Spec {
	s := o.Spec
	s.Grid = grid
	return s
}

// optionScope marks which entry points accept an option.
type optionScope uint8

const (
	scopeRun optionScope = 1 << iota
	scopeSweep
	// scopeSvc marks options a SweepClient submission can carry to a
	// sweepd server (sweepclient.go) — the subset of the sweep
	// vocabulary that travels as data.
	scopeSvc
)

// Option configures Run and RunSweep. Each constructor documents which
// entry points accept it; passing an option where it does not apply is
// an error, not a silent no-op.
type Option struct {
	name  string
	scope optionScope
	apply func(*runOptions)
}

// applyOptions folds opts into a fresh runOptions, rejecting options
// outside scope.
func applyOptions(scope optionScope, entry string, opts []Option) (*runOptions, error) {
	o := &runOptions{}
	o.Replicates = 1
	for _, opt := range opts {
		if opt.apply == nil {
			return nil, fmt.Errorf("neatbound: zero Option value passed to %s", entry)
		}
		if opt.scope&scope == 0 {
			return nil, fmt.Errorf("neatbound: option %s does not apply to %s", opt.name, entry)
		}
		opt.apply(o)
	}
	return o, nil
}

// WithRounds sets the execution length (per cell, for sweeps). Required:
// there is no default.
func WithRounds(rounds int) Option {
	return Option{name: "WithRounds", scope: scopeRun | scopeSweep | scopeSvc,
		apply: func(o *runOptions) { o.Rounds = rounds }}
}

// WithSeed sets the base random seed (0 is a valid seed and the
// default); identical configurations replay identically.
func WithSeed(seed uint64) Option {
	return Option{name: "WithSeed", scope: scopeRun | scopeSweep | scopeSvc,
		apply: func(o *runOptions) { o.Seed = seed }}
}

// WithAdversary sets the run's strategy; nil (the default) runs the
// passive baseline. Run only — sweeps need a fresh strategy per cell,
// so they take WithAdversaryFactory or WithAdversaryName.
func WithAdversary(adv Adversary) Option {
	return Option{name: "WithAdversary", scope: scopeRun,
		apply: func(o *runOptions) { o.adversary = adv }}
}

// WithAdversaryFactory sets the per-cell strategy factory for sweeps
// (strategies are stateful, so each cell builds its own).
func WithAdversaryFactory(factory func() Adversary) Option {
	return Option{name: "WithAdversaryFactory", scope: scopeSweep,
		apply: func(o *runOptions) { o.advFactory = factory }}
}

// WithAdversaryName selects the strategy by its NewAdversaryByName name;
// it works for both Run (one instance) and RunSweep (one per cell).
func WithAdversaryName(name string, opts AdversaryOpts) Option {
	return Option{name: "WithAdversaryName", scope: scopeRun | scopeSweep | scopeSvc,
		apply: func(o *runOptions) { o.Adversary, o.ForkDepth, o.advNameSet = name, opts.ForkDepth, true }}
}

// WithShards set the engine's delivery-phase parallelism. It still
// fills the engine_shards field of a SweepRequest, which the wire format
// keeps.
//
// Deprecated: ignored; engine delivery is serial.
func WithShards(shards int) Option {
	return Option{name: "WithShards", scope: scopeRun | scopeSweep | scopeSvc,
		apply: func(o *runOptions) { o.EngineShards = shards }}
}

// WithConsistency sets Definition 1's chop parameter T and the checker's
// snapshot interval (sampleEvery ≤ 0 picks rounds/50, min 1). Without
// this option the check runs at T = 0 with the default interval.
func WithConsistency(tee, sampleEvery int) Option {
	return Option{name: "WithConsistency", scope: scopeRun | scopeSweep | scopeSvc,
		apply: func(o *runOptions) { o.T, o.SampleEvery = tee, sampleEvery }}
}

// WithObserver attaches observers to the run's stack, after the built-in
// checker and recorders. Run only.
func WithObserver(obs ...Observer) Option {
	return Option{name: "WithObserver", scope: scopeRun,
		apply: func(o *runOptions) { o.observers = append(o.observers, obs...) }}
}

// WithProgress calls fn every `every` rounds (and on the final round)
// with the run's progress. Run only.
func WithProgress(every int, fn func(Progress)) Option {
	return Option{name: "WithProgress", scope: scopeRun,
		apply: func(o *runOptions) { o.progressEvery, o.progressFn = every, fn }}
}

// WithTraceJSON streams every RoundRecord as one JSON line to w — the
// round-trace interchange for external analysis. Run only.
func WithTraceJSON(w io.Writer) Option {
	return Option{name: "WithTraceJSON", scope: scopeRun,
		apply: func(o *runOptions) { o.traceW = w }}
}

// WithNuSchedule makes corruption adaptive: each round the adversary
// controls round(ν(t)·N) players (see the engine's adaptive-corruption
// model). Run only.
func WithNuSchedule(fn func(round int) float64) Option {
	return Option{name: "WithNuSchedule", scope: scopeRun,
		apply: func(o *runOptions) { o.nuSchedule = fn }}
}

// WithFastForward was the opt-in to the engine's event-driven round
// skipping (docs/fastforward.md). It still fills the fast_forward field
// of a SweepRequest, which the wire format keeps.
//
// Deprecated: a no-op. Every run takes the fast path wherever it arms
// and steps elsewhere, with byte-identical results either way.
func WithFastForward() Option {
	return Option{name: "WithFastForward", scope: scopeRun | scopeSweep | scopeSvc,
		apply: func(o *runOptions) { o.FastForward = true }}
}

// WithCompaction enables the engine's epoch-based arena compaction
// (engine.Config.CompactEvery): every `every` rounds the engine retires
// all blocks strictly below the retention watermark — the common
// ancestor of every live honest view, every adversary- and
// observer-retained block, and every in-flight message — bounding
// resident memory on long runs instead of growing with every block
// ever mined. minRetire is the minimum ID span an epoch must reclaim
// to pay for the rebase (0 picks the engine default). Compaction is
// bit-identical to running without it; see docs/memory.md.
//
// The built-in consistency checker retains its full snapshot history by
// default, which pins the watermark near genesis and keeps compaction
// inert — combine with WithCheckerRetention to let the watermark
// advance.
func WithCompaction(every, minRetire int) Option {
	return Option{name: "WithCompaction", scope: scopeRun | scopeSweep | scopeSvc,
		apply: func(o *runOptions) { o.CompactEvery, o.CompactMinRetire = every, minRetire }}
}

// WithCheckerRetention bounds the consistency checker's snapshot
// history to the most recent keep samples
// (consistency.Checker.SetRetention); 0, the default, retains the whole
// run. A bounded window is what lets WithCompaction reclaim memory, at
// the cost of evaluating Definition 1 over the retained window only.
func WithCheckerRetention(keep int) Option {
	return Option{name: "WithCheckerRetention", scope: scopeRun | scopeSweep | scopeSvc,
		apply: func(o *runOptions) { o.CheckerRetention = keep }}
}

// ScenarioSpec is a scenario-layer description (internal/scenario): a
// stochastic or partitioned delay policy, a churn plan, and/or a skewed
// mining-power profile, all JSON-portable. Build one with ParseScenario
// (preset name or JSON literal) and pass it via WithScenario.
type ScenarioSpec = scenario.Spec

// ScenarioNames lists the built-in scenario preset names ParseScenario
// accepts.
func ScenarioNames() []string { return scenario.Names() }

// ParseScenario resolves a CLI-style scenario argument: "" returns
// (nil, nil) — the default model; a "{"-prefixed string parses as a
// JSON ScenarioSpec; anything else must be a preset name
// (ScenarioNames).
func ParseScenario(arg string) (*ScenarioSpec, error) {
	spec, err := scenario.Parse(arg)
	if err != nil {
		return nil, fmt.Errorf("neatbound: %w", err)
	}
	return spec, nil
}

// WithScenario applies the scenario layer to the run (or every sweep
// cell): the spec's delay policy replaces the honest Δ-bound broadcast
// schedule — always within the Δ envelope of the model — and its
// churn/power sections configure scheduled player leave epochs and
// per-player mining weights. Scenarios disarm fast-forward (the engine
// falls back to stepping; see docs/scenarios.md) and are incompatible
// with WithNuSchedule. Nil is the default model. Run, RunSweep and
// SweepClient.Submit.
func WithScenario(spec *ScenarioSpec) Option {
	return Option{name: "WithScenario", scope: scopeRun | scopeSweep | scopeSvc,
		apply: func(o *runOptions) { o.Scenario = spec }}
}

// WithReplicates runs every sweep cell r times with independent seeds
// and aggregates (default 1). RunSweep and SweepClient.Submit.
func WithReplicates(r int) Option {
	return Option{name: "WithReplicates", scope: scopeSweep | scopeSvc,
		apply: func(o *runOptions) { o.Replicates = r }}
}

// WithWorkers sizes RunSweep's (cell × replicate) job-queue width (0,
// the default, means GOMAXPROCS).
func WithWorkers(workers int) Option {
	return Option{name: "WithWorkers", scope: scopeSweep,
		apply: func(o *runOptions) { o.workers = workers }}
}

// WithCellObserver streams every finished AggregateCell to fn exactly
// once, as it completes, while the rest of the grid is still running —
// in completion order, on RunSweep's calling goroutine.
func WithCellObserver(fn func(AggregateCell)) Option {
	return Option{name: "WithCellObserver", scope: scopeSweep,
		apply: func(o *runOptions) { o.onCell = fn }}
}

// RunReport is Run's outcome: the full SimulationReport plus the
// partial-run flags a cancellable execution needs.
type RunReport struct {
	SimulationReport
	// Partial is set when ctx was cancelled mid-run; every report field
	// then covers only the rounds actually executed.
	Partial bool
	// RoundsExecuted counts executed rounds (the configured total unless
	// Partial).
	RoundsExecuted int
}

// Run executes the protocol under pr with the given options and returns
// the full consistency report, computed by sweep.RunOne exactly as for
// a sweep cell. The consistency checker, the Lemma-1 ledger recorder,
// any trace writer or progress hook, and the observers of WithObserver
// all run side by side in one pass over the round stream.
//
// Cancelling ctx stops the run before the next round: Run then returns
// the report over the rounds executed so far, with Partial set, together
// with ctx.Err().
func Run(ctx context.Context, pr Params, opts ...Option) (*RunReport, error) {
	o, err := applyOptions(scopeRun, "Run", opts)
	if err != nil {
		return nil, err
	}
	if err := pr.Validate(); err != nil {
		return nil, fmt.Errorf("neatbound: %w", err)
	}
	adv := o.adversary
	if o.advNameSet {
		if adv != nil {
			return nil, fmt.Errorf("neatbound: WithAdversary and WithAdversaryName are mutually exclusive")
		}
		if adv, err = NewAdversaryByName(o.Adversary, AdversaryOpts{ForkDepth: o.ForkDepth}); err != nil {
			return nil, err
		}
	}
	var stack []engine.Observer
	if o.traceW != nil {
		stack = append(stack, engine.NewTraceWriter(o.traceW))
	}
	if o.progressFn != nil {
		every := o.progressEvery
		if every < 1 {
			every = 1
		}
		total := o.Rounds
		fn := o.progressFn
		stack = append(stack, ObserverFunc(func(_ *Engine, rec RoundRecord) {
			if rec.Round%every == 0 || rec.Round == total {
				fn(Progress{Round: rec.Round, Rounds: total})
			}
		}))
	}
	stack = append(stack, o.observers...)
	rep, res, err := sweep.RunOne(ctx, o.Tuning.Apply(engine.Config{
		Params:     pr,
		Seed:       o.Seed,
		Adversary:  adv,
		Observer:   engine.Observers(stack...),
		NuSchedule: o.nuSchedule,
	}), o.Semantics)
	if res == nil {
		return nil, fmt.Errorf("neatbound: %w", err)
	}
	return &RunReport{
		SimulationReport: rep,
		Partial:          res.Partial,
		RoundsExecuted:   res.Rounds,
	}, err
}

// SweepGrid spans the (ν × c) parameter grid of one sweep; every
// (ν, c) pair is a cell executed at the shared n and Δ.
type SweepGrid = sweep.Grid

// RunSweep executes a (ν × c) grid on the job-queue pipeline and
// aggregates each cell over its replicates; each replicate is one
// sweep.RunOne, the computation Run performs. Attach WithCellObserver
// to stream finished cells while the grid is still running; the
// streamed lines marshal via MarshalCells into the interchange that
// MergeCellStreams reassembles across hosts.
//
// Cancelling ctx stops the grid promptly: cells already aggregated are
// returned (unfinished slots stay zero-valued) together with ctx.Err().
func RunSweep(ctx context.Context, grid SweepGrid, opts ...Option) ([]AggregateCell, error) {
	o, err := applyOptions(scopeSweep, "RunSweep", opts)
	if err != nil {
		return nil, err
	}
	if o.advFactory != nil && o.advNameSet {
		return nil, fmt.Errorf("neatbound: WithAdversaryFactory and WithAdversaryName are mutually exclusive")
	}
	cfg, err := o.spec(grid).Config()
	if err != nil {
		return nil, fmt.Errorf("neatbound: %w", err)
	}
	if o.advFactory != nil {
		cfg.NewAdversary = o.advFactory
	}
	cfg.Workers = o.workers
	return sweep.RunGrid(ctx, cfg, o.Replicates, o.onCell)
}

// MarshalCells writes one JSON line per cell to w — the AggregateCell
// interchange cmd/sweep -json emits and MergeCellStreams merges.
func MarshalCells(w io.Writer, cells []AggregateCell) error {
	return sweep.MarshalCells(w, cells)
}

// MarshalCell encodes one cell onto enc in the interchange form — the
// streaming building block cmd/sweep -json uses per finished cell.
func MarshalCell(enc *json.Encoder, cell AggregateCell) error {
	return sweep.MarshalCell(enc, cell)
}

// UnmarshalCells reads a JSON-lines AggregateCell stream back (the
// MarshalCells format).
func UnmarshalCells(r io.Reader) ([]AggregateCell, error) {
	return sweep.UnmarshalCells(r)
}

// MergeCellStreams folds several JSON-lines AggregateCell streams — the
// outputs of sweep shards run on different machines, each covering a
// partition of the grid — into one slice sorted ascending by (ν, c).
// Duplicate (ν, c) cells merge exactly: replicate and violation counts
// add, the Wilson interval is recomputed, and the summaries combine via
// the parallel Welford update.
func MergeCellStreams(streams ...io.Reader) ([]AggregateCell, error) {
	return sweep.MergeCellStreams(streams...)
}

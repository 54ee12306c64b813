package sweep

import (
	"context"

	"neatbound/internal/consistency"
	"neatbound/internal/engine"
	"neatbound/internal/metrics"
	"neatbound/internal/scenario"
)

// Report summarizes one executed simulation with its consistency
// analysis — what the façade's Run returns and what every sweep cell
// replicate folds into its aggregate.
type Report struct {
	// Violations counts Definition-1 breaches at chop T.
	Violations int
	// ViolationList holds the individual breaches (round pairs, tips,
	// fork depths).
	ViolationList []consistency.Violation
	// MaxForkDepth is the deepest observed divergence (the smallest T
	// that would have been violation-free).
	MaxForkDepth int
	// Ledger is the Lemma-1 accounting.
	Ledger consistency.Accounting
	// PredictedConvergence is T·ᾱ^{2Δ}α₁ (Eq. 26).
	PredictedConvergence float64
	// PredictedAdversary is T·pνn (Eq. 27).
	PredictedAdversary float64
	// HonestBlocks and AdversaryBlocks count mined blocks.
	HonestBlocks, AdversaryBlocks int
	// ChainGrowthRate is blocks of honest-chain height per round.
	ChainGrowthRate float64
	// ChainQuality is the honest fraction of the final main chain, scored
	// on the chain ending at Tree.Best(). Tie-break caveat: Best keeps
	// the first block to reach the maximal height (the pre-arena Tips
	// scan took the largest ID), so when the run ends mid-race between
	// equally tall tips, quality is scored on one of the tied — equally
	// tall — chains, and which one differs from the historical map-based
	// scorer.
	ChainQuality float64
	// MainChainShare is the fraction of mined blocks on the main chain.
	MainChainShare float64
	// TotalBlocks counts every block ever added to the tree (genesis
	// excluded); LiveBlocks counts the blocks still resident in the
	// arena at the end of the run — equal to TotalBlocks+1 unless arena
	// compaction retired history.
	TotalBlocks, LiveBlocks int
}

// RunOne is the one place a simulation runs together with its
// consistency analysis; the façade's Run and every sweep cell call it.
// ecfg carries the engine half (parameters, seed, adversary instance,
// tuning, observers); sem supplies the run length and the analysis:
// RunOne sets ecfg.Rounds from sem.Rounds, applies sem.Scenario (nil is
// the default model), installs the Definition-1 checker (chop sem.T,
// snapshot interval sem.SampleEvery resolved by ResolveSampleEvery,
// window sem.CheckerRetention), the Lemma-1 ledger and a chain-growth
// recorder ahead of ecfg.Observer, runs the engine, and assembles the
// report. All three fold the round stream online, a quiet span in one
// call each, so RunOne sets ecfg.SkipRecords: the returned Result
// carries no Records. RunOne also sets ecfg.FastForward: the engine
// takes its event-driven path wherever it arms and steps otherwise,
// with the same results either way (docs/fastforward.md).
// sem.Adversary and sem.ForkDepth are not read: the strategy is
// ecfg.Adversary.
//
// The report covers the rounds actually executed, so a run cut short by
// ctx still yields one: RunOne then returns it, the engine's result
// (Partial set) and the run's error together. res is nil only when no
// report could be built — an invalid configuration or a failed analysis.
func RunOne(ctx context.Context, ecfg engine.Config, sem Semantics) (Report, *engine.Result, error) {
	ecfg.Rounds = sem.Rounds
	if spec := sem.Scenario; spec != nil {
		compiled, err := spec.Compile(ecfg.Params)
		if err != nil {
			return Report{}, nil, err
		}
		if compiled.Policy != nil {
			if ecfg.Adversary == nil {
				ecfg.Adversary = engine.PassiveAdversary{}
			}
			ecfg.Adversary = scenario.Wrap(ecfg.Adversary, compiled.Policy)
		}
		ecfg.Churn = compiled.Churn
		ecfg.MiningWeights = compiled.Weights
	}
	checker, err := consistency.NewChecker(sem.T, ResolveSampleEvery(sem.SampleEvery, sem.Rounds))
	if err != nil {
		return Report{}, nil, err
	}
	checker.SetRetention(sem.CheckerRetention)
	ledger, err := consistency.NewLedgerRecorder(ecfg.Params.Delta)
	if err != nil {
		return Report{}, nil, err
	}
	growth := &metrics.GrowthRecorder{}
	ecfg.Observer = engine.Observers(checker, ledger, growth, ecfg.Observer)
	ecfg.SkipRecords = true
	ecfg.FastForward = true
	e, err := engine.New(ecfg)
	if err != nil {
		return Report{}, nil, err
	}
	res, runErr := e.RunContext(ctx)
	viols, err := checker.Check(res.Tree)
	if err != nil {
		return Report{}, nil, err
	}
	maxDepth, err := checker.MaxForkDepth(res.Tree)
	if err != nil {
		return Report{}, nil, err
	}
	tree := res.Tree
	quality, err := metrics.ChainQuality(tree, tree.Best(), 0)
	if err != nil {
		return Report{}, nil, err
	}
	rounds := float64(res.Rounds)
	pr := ecfg.Params
	return Report{
		Violations:           len(viols),
		ViolationList:        viols,
		MaxForkDepth:         maxDepth,
		Ledger:               ledger.Accounting(),
		PredictedConvergence: rounds * pr.ConvergenceOpportunityRate(),
		PredictedAdversary:   rounds * pr.AdversaryBlockRate(),
		HonestBlocks:         res.HonestBlocks,
		AdversaryBlocks:      res.AdversaryBlocks,
		ChainGrowthRate:      growth.Rate(),
		ChainQuality:         quality,
		MainChainShare:       metrics.MainChainShare(tree),
		TotalBlocks:          tree.Len() - 1,
		LiveBlocks:           tree.LiveBlocks(),
	}, res, runErr
}

package neatbound

import (
	"context"
	"reflect"
	"testing"

	"neatbound/internal/adversary"
	"neatbound/internal/consistency"
	"neatbound/internal/engine"
	"neatbound/internal/metrics"
	"neatbound/internal/params"
	"neatbound/internal/sweep"
)

// runOneStepped is sweep.RunOne with FastForward off: the step engine,
// the reference every fast-forwarded run must equal. It copies RunOne
// except the scenario branch, which FuzzRunOneMatchesStep never takes.
func runOneStepped(ctx context.Context, ecfg engine.Config, sem sweep.Semantics) (sweep.Report, *engine.Result, error) {
	ecfg.Rounds = sem.Rounds
	checker, err := consistency.NewChecker(sem.T, sweep.ResolveSampleEvery(sem.SampleEvery, sem.Rounds))
	if err != nil {
		return sweep.Report{}, nil, err
	}
	checker.SetRetention(sem.CheckerRetention)
	ledger, err := consistency.NewLedgerRecorder(ecfg.Params.Delta)
	if err != nil {
		return sweep.Report{}, nil, err
	}
	growth := &metrics.GrowthRecorder{}
	ecfg.Observer = engine.Observers(checker, ledger, growth, ecfg.Observer)
	ecfg.SkipRecords = true
	ecfg.FastForward = false
	e, err := engine.New(ecfg)
	if err != nil {
		return sweep.Report{}, nil, err
	}
	res, runErr := e.RunContext(ctx)
	viols, err := checker.Check(res.Tree)
	if err != nil {
		return sweep.Report{}, nil, err
	}
	maxDepth, err := checker.MaxForkDepth(res.Tree)
	if err != nil {
		return sweep.Report{}, nil, err
	}
	tree := res.Tree
	quality, err := metrics.ChainQuality(tree, tree.Best(), 0)
	if err != nil {
		return sweep.Report{}, nil, err
	}
	rounds := float64(res.Rounds)
	pr := ecfg.Params
	return sweep.Report{
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

// fuzzAdversary builds strategy kind%6: the five built-in strategies
// (arg%8 + 1 is the private fork depth), or a Switcher rotating
// one of four strategy sets (arg/64) with period arg%64 + 1.
func fuzzAdversary(kind, arg uint8) engine.Adversary {
	switch kind % 6 {
	case 0:
		return engine.PassiveAdversary{}
	case 1:
		return adversary.MaxDelay{}
	case 2:
		return &adversary.PrivateMining{MinForkDepth: 1 + int(arg%8)}
	case 3:
		return &adversary.Balance{}
	case 4:
		return &adversary.Selfish{}
	}
	var set []engine.Adversary
	switch arg / 64 {
	case 0:
		set = []engine.Adversary{adversary.MaxDelay{}, &adversary.Selfish{}, &adversary.Balance{}}
	case 1:
		set = []engine.Adversary{adversary.MaxDelay{}, &adversary.Selfish{}}
	case 2:
		set = []engine.Adversary{adversary.MaxDelay{}, &adversary.PrivateMining{MinForkDepth: 2}}
	default:
		set = []engine.Adversary{adversary.MaxDelay{}, &adversary.Balance{}}
	}
	sw, err := adversary.NewSwitcher(1+int(arg%64), set...)
	if err != nil {
		panic(err)
	}
	return sw
}

// FuzzRunOneMatchesStep: sweep.RunOne, which fast-forwards wherever the
// engine arms, reports exactly what the step engine reports — every
// Report field but LiveBlocks, which compaction timing may move — on any
// small input: n ≤ 64, Δ ≤ 32, p = 1/pInv with n·p·rounds ≤ 3000, at
// most 150 snapshots, any built-in strategy or a Switcher rotation, any
// chop, checker retention and compaction schedule.
func FuzzRunOneMatchesStep(f *testing.F) {
	// The Switcher rotation that used to fast-forward past its strategy
	// changes (TestSwitcherRotationMatchesStepped).
	f.Add(uint8(22), uint16(8192), uint8(8), uint8(17), uint16(4000), uint64(10), uint8(5), uint8(3), uint8(3), uint8(0), uint8(0), uint16(0), uint8(0))
	// The all-deviant compaction rebase that used to panic: replicate
	// 250 of TestRunGridAllDeviantRebase's grid at seed 2.
	f.Add(uint8(4), uint16(64), uint8(16), uint8(40), uint16(2020), sweep.CellSeed(2, 0, 250), uint8(1), uint8(0), uint8(5), uint8(104), uint8(1), uint16(301), uint8(2))
	// Quiet private mining with compaction and bounded retention.
	f.Add(uint8(40), uint16(20000), uint8(10), uint8(30), uint16(8000), uint64(3), uint8(2), uint8(3), uint8(4), uint8(0), uint8(4), uint16(500), uint8(1))
	// Dense selfish mining: fast-forward rarely arms.
	f.Add(uint8(20), uint16(80), uint8(4), uint8(45), uint16(3000), uint64(5), uint8(4), uint8(0), uint8(6), uint8(20), uint8(0), uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, n uint8, pInv uint16, delta, nuPct uint8, rounds uint16, seed uint64,
		kind, arg, chop, sampleEvery, retention uint8, compactEvery uint16, minRetire uint8) {
		if n < 4 || n > 64 || pInv < 2 || delta < 1 || delta > 32 || nuPct < 1 || nuPct > 49 ||
			rounds < 1 || rounds > 8000 || int(n)*int(rounds) > 3000*int(pInv) {
			t.Skip("outside the bounded input space")
		}
		if int(rounds)/sweep.ResolveSampleEvery(int(sampleEvery), int(rounds)) > 150 {
			// The checker's pair scans are quadratic in the snapshots.
			t.Skip("more than 150 consistency snapshots")
		}
		pr := params.Params{N: int(n), P: 1 / float64(pInv), Delta: int(delta), Nu: float64(nuPct) / 100}
		sem := sweep.Semantics{Rounds: int(rounds), T: int(chop % 16), SampleEvery: int(sampleEvery), CheckerRetention: int(retention % 8)}
		cfg := func() engine.Config {
			return engine.Config{
				Params: pr, Seed: seed, Adversary: fuzzAdversary(kind, arg),
				CompactEvery: int(compactEvery), CompactMinRetire: int(minRetire),
			}
		}
		got, _, errGot := sweep.RunOne(context.Background(), cfg(), sem)
		want, _, errWant := runOneStepped(context.Background(), cfg(), sem)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("errors differ: fast-forward %v, stepped %v", errGot, errWant)
		}
		got.LiveBlocks, want.LiveBlocks = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("reports differ:\nfast-forward %+v\nstepped      %+v", got, want)
		}
	})
}

package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"math"
	"reflect"
	"runtime"
	"time"

	"neatbound"
	"neatbound/internal/adversary"
	"neatbound/internal/consistency"
	"neatbound/internal/engine"
	"neatbound/internal/metrics"
	"neatbound/internal/pool"
	"neatbound/internal/scenario"
)

// runConfig is a façade Run workload: the parameterization, the
// pipeline knobs, and the length of one op. The strategy is always the
// private-mining attacker.
type runConfig struct {
	pr           neatbound.Params
	rounds       int
	tee          int
	forkDepth    int
	fastForward  bool
	autoShards   bool
	compactEvery int
	// compactMinRetire is the ID span a compaction epoch must retire.
	compactMinRetire int
	retention        int
	scenario         string // preset name; "" runs the default model
	// refDigest pins the report digest of refSeed; "" skips the pin.
	refDigest string
}

// Ops last a few tenths of a second, not seconds: the throughput metrics
// are taken at a fast percentile of the op times (see fastPercentile),
// which needs tens of ops per run.
var (
	// runSparse is the n=10⁶ event-driven configuration: the
	// fast-forward sampler, flash delivery and arena compaction carry it.
	runSparse = runConfig{
		pr:     neatbound.Params{N: 1_000_000, P: 1e-7, Delta: 10, Nu: 0.3},
		rounds: 10_000, tee: 6, forkDepth: 4, fastForward: true,
		// An op mines about a thousand blocks, under the engine's default
		// minimum retirement of 1024: without a lower one, compaction
		// would never retire anything.
		compactEvery: 2000, compactMinRetire: 128, retention: 4,
		refDigest: "442f865ea2f875d7",
	}
	// runDense steps every round: the scenario's per-recipient delays
	// disarm fast-forward, so the delay scheduling, the sharded delivery
	// walk and the parallel broadcast fan-out carry it.
	runDense = runConfig{
		pr:     neatbound.Params{N: 100_000, P: 1e-6, Delta: 10, Nu: 0.3},
		rounds: 500, tee: 6, forkDepth: 4, fastForward: true, autoShards: true,
		scenario:  "stochastic-delay",
		refDigest: "55ea6e9f03c7ce32",
	}
)

const (
	// refSeed is the warm-up op's fixed seed, the one whose report
	// digest is pinned across runs.
	refSeed = 1
	// refEngineVersion is the engine semantics version the pinned
	// digests were recorded at. Under another version the pins are
	// skipped: a deliberate semantics change moves every report.
	refEngineVersion = 1
	// ledgerSigmas is the tolerance of the Eq. 26/27 check, in Poisson
	// standard deviations of the predicted count: wide enough never to
	// trip on sampling noise, narrow enough to catch a changed draw
	// order or a broken counter.
	ledgerSigmas = 8
)

func (c runConfig) shards() int {
	if c.autoShards {
		return neatbound.AutoShards
	}
	return 0
}

// options is c as façade options.
func (c runConfig) options(seed uint64) ([]neatbound.Option, error) {
	opts := []neatbound.Option{
		neatbound.WithRounds(c.rounds),
		neatbound.WithSeed(seed),
		neatbound.WithConsistency(c.tee, 0),
		neatbound.WithAdversaryName("private", neatbound.AdversaryOpts{ForkDepth: c.forkDepth}),
		neatbound.WithShards(c.shards()),
	}
	if c.fastForward {
		opts = append(opts, neatbound.WithFastForward())
	}
	if c.compactEvery > 0 {
		opts = append(opts, neatbound.WithCompaction(c.compactEvery, c.compactMinRetire))
	}
	if c.retention > 0 {
		opts = append(opts, neatbound.WithCheckerRetention(c.retention))
	}
	if c.scenario != "" {
		spec, err := neatbound.ParseScenario(c.scenario)
		if err != nil {
			return nil, err
		}
		opts = append(opts, neatbound.WithScenario(spec))
	}
	return opts, nil
}

// run is one untraced op: a façade Run.
func (c runConfig) run(ctx context.Context, seed uint64) (*neatbound.RunReport, error) {
	opts, err := c.options(seed)
	if err != nil {
		return nil, err
	}
	return neatbound.Run(ctx, c.pr, opts...)
}

// check verifies a report: a complete run whose Lemma-1 ledger is
// within ledgerSigmas of the paper's predictions — Eq. 26 for
// convergence opportunities, Eq. 27 for adversarial blocks.
func (c runConfig) check(rep *neatbound.RunReport) error {
	if rep.Partial || rep.RoundsExecuted != c.rounds || rep.Ledger.Rounds != c.rounds {
		return fmt.Errorf("run covered %d rounds (ledger %d, partial %t), want %d",
			rep.RoundsExecuted, rep.Ledger.Rounds, rep.Partial, c.rounds)
	}
	if err := nearPrediction("Eq. 26 convergence opportunities", rep.Ledger.Convergence, rep.PredictedConvergence); err != nil {
		return err
	}
	return nearPrediction("Eq. 27 adversarial blocks", rep.Ledger.Adversary, rep.PredictedAdversary)
}

func nearPrediction(what string, got int, want float64) error {
	if tol := ledgerSigmas * math.Sqrt(math.Max(want, 1)); math.Abs(float64(got)-want) > tol {
		return fmt.Errorf("%s: observed %d, predicted %.1f ± %.1f", what, got, want, tol)
	}
	return nil
}

// checkReference is check plus the pinned digest of the reference seed.
func (c runConfig) checkReference(rep *neatbound.RunReport) error {
	if err := c.check(rep); err != nil {
		return err
	}
	d := digest(rep)
	if c.refDigest == "" || neatbound.EngineVersion != refEngineVersion || d == c.refDigest {
		return nil
	}
	return fmt.Errorf("reference seed %d: report digest %s, pinned %s", refSeed, d, c.refDigest)
}

// digest fingerprints a report's semantic content: every count, rate
// and violation, floats by their exact bits. LiveBlocks is left out: it
// records how much history compaction retired, a representation detail.
func digest(rep *neatbound.RunReport) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %x %x %x %d %t",
		rep.Violations, rep.MaxForkDepth, rep.Ledger.Rounds, rep.Ledger.Convergence, rep.Ledger.Adversary,
		rep.HonestBlocks, rep.AdversaryBlocks, rep.TotalBlocks,
		math.Float64bits(rep.ChainGrowthRate), math.Float64bits(rep.ChainQuality), math.Float64bits(rep.MainChainShare),
		rep.RoundsExecuted, rep.Partial)
	for _, v := range rep.ViolationList {
		fmt.Fprintf(h, ";%d %d %d %d %d", v.RoundR, v.RoundS, v.TipA, v.TipB, v.ForkDepth)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// mix is the SplitMix64 finalizer over a seed and a stream index: how
// every op seed derives from the run's seed.
func mix(seed, k uint64) uint64 {
	z := seed + (k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const (
	// opSeedCount is the size of the Run seed pool. Timed ops cycle
	// through it a whole number of times, and every op after the first
	// cycle repeats a seed and must reproduce its digest.
	opSeedCount = 4
	// opSeedPool names the pool every run draws its op seeds from.
	opSeedPool = 0x5eed
)

// opSeeds is a run's sequence of Run seeds: the shared pool, entered at
// a rotation the run's seed picks. The simulated work differs a lot from
// seed to seed — run-dense's per-op heap peak spans 50–130 MiB across
// seeds while repeating to within 1% for any one seed — so every run
// does the same simulated work, and only the order follows the seed.
func opSeeds(seed uint64) []uint64 {
	seeds := make([]uint64, opSeedCount)
	for k := range seeds {
		seeds[k] = mix(opSeedPool, (seed+uint64(k))%opSeedCount)
	}
	return seeds
}

// sameDigest checks rep against the first digest seen for seed.
func sameDigest(seen map[uint64]string, seed uint64, rep *neatbound.RunReport) error {
	d := digest(rep)
	if prev, ok := seen[seed]; ok && prev != d {
		return fmt.Errorf("seed %d: report digest %s, an earlier op with the same seed gave %s", seed, d, prev)
	}
	seen[seed] = d
	return nil
}

// warmUp is the checked op every set-up ends with: a Run of the
// reference seed, whose digest must match the pin.
func (b *bench) warmUp(ctx context.Context, c runConfig) {
	rep, err := c.run(ctx, refSeed)
	if err == nil {
		log.Printf("reference report digest %s", digest(rep))
		err = c.checkReference(rep)
	}
	b.op(err)
}

// measureRuns is the end-to-end measurement of a Run workload: set up
// setupRepeats times, then time Runs for the budget.
func (b *bench) measureRuns(ctx context.Context, c runConfig) error {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		b.warmUp(ctx, c)
		runtime.GC()
		setups = append(setups, time.Since(start).Seconds())
	}
	heap := startHeapSampler()
	defer heap.close()
	seeds, seen := opSeeds(b.seed), make(map[uint64]string)
	var rates, peaks []float64 // per op
	// Whole cycles through the seed pool, so the medians weigh every
	// seed equally.
	for i, start := 0, time.Now(); i%len(seeds) != 0 || time.Since(start) < b.budget; i++ {
		seed := seeds[i%len(seeds)]
		runtime.GC()
		heap.reset()
		t := time.Now()
		rep, err := c.run(ctx, seed)
		d := time.Since(t)
		peak := heap.reset()
		if err == nil {
			err = c.check(rep)
		}
		if err == nil {
			err = sameDigest(seen, seed, rep)
		}
		if b.op(err) {
			log.Printf("op %d: seed %d, %.3f s, heap peak %.1f MiB", i, seed, d.Seconds(), mib(peak))
			rates = append(rates, float64(c.rounds)/d.Seconds())
			peaks = append(peaks, mib(peak))
		}
	}
	log.Printf("rounds per second: median %.6g over %d ops", median(rates).Value, len(rates))
	b.set("setup_s", "s", median(setups))
	b.set("rounds_per_s", "1/s", percentile(rates, 100-fastPercentile))
	b.set("heap_peak_mib", "MiB", median(peaks))
	return nil
}

// layerTimes is one traced op, clocked at every layer boundary.
type layerTimes struct {
	total     time.Duration // the whole op
	newEngine time.Duration // engine.New
	loop      time.Duration // Engine.RunContext
	adversary time.Duration // the strategy's calls, inside loop
	observe   time.Duration // the checker's and ledger's calls, inside loop
	scan      time.Duration // Checker.Check plus MaxForkDepth
	report    time.Duration // report assembly

	rounds, eventRounds, mineCalls, totalBlocks, liveBlocks int
}

// tracedRun executes c the way neatbound.Run does — the same checker,
// ledger, adversary, scenario wrapper and report assembly, built from
// the internal packages' public functions — with every layer boundary
// clocked. Its report must equal Run's for the same seed.
func tracedRun(ctx context.Context, c runConfig, seed uint64) (*neatbound.RunReport, layerTimes, error) {
	var lt layerTimes
	start := time.Now()
	pr := c.pr
	base, err := adversary.ByName("private", c.forkDepth)
	if err != nil {
		return nil, lt, err
	}
	adv := &timedAdversary{inner: base}
	checker, err := consistency.NewChecker(c.tee, max(1, c.rounds/50))
	if err != nil {
		return nil, lt, err
	}
	checker.UsePool(pool.Default())
	checker.SetRetention(c.retention)
	ledger, err := consistency.NewLedgerRecorder(pr.Delta)
	if err != nil {
		return nil, lt, err
	}
	checkerObs, ledgerObs := &timedObserver{inner: checker}, &timedObserver{inner: ledger}
	ecfg := engine.Config{
		Params:           pr,
		Rounds:           c.rounds,
		Seed:             seed,
		Adversary:        adv,
		Observer:         engine.Observers(checkerObs, ledgerObs),
		Shards:           c.shards(),
		FastForward:      c.fastForward,
		CompactEvery:     c.compactEvery,
		CompactMinRetire: c.compactMinRetire,
	}
	if c.scenario != "" {
		spec, err := scenario.ByName(c.scenario)
		if err != nil {
			return nil, lt, err
		}
		compiled, err := spec.Compile(pr)
		if err != nil {
			return nil, lt, err
		}
		if compiled.Policy != nil {
			ecfg.Adversary = scenario.Wrap(ecfg.Adversary, compiled.Policy)
		}
		ecfg.Churn, ecfg.MiningWeights = compiled.Churn, compiled.Weights
	}

	t := time.Now()
	e, err := engine.New(ecfg)
	lt.newEngine = time.Since(t)
	if err != nil {
		return nil, lt, err
	}
	t = time.Now()
	res, err := e.RunContext(ctx)
	lt.loop = time.Since(t)
	if err != nil {
		return nil, lt, err
	}
	lt.adversary, lt.mineCalls = adv.busy, adv.calls
	lt.observe = checkerObs.busy + ledgerObs.busy

	t = time.Now()
	viols, err := checker.Check(res.Tree)
	var maxDepth int
	if err == nil {
		maxDepth, err = checker.MaxForkDepth(res.Tree)
	}
	lt.scan = time.Since(t)
	if err != nil {
		return nil, lt, err
	}

	t = time.Now()
	tree := res.Tree
	quality, err := metrics.ChainQuality(tree, tree.Best(), 0)
	if err != nil {
		return nil, lt, err
	}
	rounds := len(res.Records)
	rep := &neatbound.RunReport{
		SimulationReport: neatbound.SimulationReport{
			Violations:           len(viols),
			ViolationList:        viols,
			MaxForkDepth:         maxDepth,
			Ledger:               ledger.Accounting(),
			PredictedConvergence: float64(rounds) * pr.ConvergenceOpportunityRate(),
			PredictedAdversary:   float64(rounds) * pr.AdversaryBlockRate(),
			HonestBlocks:         res.HonestBlocks,
			AdversaryBlocks:      res.AdversaryBlocks,
			ChainGrowthRate:      metrics.ChainGrowthRate(res.Records),
			ChainQuality:         quality,
			MainChainShare:       metrics.MainChainShare(tree),
			TotalBlocks:          tree.Len() - 1,
			LiveBlocks:           tree.LiveBlocks(),
		},
		Partial:        res.Partial,
		RoundsExecuted: rounds,
	}
	lt.report = time.Since(t)
	lt.total = time.Since(start)

	lt.rounds, lt.totalBlocks, lt.liveBlocks = rounds, rep.TotalBlocks, rep.LiveBlocks
	for _, r := range res.Records {
		if r.HonestMined+r.AdversaryMined > 0 {
			lt.eventRounds++
		}
	}
	return rep, lt, nil
}

// add accumulates another Run's clocks and counts into lt.
func (lt *layerTimes) add(o layerTimes) {
	lt.total += o.total
	lt.newEngine += o.newEngine
	lt.loop += o.loop
	lt.adversary += o.adversary
	lt.observe += o.observe
	lt.scan += o.scan
	lt.report += o.report
	lt.rounds += o.rounds
	lt.eventRounds += o.eventRounds
	lt.mineCalls += o.mineCalls
	lt.totalBlocks += o.totalBlocks
	lt.liveBlocks += o.liveBlocks
}

// opTrace is one traced op's layer clocks plus the runtime's allocation
// and GC cost over it.
type opTrace struct {
	layerTimes
	allocMiB, gcCycles, gcPauseMs float64
}

// runBatch is one untraced op of the traced run: a checked Run of every
// config in the batch.
func runBatch(ctx context.Context, batch []runConfig, seed uint64) ([]*neatbound.RunReport, error) {
	reps := make([]*neatbound.RunReport, len(batch))
	for j, c := range batch {
		rep, err := c.run(ctx, seed)
		if err == nil {
			err = c.check(rep)
		}
		if err != nil {
			return nil, err
		}
		reps[j] = rep
	}
	return reps, nil
}

// traceOp runs tracedRun over the batch between two runtime.ReadMemStats
// calls (two stops of the world per op, outside every layer clock).
func traceOp(ctx context.Context, batch []runConfig, seed uint64) (opTrace, []*neatbound.RunReport, error) {
	var tr opTrace
	reps := make([]*neatbound.RunReport, len(batch))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for j, c := range batch {
		rep, lt, err := tracedRun(ctx, c, seed)
		if err != nil {
			return tr, nil, err
		}
		reps[j] = rep
		tr.add(lt)
	}
	runtime.ReadMemStats(&m1)
	tr.allocMiB = mib(m1.TotalAlloc - m0.TotalAlloc)
	tr.gcCycles = float64(m1.NumGC - m0.NumGC)
	tr.gcPauseMs = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	return tr, reps, nil
}

// tracePipeline alternates untraced ops with traced ones for the budget,
// checks that each traced report equals its untraced twin, and reports
// the per-layer medians and the tracing overhead. An op runs the whole
// batch: one Run on the Run workloads, a row of cells on sweepd.
func (b *bench) tracePipeline(ctx context.Context, batch []runConfig, budget time.Duration) error {
	for _, c := range batch {
		b.warmUp(ctx, c)
	}
	seeds := opSeeds(b.seed)
	var plain []float64
	var traced []opTrace
	for i, start := 0, time.Now(); i%len(seeds) != 0 || time.Since(start) < budget; i++ {
		seed := seeds[i%len(seeds)]
		runtime.GC()
		t := time.Now()
		reps, err := runBatch(ctx, batch, seed)
		d := time.Since(t)
		if b.op(err) {
			plain = append(plain, d.Seconds())
		}
		runtime.GC()
		tr, treps, err := traceOp(ctx, batch, seed)
		if err == nil && !reflect.DeepEqual(treps, reps) {
			err = errors.New("traced reports differ from the untraced Runs'")
		}
		if b.op(err) {
			traced = append(traced, tr)
		}
	}
	stat := func(f func(opTrace) float64) summary {
		xs := make([]float64, len(traced))
		for i, t := range traced {
			xs[i] = f(t)
		}
		return median(xs)
	}
	b.set("engine.new_s", "s", stat(func(t opTrace) float64 { return t.newEngine.Seconds() }))
	b.set("engine.loop_self_s", "s", stat(func(t opTrace) float64 { return (t.loop - t.adversary - t.observe).Seconds() }))
	b.set("engine.rounds", "count", stat(func(t opTrace) float64 { return float64(t.rounds) }))
	b.set("engine.event_rounds", "count", stat(func(t opTrace) float64 { return float64(t.eventRounds) }))
	b.set("adversary.mine_calls", "count", stat(func(t opTrace) float64 { return float64(t.mineCalls) }))
	b.set("adversary.mine_s", "s", stat(func(t opTrace) float64 { return t.adversary.Seconds() }))
	b.set("consistency.observe_s", "s", stat(func(t opTrace) float64 { return t.observe.Seconds() }))
	b.set("consistency.scan_s", "s", stat(func(t opTrace) float64 { return t.scan.Seconds() }))
	b.set("metrics.report_s", "s", stat(func(t opTrace) float64 { return t.report.Seconds() }))
	b.set("blockchain.total_blocks", "count", stat(func(t opTrace) float64 { return float64(t.totalBlocks) }))
	b.set("blockchain.live_blocks", "count", stat(func(t opTrace) float64 { return float64(t.liveBlocks) }))
	b.set("runtime.alloc_mib", "MiB", stat(func(t opTrace) float64 { return t.allocMiB }))
	b.set("runtime.gc_cycles", "count", stat(func(t opTrace) float64 { return t.gcCycles }))
	b.set("runtime.gc_pause_ms", "ms", stat(func(t opTrace) float64 { return t.gcPauseMs }))
	untraced, withTrace := median(plain), stat(func(t opTrace) float64 { return t.total.Seconds() })
	b.set("trace.overhead_pct", "%", summary{
		Value: 100 * (withTrace.Value/untraced.Value - 1),
		P:     50,
		N:     min(untraced.N, withTrace.N),
	})
	return nil
}

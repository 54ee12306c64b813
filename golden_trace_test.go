package neatbound

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"neatbound/internal/adversary"
	"neatbound/internal/blockchain"
	"neatbound/internal/consistency"
	"neatbound/internal/engine"
	"neatbound/internal/params"
	"neatbound/internal/pool"
)

// These golden hashes pin the engine's observable behavior — the exact
// RoundRecord stream, final honest tips, block counters, and tree shape —
// for fixed seeds across every adversary class. They were captured on the
// original map-based simulation data path (map Tree, per-round O(players)
// statistics scans, map-of-maps network inbox); the flat-arena /
// incremental-statistics / ring-buffer refactor and any future hot-path
// work must reproduce them bit-identically: a changed hash means changed
// simulation semantics (or a changed RNG draw order), not just a perf
// regression.

// goldenCase is one pinned execution: a config plus, optionally, the
// literal proof-of-work path (WithOracleMining) in place of binomial
// sampling.
type goldenCase struct {
	cfg       engine.Config
	oracle    bool
	oracleKey uint64
}

// traceHash runs the case and folds every per-round record plus the
// final state into an FNV-1a hash. The record stream is tapped by a
// single ObserverFunc appended after any observer the case already
// sets; observerTraceHash taps the same stream through a MultiObserver
// instead.
func traceHash(t *testing.T, gc goldenCase) uint64 {
	return traceHashVia(t, gc, false)
}

// observerTraceHash is traceHash with the mixer riding Config.Observer
// as one member of a MultiObserver — pinning that the observer
// multiplexer sees the identical record stream.
func observerTraceHash(t *testing.T, gc goldenCase) uint64 {
	return traceHashVia(t, gc, true)
}

func traceHashVia(t *testing.T, gc goldenCase, viaObserver bool) uint64 {
	cfg := gc.cfg
	t.Helper()
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		// Mix each of the 8 bytes so high bits participate.
		for i := 0; i < 64; i += 8 {
			h = (h ^ (v >> i & 0xff)) * prime
		}
	}
	mixRec := func(rec engine.RoundRecord) {
		mix(uint64(rec.Round))
		mix(math.Float64bits(rec.Nu))
		mix(uint64(rec.HonestMined))
		mix(uint64(rec.AdversaryMined))
		mix(uint64(rec.MaxHonestHeight))
		mix(uint64(rec.MinHonestHeight))
		mix(uint64(rec.DistinctTips))
	}
	if viaObserver {
		// Ride a real multiplexer: the mixer plus a second observer, so
		// the fan-out path itself is on the pinned execution.
		rounds := 0
		cfg.Observer = engine.Observers(
			engine.ObserverFunc(func(_ *engine.Engine, rec engine.RoundRecord) { mixRec(rec) }),
			engine.ObserverFunc(func(_ *engine.Engine, _ engine.RoundRecord) { rounds++ }),
		)
	} else {
		cfg.Observer = engine.Observers(cfg.Observer,
			engine.ObserverFunc(func(_ *engine.Engine, rec engine.RoundRecord) { mixRec(rec) }))
	}
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
	for _, tip := range res.FinalTips {
		mix(uint64(tip))
	}
	mix(uint64(res.HonestBlocks))
	mix(uint64(res.AdversaryBlocks))
	mix(uint64(res.Tree.Len()))
	mix(uint64(res.Tree.Best()))
	mix(uint64(res.Tree.MaxHeight()))
	return h
}

// goldenCases spans the behavior space: every adversary class, the
// Δ-delay scheduling extremes, adaptive corruption (the honest-set
// resizing path), and the literal proof-of-work oracle path — alone and
// combined with adaptive corruption, pinning that oracle queries cover
// exactly the honest prefix of the player range.
func goldenCases(t *testing.T) map[string]goldenCase {
	t.Helper()
	base := params.Params{N: 40, P: 0.005, Delta: 4, Nu: 0.3}
	deep := params.Params{N: 40, P: 0.005, Delta: 8, Nu: 0.45}
	oscillate := func(round int) float64 {
		if (round/100)%2 == 0 {
			return 0.45
		}
		return 0.1
	}
	switcher, err := adversary.NewSwitcher(300,
		adversary.MaxDelay{},
		&adversary.PrivateMining{MinForkDepth: 3},
		&adversary.Balance{},
	)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]goldenCase{
		"passive": {cfg: engine.Config{Params: base, Rounds: 3000, Seed: 1}},
		"max-delay": {cfg: engine.Config{Params: base, Rounds: 3000, Seed: 2,
			Adversary: adversary.MaxDelay{}}},
		"private-mining": {cfg: engine.Config{Params: deep, Rounds: 3000, Seed: 3,
			Adversary: &adversary.PrivateMining{MinForkDepth: 3}}},
		"switcher": {cfg: engine.Config{Params: deep, Rounds: 3000, Seed: 4,
			Adversary: switcher}},
		"selfish": {cfg: engine.Config{Params: base, Rounds: 3000, Seed: 5,
			Adversary: &adversary.Selfish{}}},
		"balance": {cfg: engine.Config{Params: deep, Rounds: 3000, Seed: 6,
			Adversary: &adversary.Balance{}}},
		"adaptive-nu": {cfg: engine.Config{Params: base, Rounds: 3000, Seed: 7,
			NuSchedule: oscillate}},
		"oracle": {cfg: engine.Config{Params: base, Rounds: 3000, Seed: 8},
			oracle: true, oracleKey: 99},
		"oracle-adaptive-nu": {cfg: engine.Config{Params: base, Rounds: 3000, Seed: 9,
			NuSchedule: oscillate},
			oracle: true, oracleKey: 99},
	}
}

// goldenTraces holds the expected hash per case, captured at the
// map-based baseline (see file comment). Regenerate by running
// TestGoldenTraces with -v and copying the logged values — but only
// after convincing yourself the semantic change is intended.
var goldenTraces = map[string]uint64{
	"passive":        0x75b8c8ca674e4dd0,
	"max-delay":      0xf05ae2ef03d7038,
	"private-mining": 0x3396014b2c3d259f,
	"switcher":       0x69e41e22c3a570eb,
	"selfish":        0x36c9618eb041f981,
	"balance":        0x4519a465cff07bca,
	"adaptive-nu":    0xbb76c7eddc274146,
	// The oracle cases were captured after the honest-prefix fix (oracle
	// queries cover e.tips[:honest], matching the statistical path and
	// oracle.go's contract); they pin that semantics as canonical.
	"oracle":             0x4a2c773edc09729b,
	"oracle-adaptive-nu": 0xce628509774a384a,
}

func TestGoldenTraces(t *testing.T) {
	for name, cfg := range goldenCases(t) {
		t.Run(name, func(t *testing.T) {
			got := traceHash(t, cfg)
			t.Logf("trace hash %q: %#x", name, got)
			want, ok := goldenTraces[name]
			if !ok {
				t.Fatalf("no golden hash recorded for %q", name)
			}
			if got != want {
				t.Errorf("trace hash = %#x, want %#x — the simulation is no longer bit-identical for fixed seeds", got, want)
			}
		})
	}
}

// TestGoldenTracesSharded pins the sharded-execution determinism
// contract (see engine.Config): for every golden configuration, running
// the delivery phase on P ∈ {1, 2, 4, 7} worker shards must reproduce
// the serial engine's RoundRecord stream, final tips, block counters and
// tree shape bit for bit — the same hashes the serial cases pin. P = 7
// deliberately does not divide any player count, exercising uneven
// shard boundaries.
func TestGoldenTracesSharded(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 7} {
		for name, gc := range goldenCases(t) {
			gc := gc
			gc.cfg.Shards = shards
			t.Run(fmt.Sprintf("%s/P=%d", name, shards), func(t *testing.T) {
				got := traceHash(t, gc)
				want := goldenTraces[name]
				if got != want {
					t.Errorf("sharded trace hash = %#x, want %#x — P=%d diverged from the serial engine", got, want, shards)
				}
			})
		}
	}
}

// TestGoldenTracesFastForward pins the event-driven fast-forward path
// (engine.Config.FastForward) to the exact golden hashes of the step
// engine: for every golden configuration, serial and sharded, enabling
// the flag must reproduce the identical RoundRecord stream (no gaps —
// skipped rounds still emit records), final tips, block counters and
// tree shape. The adaptive-nu and oracle cases exercise the silent
// fallback: their preconditions disarm the fast path, and the flag must
// still change nothing.
func TestGoldenTracesFastForward(t *testing.T) {
	for _, shards := range []int{0, 2, 7} {
		for name, gc := range goldenCases(t) {
			gc := gc
			gc.cfg.Shards = shards
			gc.cfg.FastForward = true
			t.Run(fmt.Sprintf("%s/P=%d", name, shards), func(t *testing.T) {
				got := traceHash(t, gc)
				want := goldenTraces[name]
				if got != want {
					t.Errorf("fast-forward trace hash = %#x, want %#x — the event-driven path diverged from the step engine", got, want)
				}
			})
		}
	}
}

// TestGoldenTracesCompacted pins that epoch-based arena compaction
// (engine.Config.CompactEvery) is pure representation: for every golden
// configuration — serial and sharded, and again under fast-forward —
// running with an aggressive compaction schedule (every 200 rounds,
// minimum retirement 1, so epochs fire constantly instead of waiting
// for the default spans) must reproduce the exact golden hashes. The
// trace mixes Tree.Len(), Best() and MaxHeight(), all of which must be
// invariant under retirement; a changed hash means compaction altered
// observable simulation state.
func TestGoldenTracesCompacted(t *testing.T) {
	for _, variant := range []struct {
		name   string
		shards int
		ff     bool
	}{
		{"serial", 0, false},
		{"P=2", 2, false},
		{"P=7", 7, false},
		{"fast-forward", 0, true},
	} {
		for name, gc := range goldenCases(t) {
			gc := gc
			gc.cfg.Shards = variant.shards
			gc.cfg.FastForward = variant.ff
			gc.cfg.CompactEvery = 200
			gc.cfg.CompactMinRetire = 1
			t.Run(fmt.Sprintf("%s/%s", name, variant.name), func(t *testing.T) {
				got := traceHash(t, gc)
				want := goldenTraces[name]
				if got != want {
					t.Errorf("compacted trace hash = %#x, want %#x — compaction changed simulation semantics", got, want)
				}
			})
		}
	}
}

// TestGoldenCompactionRetires guards the compaction goldens against
// vacuity: under the same aggressive schedule, at least the max-delay
// configuration must actually retire history (every strategy here
// implements engine.Retainer and no observer holds block references, so
// the watermark is free to advance past genesis).
func TestGoldenCompactionRetires(t *testing.T) {
	gc := goldenCases(t)["max-delay"]
	gc.cfg.CompactEvery = 200
	gc.cfg.CompactMinRetire = 1
	e, err := engine.New(gc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree.Base() == blockchain.GenesisID {
		t.Fatal("arena base still at genesis — compaction never fired and the golden compaction traces are vacuous")
	}
	if live, total := res.Tree.LiveBlocks(), res.Tree.Len(); live >= total {
		t.Errorf("live blocks %d not below ever-added %d despite base %d", live, total, res.Tree.Base())
	}
}

// TestGoldenTracesPooledShared pins concurrent runs with checkers
// attached against the golden hashes: all nine golden configurations
// run as parallel subtests, each carrying a plain consistency checker
// and one handed the ignored UsePool(pool.Default()). Every trace must
// still reproduce its golden hash, and both checkers must agree. The
// P=2 and P=7 labels name the pool sizes these runs once shared; they
// are kept so the subtest names stay stable, and each label runs every
// case once more.
func TestGoldenTracesPooledShared(t *testing.T) {
	for _, workers := range []int{2, 7} {
		for name, gc := range goldenCases(t) {
			gc := withCheckerParity(t, gc)
			t.Run(fmt.Sprintf("%s/P=%d", name, workers), func(t *testing.T) {
				t.Parallel()
				if got, want := traceHash(t, gc), goldenTraces[name]; got != want {
					t.Errorf("trace hash = %#x, want %#x — attached checkers perturbed the run", got, want)
				}
			})
		}
	}
}

// withCheckerParity returns gc with a checkerParity on its observer
// stack. Sampling every 10th round of a 3000-round case gives 300
// snapshots, so both scans do real pairwise work.
func withCheckerParity(t *testing.T, gc goldenCase) goldenCase {
	t.Helper()
	const every = 10
	plain, err := consistency.NewChecker(6, every)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := consistency.NewChecker(6, every)
	if err != nil {
		t.Fatal(err)
	}
	pooled.UsePool(pool.Default())
	gc.cfg.Observer = engine.Observers(checkerParity{plain, pooled}, gc.cfg.Observer)
	return gc
}

// checkerParity feeds one run to a plain checker and one handed the
// ignored UsePool, and fails the run when their post-run violation
// lists or fork depths differ. Observers only read the engine, so the
// trace hash is unaffected.
type checkerParity struct{ plain, pooled *consistency.Checker }

func (c checkerParity) OnRound(e *engine.Engine, rec engine.RoundRecord) {
	c.plain.OnRound(e, rec)
	c.pooled.OnRound(e, rec)
}

func (c checkerParity) OnFinish(res *engine.Result) error {
	want, err := c.plain.Check(res.Tree)
	if err != nil {
		return err
	}
	got, err := c.pooled.Check(res.Tree)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("checker with UsePool found %d violations, plain checker %d", len(got), len(want))
	}
	wantDepth, err := c.plain.MaxForkDepth(res.Tree)
	if err != nil {
		return err
	}
	if gotDepth, err := c.pooled.MaxForkDepth(res.Tree); err != nil || gotDepth != wantDepth {
		return fmt.Errorf("fork depth with UsePool %d (%v), plain checker %d", gotDepth, err, wantDepth)
	}
	return nil
}

// TestGoldenTracesObserver pins that a MultiObserver fan-out sees the
// exact record stream a lone observer sees: for every golden
// configuration — serial and on a non-dividing shard count — the hash
// mixed through a MultiObserver reproduces the pinned golden hashes.
func TestGoldenTracesObserver(t *testing.T) {
	for _, shards := range []int{0, 3} {
		for name, gc := range goldenCases(t) {
			gc := gc
			gc.cfg.Shards = shards
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				got := observerTraceHash(t, gc)
				want := goldenTraces[name]
				if got != want {
					t.Errorf("observer trace hash = %#x, want %#x — the MultiObserver path diverged from the single-observer path", got, want)
				}
			})
		}
	}
}

// TestGoldenTracesStable re-runs one config twice in-process to separate
// "golden mismatch because semantics changed" from "run-to-run
// nondeterminism" (e.g. map-iteration order leaking into the trace).
func TestGoldenTracesStable(t *testing.T) {
	cfg := goldenCases(t)["max-delay"]
	a := traceHash(t, cfg)
	cfg = goldenCases(t)["max-delay"]
	b := traceHash(t, cfg)
	if a != b {
		t.Fatalf("same config hashed %#x then %#x — nondeterminism in the engine", a, b)
	}
}

// TestGoldenFinalTipsAgree pins a qualitative invariant alongside the
// hashes: under the passive adversary with minimal delays, honest views
// converge to a single tip wherever a Δ-quiet period ends the run (they
// can differ by at most in-flight blocks otherwise).
func TestGoldenFinalTipsAgree(t *testing.T) {
	cfg := goldenCases(t)["passive"].cfg
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[blockchain.BlockID]struct{}{}
	for _, tip := range res.FinalTips {
		distinct[tip] = struct{}{}
	}
	if len(distinct) > cfg.Params.Delta+1 {
		t.Errorf("%d distinct final tips under passive adversary — views failed to track broadcasts", len(distinct))
	}
}

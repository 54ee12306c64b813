package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"reflect"
	"runtime"
	"testing"

	"neatbound/internal/blockchain"
	"neatbound/internal/network"
	"neatbound/internal/params"
)

// maxDelayPassive is the passive strategy with every honest broadcast
// held for the full Δ: honest miners stay on their own tips for Δ
// rounds, so deviants pile up, while the adversary's immediately
// published blocks (mined on the global best) pull every view back onto
// one tip. Every block whose ID is a multiple of 7 goes out through
// per-recipient sends instead, so its delivery round is not
// uniform-only and takes the walk. It stays
// skip-safe — MaxDelay is stateless and Mine(ctx, 0) does nothing.
type maxDelayPassive struct {
	PassiveAdversary
	delta int
}

func (a maxDelayPassive) HonestDelayPolicy(*Context) network.DelayPolicy {
	return network.MaxDelay{Delta: a.delta}
}

func (a maxDelayPassive) Mine(ctx *Context, mined int) {
	parent := ctx.Tree().Best()
	for k := 0; k < mined; k++ {
		b, err := ctx.MineBlock(parent)
		if err != nil {
			return
		}
		parent = b.ID
		if b.ID%7 != 0 {
			_ = ctx.SendToAll(b, ctx.Round()+1)
			continue
		}
		for i := 0; i < ctx.HonestCount(); i++ {
			_ = ctx.Send(b, i, ctx.Round()+1)
		}
	}
}

// lazyViewRun is one execution's view of every honest player, round by
// round, plus (fast-forward runs only) what the compact tracking did.
type lazyViewRun struct {
	hashes    []uint64
	finalTips []blockchain.BlockID
	// flashes counts flash deliveries that moved the majority,
	// overflows the deviant-cap materializations, walks the walk
	// fallbacks taken while the views were tracked, rearms the
	// re-established trackings after either.
	flashes, overflows, walks, rearms int
	// lazyAtEnd reports that the last round ended with the views still
	// compactly tracked, so the Result kept them in compact form.
	lazyAtEnd bool
}

func runLazyViews(t *testing.T, pr params.Params, rounds int, seed uint64, fastForward bool, shards int) lazyViewRun {
	t.Helper()
	var out lazyViewRun
	prevValid, prevMajH := false, 0
	cfg := Config{
		Params:      pr,
		Rounds:      rounds,
		Seed:        seed,
		Shards:      shards,
		FastForward: fastForward,
		Adversary:   maxDelayPassive{delta: pr.Delta},
	}
	cfg.Observer = ObserverFunc(func(e *Engine, rec RoundRecord) {
		h := fnv.New64a()
		var b [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		for i := 0; i < e.HonestCount(); i++ {
			tip, err := e.PlayerTip(i)
			if err != nil {
				t.Fatal(err)
			}
			put(uint64(tip))
		}
		// The per-half argmax is rebuilt from the views at every flash.
		tips, heights := e.BranchBest()
		for half := range tips {
			put(uint64(tips[half]))
			put(uint64(heights[half]))
		}
		out.hashes = append(out.hashes, h.Sum64())
		valid := e.ff.uniformValid
		switch {
		case prevValid && valid && e.ff.majH > prevMajH:
			out.flashes++
		case prevValid && !valid && len(e.ff.deviants) > ffMaxDeviants:
			out.overflows++
		case prevValid && !valid:
			out.walks++
		case !prevValid && valid && rec.Round > 1:
			out.rearms++
		}
		prevValid, prevMajH = valid, e.ff.majH
		out.lazyAtEnd = valid
	})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	out.finalTips = res.FinalTips()
	return out
}

// TestFastForwardLazyViewsExact pins the lazy honest views: every
// player's tip, read through PlayerTip on every round, must be what the
// step engine holds — through flash deliveries that move only the
// majority, deviant-cap overflows that materialize the views mid-run,
// walk fallbacks, and re-established tracking — and FinalTips, which the
// run ends still lazily tracked, must match.
func TestFastForwardLazyViewsExact(t *testing.T) {
	pr := params.Params{N: 400, P: 0.005, Delta: 30, Nu: 0.05}
	rounds := 2500
	const seed = 0x1a2f
	step := runLazyViews(t, pr, rounds, seed, false, 1)
	for _, shards := range []int{1, 3} {
		ff := runLazyViews(t, pr, rounds, seed, true, shards)
		t.Logf("shards=%d: %d flash deliveries, %d overflows, %d walks, %d re-arms, lazy at end %v",
			shards, ff.flashes, ff.overflows, ff.walks, ff.rearms, ff.lazyAtEnd)
		if ff.flashes == 0 || ff.overflows == 0 || ff.walks == 0 || ff.rearms == 0 || !ff.lazyAtEnd {
			t.Fatalf("shards=%d: configuration no longer exercises the lazy views (%d flashes, %d overflows, %d walks, %d re-arms, lazy at end %v)",
				shards, ff.flashes, ff.overflows, ff.walks, ff.rearms, ff.lazyAtEnd)
		}
		for r := range step.hashes {
			if step.hashes[r] != ff.hashes[r] {
				t.Fatalf("shards=%d round %d: honest view hash %#x, step engine %#x", shards, r+1, ff.hashes[r], step.hashes[r])
			}
		}
		if !reflect.DeepEqual(step.finalTips, ff.finalTips) {
			t.Fatalf("shards=%d: FinalTips differ from the step engine", shards)
		}
	}
}

// TestFastForwardAllFlashRunAllocatesNoViews pins that the honest views
// are lazy from New to the Result: an n = 10⁶ fast-forward run whose
// every delivery is a flash delivery (the passive strategy's SendToAll
// blocks and MinDelay honest broadcasts are all nil-list entries) never
// allocates the per-player view arrays, and its whole execution
// allocates a small constant instead of 16 B per player.
func TestFastForwardAllFlashRunAllocatesNoViews(t *testing.T) {
	pr := params.Params{N: 1_000_000, P: 1e-7, Delta: 10, Nu: 0.3}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, err := New(Config{Params: pr, Rounds: 10_000, Seed: 3, FastForward: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if e.tips != nil || e.tipHeights != nil {
		t.Fatalf("the view arrays were allocated (%d entries)", len(e.tips))
	}
	if res.finalTips != nil {
		t.Fatal("the Result holds materialized final tips")
	}
	if res.HonestBlocks == 0 || res.AdversaryBlocks == 0 {
		t.Fatalf("no mining on one side (%d honest, %d adversary blocks): the run exercises no flash delivery",
			res.HonestBlocks, res.AdversaryBlocks)
	}
	t.Logf("allocated %d B", after.TotalAlloc-before.TotalAlloc)
	const limit = 4 << 20
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > limit {
		t.Fatalf("the run allocated %d B, want ≤ %d", alloc, limit)
	}
	tips := res.FinalTips()
	if len(tips) != e.HonestCount() {
		t.Fatalf("FinalTips has %d entries, want %d", len(tips), e.HonestCount())
	}
	for _, i := range []int{0, 1, e.HonestCount() / 2, e.HonestCount() - 1} {
		if got, _ := e.PlayerTip(i); got != tips[i] {
			t.Fatalf("player %d: FinalTips %d, PlayerTip %d", i, tips[i], got)
		}
	}
}

// TestFastForwardTrackedViewsMatchStepEngine pins the compact views at
// both ends of a run: PlayerTip before Run (no per-player array exists
// yet), and FinalTips of a cancelled run whose views are still
// compactly tracked, against a step engine cancelled after the same
// number of rounds.
func TestFastForwardTrackedViewsMatchStepEngine(t *testing.T) {
	pr := params.Params{N: 400, P: 0.005, Delta: 30, Nu: 0.05}
	cancelled := func(fastForward bool, stopAt int) (*Engine, *Result) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		e, err := New(Config{
			Params: pr, Rounds: 2500, Seed: 0x1a2f, FastForward: fastForward,
			Adversary: maxDelayPassive{delta: pr.Delta},
			Observer: ObserverFunc(func(_ *Engine, rec RoundRecord) {
				if rec.Round == stopAt {
					cancel()
				}
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < e.HonestCount(); i++ {
			if tip, err := e.PlayerTip(i); err != nil || tip != blockchain.GenesisID {
				t.Fatalf("fastForward=%v: PlayerTip(%d) before Run = %d, %v; want genesis", fastForward, i, tip, err)
			}
		}
		if e.tips != nil {
			t.Fatalf("fastForward=%v: New allocated the view arrays", fastForward)
		}
		res, err := e.RunContext(ctx)
		if !errors.Is(err, context.Canceled) || !res.Partial {
			t.Fatalf("fastForward=%v stop %d: err %v, partial %v", fastForward, stopAt, err, res.Partial)
		}
		return e, res
	}
	trackedWithDeviants := 0
	for stopAt := 100; stopAt <= 2400; stopAt += 100 {
		ff, ffRes := cancelled(true, stopAt)
		// A quiet span runs to its end before the cancellation is seen, so
		// the step engine stops at the round the fast path reached.
		_, stepRes := cancelled(false, len(ffRes.Records))
		if !reflect.DeepEqual(ffRes.Records, stepRes.Records) {
			t.Fatalf("stop %d: records differ from the step engine", stopAt)
		}
		if got, want := ffRes.FinalTips(), stepRes.FinalTips(); !reflect.DeepEqual(got, want) {
			t.Fatalf("stop %d (round %d): FinalTips differ from the step engine", stopAt, len(ffRes.Records))
		}
		if ffRes.finalTips == nil && len(ffRes.deviants) > 0 {
			trackedWithDeviants++
			if ff.ff.deviants[0] != ffRes.deviants[0] {
				t.Fatalf("stop %d: the Result's deviants are not the engine's", stopAt)
			}
		}
	}
	if trackedWithDeviants == 0 {
		t.Fatal("no cut landed on compactly tracked views with deviants")
	}
}

// TestFastForwardCompactedTipRefsBounded pins the tip refcount arena
// behind the compaction floor: in a compacted fast-forward run it spans
// at most twice the live ID range on every round, at 10⁴ and at 10⁵
// rounds, instead of every ID ever mined.
func TestFastForwardCompactedTipRefsBounded(t *testing.T) {
	pr := params.Params{N: 1000, P: 5e-5, Delta: 4, Nu: 0.05}
	for _, rounds := range []int{10_000, 100_000} {
		maxLen := 0
		e, err := New(Config{
			Params: pr, Rounds: rounds, Seed: 9, FastForward: true,
			CompactEvery: 200, CompactMinRetire: 16,
			Observer: ObserverFunc(func(e *Engine, rec RoundRecord) {
				n, live := len(e.stats.tipRefs), e.tree.Len()-int(e.tree.Base())
				if n > 2*live {
					t.Fatalf("rounds=%d round %d: refcount arena %d slots, live ID span %d", rounds, rec.Round, n, live)
				}
				if n > maxLen {
					maxLen = n
				}
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("rounds=%d: %d blocks, floor %d, arena base %d, peak arena %d slots",
			rounds, res.Tree.Len(), res.Tree.Base(), e.stats.base, maxLen)
		if e.stats.base == 0 || maxLen >= res.Tree.Len()/2 {
			t.Fatalf("rounds=%d: the arena was never rebased (base %d, peak %d slots, %d blocks)",
				rounds, e.stats.base, maxLen, res.Tree.Len())
		}
	}
}

// TestFastForwardCompactedHeightsBounded pins the height histogram
// behind the compaction epochs: in a compacted run without a
// NuSchedule its array spans the live height range, so its peak length
// is the same at 10⁴ and at 10⁵ rounds instead of growing with the
// chain.
func TestFastForwardCompactedHeightsBounded(t *testing.T) {
	pr := params.Params{N: 1000, P: 5e-5, Delta: 4, Nu: 0.05}
	const limit = 64
	for _, rounds := range []int{10_000, 100_000} {
		maxLen := 0
		e, err := New(Config{
			Params: pr, Rounds: rounds, Seed: 9, FastForward: true,
			CompactEvery: 200, CompactMinRetire: 16,
			Observer: ObserverFunc(func(e *Engine, rec RoundRecord) {
				maxLen = max(maxLen, len(e.stats.heightCount))
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		t.Logf("rounds=%d: height %d, base %d, peak array %d", rounds, e.stats.maxH, e.stats.hBase, maxLen)
		if e.stats.hBase == 0 || maxLen > limit {
			t.Fatalf("rounds=%d: height array peaked at %d counters (limit %d), base %d at height %d",
				rounds, maxLen, limit, e.stats.hBase, e.stats.maxH)
		}
	}
}

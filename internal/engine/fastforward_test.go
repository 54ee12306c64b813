package engine

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
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
		b, err := ctx.MineBlock(parent, "")
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
	// compactly tracked, so finalize had to materialize them.
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
	out.finalTips = res.FinalTips
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

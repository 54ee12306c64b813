package engine

import (
	"testing"

	"neatbound/internal/blockchain"
	"neatbound/internal/network"
	"neatbound/internal/params"
)

// branchBestBrute is the O(honest) reference scan BranchBest replaced:
// ascending player index, strictly-greater height wins.
func branchBestBrute(e *Engine) (tips [2]blockchain.BlockID, heights [2]int) {
	tips = [2]blockchain.BlockID{blockchain.GenesisID, blockchain.GenesisID}
	for i := 0; i < e.honest; i++ {
		half := 0
		if i >= e.honest/2 {
			half = 1
		}
		if h := e.tipHeights[i]; h > heights[half] {
			heights[half] = h
			tips[half] = e.tips[i]
		}
	}
	return tips, heights
}

// TestBranchBestMatchesScan runs a balance-attacked, adaptively
// corrupted execution — exercising adopt, mine, and resize updates plus
// the half-boundary moves the golden set never combines — and checks
// the incremental per-half argmax against the reference scan after
// every round, with the ignored Shards field unset and set.
func TestBranchBestMatchesScan(t *testing.T) {
	for _, shards := range []int{1, 3} {
		adv := &balanceProbe{}
		cfg := Config{
			Params: params.Params{N: 30, P: 0.01, Delta: 3, Nu: 0.3},
			Rounds: 800,
			Seed:   42,
			Shards: shards,
			NuSchedule: func(round int) float64 {
				if (round/50)%2 == 0 {
					return 0.4
				}
				return 0.15
			},
			Adversary: adv,
		}
		cfg.Observer = ObserverFunc(func(e *Engine, rec RoundRecord) {
			gotTips, gotHeights := e.BranchBest()
			wantTips, wantHeights := branchBestBrute(e)
			if gotTips != wantTips || gotHeights != wantHeights {
				t.Fatalf("shards=%d round %d: BranchBest (%v, %v), reference scan (%v, %v)",
					shards, rec.Round, gotTips, gotHeights, wantTips, wantHeights)
			}
		})
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// balanceProbe is a minimal balance-style strategy (package adversary
// cannot be imported here without a cycle): every success extends the
// shorter branch reported by BranchBest and is delivered to that half
// only, driving the halves apart so the argmax accumulators see
// distinct per-half maxima.
type balanceProbe struct{}

func (balanceProbe) Name() string { return "balance-probe" }

func (balanceProbe) HonestDelayPolicy(ctx *Context) network.DelayPolicy {
	return network.MaxDelay{Delta: ctx.Params().Delta}
}

func (balanceProbe) Mine(ctx *Context, mined int) {
	tips, heights := ctx.BranchBest()
	honest := ctx.HonestCount()
	for k := 0; k < mined; k++ {
		short := 0
		if heights[1] < heights[0] {
			short = 1
		}
		blk, err := ctx.MineBlock(tips[short])
		if err != nil {
			return
		}
		tips[short] = blk.ID
		heights[short]++
		lo, hi := 0, honest/2
		if short == 1 {
			lo, hi = honest/2, honest
		}
		for i := lo; i < hi; i++ {
			_ = ctx.Send(blk, i, ctx.Round()+1)
		}
	}
}

// TestShardedParityLargeN pins that the ignored Shards field stays
// result-neutral at a player count the n=40 golden cases never reach:
// the records, final tips and tree of a Shards=1 and a Shards=4 run
// must match field for field.
func TestShardedParityLargeN(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n simulation")
	}
	run := func(shards int) (*Result, *Engine) {
		e, err := New(Config{
			Params: params.Params{N: 8192, P: 2e-5, Delta: 4, Nu: 0.3},
			Rounds: 120, Seed: 99, Shards: shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, e
	}
	serial, _ := run(1)
	sharded, _ := run(4)
	if len(serial.Records) != len(sharded.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(serial.Records), len(sharded.Records))
	}
	for i := range serial.Records {
		if serial.Records[i] != sharded.Records[i] {
			t.Fatalf("round %d diverged:\nserial  %+v\nsharded %+v", i+1, serial.Records[i], sharded.Records[i])
		}
	}
	for i := range serial.FinalTips() {
		if serial.FinalTips()[i] != sharded.FinalTips()[i] {
			t.Fatalf("final tip of player %d: %d vs %d", i, serial.FinalTips()[i], sharded.FinalTips()[i])
		}
	}
	if serial.Tree.Len() != sharded.Tree.Len() || serial.Tree.Best() != sharded.Tree.Best() {
		t.Fatalf("trees diverged: len %d/%d best %d/%d",
			serial.Tree.Len(), sharded.Tree.Len(), serial.Tree.Best(), sharded.Tree.Best())
	}
}

// TestDistinctTipsMatchesViewScan cross-checks the tip-list merge
// against a direct scan of all honest views after a contentious run,
// and bestHonestTip against the sorted list's last entry.
func TestDistinctTipsMatchesViewScan(t *testing.T) {
	for _, shards := range []int{1, 4} {
		check := func(e *Engine, rec RoundRecord) {
			seen := map[blockchain.BlockID]struct{}{}
			for _, tip := range e.tips[:e.honest] {
				seen[tip] = struct{}{}
			}
			if got := e.DistinctTipCount(); got != len(seen) {
				t.Fatalf("shards=%d round %d: DistinctTipCount %d, view scan %d", shards, rec.Round, got, len(seen))
			}
			list := e.DistinctTips()
			if len(list) != len(seen) {
				t.Fatalf("shards=%d round %d: DistinctTips %d ids, view scan %d", shards, rec.Round, len(list), len(seen))
			}
			for _, id := range list {
				if _, ok := seen[id]; !ok {
					t.Fatalf("shards=%d round %d: DistinctTips reported %d, absent from views", shards, rec.Round, id)
				}
			}
			if best := e.bestHonestTip(); best != list[len(list)-1] {
				t.Fatalf("shards=%d round %d: bestHonestTip %d, DistinctTips ends %d", shards, rec.Round, best, list[len(list)-1])
			}
		}
		e, err := New(Config{
			Params: params.Params{N: 25, P: 0.02, Delta: 4, Nu: 0.2},
			Rounds: 500, Seed: 11, Shards: shards,
			Observer: ObserverFunc(check),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

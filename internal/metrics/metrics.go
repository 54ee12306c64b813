// Package metrics computes the chain-growth and chain-quality properties
// surveyed in the paper's Section II (related work), plus the main-chain
// share of a block tree. They complement the consistency property:
// chain growth g means honest chains grow by at least T blocks every T/g
// rounds; chain quality q means any T consecutive blocks of an honest
// chain contain at least a q fraction of honest blocks.
package metrics

import (
	"fmt"

	"neatbound/internal/blockchain"
	"neatbound/internal/engine"
)

// ChainGrowthRate returns the average growth of the maximum honest chain
// height per round over the run — the empirical g.
func ChainGrowthRate(records []engine.RoundRecord) float64 {
	var g GrowthRecorder
	for _, r := range records {
		g.OnRound(nil, r)
	}
	return g.Rate()
}

// GrowthRecorder is the streaming form of ChainGrowthRate: an
// engine.SpanObserver that keeps the first and the latest round's
// MaxHonestHeight, all the rate reads of the record stream.
type GrowthRecorder struct {
	first, last, rounds int
}

var _ engine.SpanObserver = (*GrowthRecorder)(nil)

// OnRound implements engine.Observer.
func (g *GrowthRecorder) OnRound(_ *engine.Engine, rec engine.RoundRecord) {
	g.OnQuietSpan(nil, rec, rec.Round, rec.Round)
}

// OnQuietSpan implements engine.SpanObserver: the span's rounds share
// rec's MaxHonestHeight.
func (g *GrowthRecorder) OnQuietSpan(_ *engine.Engine, rec engine.RoundRecord, first, last int) {
	if g.rounds == 0 {
		g.first = rec.MaxHonestHeight
	}
	g.last = rec.MaxHonestHeight
	g.rounds += last - first + 1
}

// Rate returns the average growth of the maximum honest chain height
// per round over the rounds observed so far: first to latest height,
// over the round count.
func (g *GrowthRecorder) Rate() float64 {
	if g.rounds == 0 {
		return 0
	}
	return float64(g.last-g.first) / float64(g.rounds)
}

// ChainQuality returns the fraction of honest blocks among the last k
// blocks of the chain ending at tip (excluding genesis). k larger than
// the chain is truncated to the whole chain. The k ≤ 0 (whole-chain)
// form reads the tree's spine counters, so it stays exact after arena
// compaction; the last-k form walks stored blocks and reports
// blockchain.ErrCompacted when the window reaches below the arena
// floor.
func ChainQuality(tree *blockchain.Tree, tip blockchain.BlockID, k int) (float64, error) {
	if k <= 0 {
		blocks, honest, err := tree.ChainStats(tip)
		if err != nil {
			return 0, fmt.Errorf("metrics: %w", err)
		}
		if blocks == 0 {
			return 1, nil // empty chain: vacuously all honest
		}
		return float64(honest) / float64(blocks), nil
	}
	honest, n := 0, 0
	for id := tip; n < k && id != blockchain.GenesisID; {
		b, ok := tree.Get(id)
		if !ok {
			if id < tree.Base() {
				return 0, fmt.Errorf("metrics: %w: block %d", blockchain.ErrCompacted, id)
			}
			return 0, fmt.Errorf("metrics: %w: %d", blockchain.ErrUnknownBlock, id)
		}
		if b.Honest {
			honest++
		}
		n++
		id = b.Parent
	}
	if n == 0 {
		return 1, nil // genesis tip: vacuously all honest
	}
	return float64(honest) / float64(n), nil
}

// MainChainShare returns the fraction of all mined blocks that lie on the
// main chain — a fork-rate summary in [0, 1], and 1 for a genesis-only
// tree. The main chain ends at the best block, which is a leaf at
// MaxHeight and is never retired, so the share is MaxHeight over the
// non-genesis block count in O(1), exact across compaction.
func MainChainShare(tree *blockchain.Tree) float64 {
	if tree.Len() == 1 {
		return 1
	}
	return float64(tree.MaxHeight()) / float64(tree.Len()-1)
}

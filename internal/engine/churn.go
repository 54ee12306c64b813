package engine

import (
	"fmt"
	"sort"
)

// This file is the scenario layer's honest-side mining model: scheduled
// player churn (epoch-based join/leave with seed-stable identity) and
// non-uniform per-player mining power (integer weights), both feeding
// the existing binomial/inversion samplers. The two knobs compose: each
// round the honest side makes one oracle query per *mining unit*, where
// the unit list is the concatenation of every currently-active player's
// Weight copies. The per-round success count is binom(units, p) — drawn
// exactly like the uniform path — and the winner identities are a
// uniform k-subset of the units mapped back to their owners, so a
// player with twice the weight wins twice as often, and a player on
// leave wins never. With every weight 1 and no churn the unit list is
// the identity, and the draw sequence (and hence the whole execution)
// is bit-identical to the default path — the equivalence
// TestWeightedMiningAllOnesMatchesUnweighted pins.
//
// Churned-out players keep their views (they still receive messages and
// adopt chains — rejoining miners are synced within Δ like everyone
// else); leaving only stops their oracle queries. That models mining
// participation churn without breaking the delivery invariants the
// walk and fast-forward paths rely on. docs/scenarios.md states the
// semantics.

// ChurnPlan schedules honest mining participation: in every epoch of
// Period rounds, a seeded-hash-chosen subset of Leave honest players is
// on leave (making no oracle queries); the subset rotates each epoch.
// Identity is seed-stable — the same Seed reproduces the same schedule
// under every result-neutral knob, and the selection consumes no engine
// randomness (it is a pure hash of (Seed, epoch, player)).
type ChurnPlan struct {
	// Period is the epoch length in rounds (≥ 1); epoch e covers rounds
	// [e·Period+1, (e+1)·Period].
	Period int
	// Leave is how many honest players are on leave each epoch; it must
	// leave at least one active miner.
	Leave int
	// Seed selects which players leave in each epoch.
	Seed uint64
}

// validate checks the plan against the honest player count.
func (p *ChurnPlan) validate(honest int) error {
	if p.Period < 1 {
		return fmt.Errorf("engine: churn period = %d must be ≥ 1", p.Period)
	}
	if p.Leave < 0 || p.Leave >= honest {
		return fmt.Errorf("engine: churn leave = %d must be in [0, honest=%d)", p.Leave, honest)
	}
	return nil
}

// churnKey ranks player i in epoch e under seed — the SplitMix64
// finalizer over a multiplicative mix, matching the scenario policies'
// hash family.
func churnKey(seed uint64, epoch, i int) uint64 {
	h := uint64(epoch+1)*0x9e3779b97f4a7c15 ^ uint64(i+1)*0xbf58476d1ce4e5b9 ^ seed
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// validateScenarioMining checks the Churn/MiningWeights configuration at
// New time. Both knobs are incompatible with adaptive corruption: a
// NuSchedule moves the honest boundary every round, and the scenario
// layer's per-player schedules are defined over a fixed honest set.
func validateScenarioMining(cfg *Config, honest int) error {
	if cfg.Churn == nil && cfg.MiningWeights == nil {
		return nil
	}
	if cfg.NuSchedule != nil {
		return fmt.Errorf("engine: Churn/MiningWeights cannot be combined with NuSchedule")
	}
	if cfg.Churn != nil {
		if err := cfg.Churn.validate(honest); err != nil {
			return err
		}
	}
	if w := cfg.MiningWeights; w != nil {
		if len(w) != honest {
			return fmt.Errorf("engine: %d mining weights for %d honest players", len(w), honest)
		}
		sum := 0
		for i, wi := range w {
			if wi < 0 {
				return fmt.Errorf("engine: mining weight[%d] = %d must be ≥ 0", i, wi)
			}
			sum += wi
		}
		if sum < 1 {
			return fmt.Errorf("engine: mining weights sum to 0; at least one player must mine")
		}
	}
	return nil
}

// scenarioMining reports whether the unit-based mining path is active.
func (e *Engine) scenarioMining() bool {
	return e.cfg.Churn != nil || e.cfg.MiningWeights != nil
}

// miningUnits returns the round's unit→player map, rebuilt only when
// the churn epoch changes. The caller must hold the serial phase (the
// unit list is engine scratch).
func (e *Engine) miningUnits(round int) []int32 {
	epoch := 0
	if e.cfg.Churn != nil {
		epoch = (round - 1) / e.cfg.Churn.Period
	}
	if e.unitsEpoch == epoch {
		return e.units
	}
	e.unitsEpoch = epoch

	// Mark the epoch's leavers: the Leave players with the smallest
	// (hash key, index) rank. The rank is a pure function of (Seed,
	// epoch, player) — no engine RNG draws, so the schedule is identical
	// on every delivery path.
	onLeave := e.churnOff
	if p := e.cfg.Churn; p != nil && p.Leave > 0 {
		if onLeave == nil {
			onLeave = make([]bool, e.honest)
			e.churnOff = onLeave
		}
		for i := range onLeave {
			onLeave[i] = false
		}
		if e.churnRank == nil {
			e.churnRank = make([]int, e.honest)
		}
		rank := e.churnRank[:e.honest]
		for i := range rank {
			rank[i] = i
		}
		sort.Slice(rank, func(a, b int) bool {
			ka, kb := churnKey(p.Seed, epoch, rank[a]), churnKey(p.Seed, epoch, rank[b])
			if ka != kb {
				return ka < kb
			}
			return rank[a] < rank[b]
		})
		for _, i := range rank[:p.Leave] {
			onLeave[i] = true
		}
	} else {
		onLeave = nil
	}

	units := e.units[:0]
	for i := 0; i < e.honest; i++ {
		if onLeave != nil && onLeave[i] {
			continue
		}
		w := 1
		if e.cfg.MiningWeights != nil {
			w = e.cfg.MiningWeights[i]
		}
		for j := 0; j < w; j++ {
			units = append(units, int32(i))
		}
	}
	e.units = units
	return units
}

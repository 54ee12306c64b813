package sweep

import (
	"neatbound/internal/adversary"
	"neatbound/internal/engine"
	"neatbound/internal/scenario"
)

// Grid spans the (ν × c) parameter grid of one sweep; every (ν, c) pair
// is a cell executed at the shared n and Δ.
type Grid struct {
	// N is the miner count used in every cell.
	N int `json:"n"`
	// Delta is the network delay bound used in every cell.
	Delta int `json:"delta"`
	// NuValues and CValues span the grid.
	NuValues []float64 `json:"nu_values"`
	CValues  []float64 `json:"c_values"`
}

// Semantics is the half of a cell's configuration that determines its
// results: with the grid point and the seed it fixes the cell bit for
// bit. Content addresses hash it whole — CellJob embeds it and SweepKey
// keeps it — so a knob added here is keyed with no further edits.
type Semantics struct {
	// Rounds is the number of protocol rounds per cell (≥ 1).
	Rounds int `json:"rounds"`
	// T is the consistency chop parameter of Definition 1 (≥ 0).
	T int `json:"t"`
	// SampleEvery is the consistency checker's snapshot interval; 0
	// picks Rounds/50, min 1 (ResolveSampleEvery).
	SampleEvery int `json:"sample_every"`
	// Adversary is the strategy name (adversary.Names); "" runs the
	// passive baseline.
	Adversary string `json:"adversary,omitempty"`
	// ForkDepth is the private-mining strategy's minimum published fork
	// depth; 0 picks the default. Other strategies ignore it.
	ForkDepth int `json:"fork_depth,omitempty"`
	// CheckerRetention bounds the checker's snapshot history to the most
	// recent CheckerRetention samples (consistency.Checker.SetRetention;
	// 0 keeps the whole run). A bounded window changes which snapshot
	// pairs Definition 1 scans, so it is semantics; it is also what lets
	// Tuning.CompactEvery reclaim memory, since a full-history checker
	// pins the compaction watermark near genesis.
	CheckerRetention int `json:"checker_retention,omitempty"`
	// Scenario, when non-nil, applies the scenario layer
	// (internal/scenario): its delay policy replaces the adversary's
	// honest-broadcast schedule, and its churn and power sections
	// configure the engine. Scenarios disarm Tuning.FastForward. Nil is
	// the default model.
	Scenario *scenario.Spec `json:"scenario,omitempty"`
}

// Tuning is the half of a cell's configuration that never changes
// results: every setting is bit-identical to every other (the golden
// traces pin it), so content addresses ignore it and a cached or
// resumed sweep may be retuned freely.
type Tuning struct {
	// EngineShards is the engine's delivery-phase parallelism
	// (engine.Config.Shards; engine.AutoShards picks from GOMAXPROCS).
	// 0 keeps engines serial, the right choice when the grid itself
	// saturates the workers.
	EngineShards int `json:"engine_shards,omitempty"`
	// FastForward enables the engine's event-driven round skipping
	// (engine.Config.FastForward); it pays off in sparse-mining cells
	// and falls back to stepping elsewhere.
	FastForward bool `json:"fast_forward,omitempty"`
	// CompactEvery retires the arena's blocks below the retention
	// watermark every CompactEvery rounds (engine.Config.CompactEvery;
	// 0 = off), bounding resident memory on long runs. CompactMinRetire
	// is the minimum ID span an epoch must retire (0 = engine default).
	CompactEvery     int `json:"compact_every,omitempty"`
	CompactMinRetire int `json:"compact_min_retire,omitempty"`
}

// Apply returns ecfg with the tuning knobs set.
func (t Tuning) Apply(ecfg engine.Config) engine.Config {
	ecfg.Shards = t.EngineShards
	ecfg.FastForward = t.FastForward
	ecfg.CompactEvery = t.CompactEvery
	ecfg.CompactMinRetire = t.CompactMinRetire
	return ecfg
}

// Spec is the serializable description of a whole sweep: the grid, the
// base seed, the replicate count and the two knob halves. It is what
// travels as data — a sweepd JobRequest is one, and a distributed sweep
// is one plus its placement in a parent grid.
type Spec struct {
	Grid
	// Seed derives every (cell, replicate) seed through CellSeed — the
	// same derivation for any partitioning.
	Seed uint64 `json:"seed"`
	// Replicates is the number of independent runs per cell (≥ 1).
	Replicates int `json:"replicates"`
	Semantics
	Tuning
}

// Config builds the in-process sweep configuration, resolving the
// adversary name into a per-cell factory. Workers, Pool and the
// placement offsets are left to the caller.
func (s Spec) Config() (Config, error) {
	var factory func() engine.Adversary
	if s.Adversary != "" {
		var err error
		if factory, err = adversary.Factory(s.Adversary, s.ForkDepth); err != nil {
			return Config{}, err
		}
	}
	return Config{
		N:                s.N,
		Delta:            s.Delta,
		NuValues:         s.NuValues,
		CValues:          s.CValues,
		Rounds:           s.Rounds,
		Seed:             s.Seed,
		T:                s.T,
		SampleEvery:      s.SampleEvery,
		NewAdversary:     factory,
		Tuning:           s.Tuning,
		CheckerRetention: s.CheckerRetention,
		Scenario:         s.Scenario,
	}, nil
}

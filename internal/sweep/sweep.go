// Package sweep runs grids of protocol simulations in parallel — the
// empirical side of Figure 1. Each grid cell fixes an adversarial
// fraction ν and an expected-delay ratio c, executes the Δ-delay
// protocol under a chosen adversary, and reports consistency violations,
// the Lemma-1 ledger (convergence opportunities vs adversarial blocks),
// and fork statistics.
//
// # Concurrency and ownership
//
// Execution is a job queue: every (cell, replicate) pair is one
// independent job — the per-cell engine and RNG stream are
// self-contained — fanned out across a bounded worker pool
// (GOMAXPROCS-sized by default); all cells additionally share one
// persistent pool.Pool (Config.Pool, defaulting to the process-wide
// pool) for their engines' sharded phases and consistency scans, so
// concurrent cells take turns instead of oversubscribing the scheduler.
// Callbacks (onCell, collect, onRep) always run on the caller's
// goroutine, in completion order; a Config is value-copied at entry and
// never written by the runner, so one Config may drive concurrent
// sweeps. Replicated sweeps aggregate each cell as soon as its last
// replicate lands and can stream the finished AggregateCell to a
// callback while the rest of the grid is still running; per-cell
// aggregation always folds replicates in index order, so results are
// bit-identical regardless of worker scheduling.
//
// # Interchange
//
// Finished cells serialize to the JSONL interchange specified in
// docs/interchange.md: MarshalCells/MarshalCell emit cell records,
// MarshalReplicateCell emits replicate-tagged records for
// replicate-range shards, UnmarshalCells/UnmarshalCellLine read them
// back, and MergeCellStreams reassembles partitioned streams into one
// grid (duplicate cells pooled via the parallel-Welford stats.Merge).
// The cross-process driver on top of this format lives in
// internal/distsweep.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"neatbound/internal/engine"
	"neatbound/internal/params"
	"neatbound/internal/pool"
	"neatbound/internal/scenario"
)

// seedGolden spreads per-replicate and per-cell seeds (the 64-bit golden
// ratio, the same constant the rng package splits with).
const seedGolden = 0x9e3779b97f4a7c15

// Config describes a sweep grid for the in-process runner; Spec.Config
// builds one from the serializable form.
type Config struct {
	// N is the miner count used in every cell.
	N int
	// Delta is the network delay bound used in every cell.
	Delta int
	// NuValues and CValues span the grid; every (ν, c) pair is one cell.
	NuValues, CValues []float64
	// Rounds, T, SampleEvery, CheckerRetention and Scenario are the
	// cells' Semantics; the adversary arrives resolved, as NewAdversary.
	Rounds, T, SampleEvery, CheckerRetention int
	Scenario                                 *scenario.Spec
	// Seed derives per-cell seeds deterministically (CellSeed).
	Seed uint64
	// NewAdversary builds a fresh strategy per cell (strategies are
	// stateful); nil runs the passive baseline.
	NewAdversary func() engine.Adversary
	// Workers bounds the job-queue parallelism; 0 means GOMAXPROCS.
	Workers int
	// Tuning holds the cell engines' throughput knobs.
	Tuning
	// Pool is the persistent worker pool every cell shares — sharded
	// cell engines, their network fan-outs, and the consistency
	// checkers' pairwise scans all take turns on its workers instead of
	// spawning competing goroutine fleets per cell. Nil shares the
	// process-wide default pool. The pool never affects results.
	Pool *pool.Pool
	// CellOffset and RepOffset place this grid inside a larger parent
	// sweep for cross-process sharding: per-job seeds derive from the
	// parent's ν-major cell index (local index + CellOffset) and the
	// parent's replicate index (local replicate + RepOffset), so a shard
	// covering a slice of the parent grid draws exactly the seeds the
	// parent's single-process run would. Both zero for a standalone
	// sweep.
	CellOffset, RepOffset int
}

// semantics gathers the cells' Semantics from the flat knob fields.
func (cfg Config) semantics() Semantics {
	return Semantics{
		Rounds:           cfg.Rounds,
		T:                cfg.T,
		SampleEvery:      cfg.SampleEvery,
		CheckerRetention: cfg.CheckerRetention,
		Scenario:         cfg.Scenario,
	}
}

// Cell is the outcome of one grid point.
type Cell struct {
	// Nu and C locate the cell.
	Nu, C float64
	// Params is the concrete parameterization executed.
	Params params.Params
	// Report is the run's consistency report (see RunOne).
	Report
	// Err records a per-cell failure (e.g. p out of range for this (ν,c)).
	Err error
}

// validate rejects configurations the runner cannot execute.
func (cfg Config) validate() error {
	if cfg.Rounds < 1 {
		return fmt.Errorf("sweep: rounds = %d must be ≥ 1", cfg.Rounds)
	}
	if len(cfg.NuValues) == 0 || len(cfg.CValues) == 0 {
		return fmt.Errorf("sweep: empty grid (%d ν × %d c)", len(cfg.NuValues), len(cfg.CValues))
	}
	return nil
}

// cellSeed derives the deterministic seed of one (cell, replicate) job —
// CellSeed in the parent grid's frame (cross-process shards shift idx
// and rep into it via CellOffset/RepOffset).
func (cfg Config) cellSeed(idx, rep int) uint64 {
	return CellSeed(cfg.Seed, idx+cfg.CellOffset, rep+cfg.RepOffset)
}

// runJobs executes every (cell, replicate) pair of the grid on a worker
// pool and hands each finished Cell to collect on the caller's
// goroutine, in completion order. When ctx is cancelled, no further
// jobs are dispatched, in-flight cell engines stop within one round
// (their cells carry Err = ctx.Err()), already-finished cells still
// reach collect, and runJobs returns ctx.Err().
func runJobs(ctx context.Context, cfg Config, replicates int, collect func(idx, rep int, cell Cell)) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	type job struct {
		idx, rep int
		nu, c    float64
	}
	type result struct {
		idx, rep int
		cell     Cell
	}
	nCells := len(cfg.NuValues) * len(cfg.CValues)
	total := nCells * replicates
	if workers > total {
		workers = total
	}
	if cfg.Pool == nil {
		// One pool for the whole grid: cells take turns on a shared
		// worker set instead of each acquiring parallelism on its own.
		cfg.Pool = pool.Default()
	}
	done := ctx.Done()
	jobs := make(chan job)
	results := make(chan result, workers)
	go func() { // producer
		defer close(jobs)
		for rep := 0; rep < replicates; rep++ {
			idx := 0
			for _, nu := range cfg.NuValues {
				for _, c := range cfg.CValues {
					select {
					case jobs <- job{idx: idx, rep: rep, nu: nu, c: c}:
					case <-done:
						return
					}
					idx++
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				results <- result{
					idx:  j.idx,
					rep:  j.rep,
					cell: runCell(ctx, cfg, j.nu, j.c, cfg.cellSeed(j.idx, j.rep)),
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	for r := range results {
		collect(r.idx, r.rep, r.cell)
	}
	return ctx.Err()
}

// runCell executes one grid point.
func runCell(ctx context.Context, cfg Config, nu, c float64, seed uint64) Cell {
	cell := Cell{Nu: nu, C: c}
	pr, err := params.FromC(cfg.N, cfg.Delta, nu, c)
	if err != nil {
		cell.Err = err
		return cell
	}
	cell.Params = pr
	var adv engine.Adversary
	if cfg.NewAdversary != nil {
		adv = cfg.NewAdversary()
	}
	cell.Report, _, cell.Err = RunOne(ctx, cfg.Tuning.Apply(engine.Config{
		Params:    pr,
		Seed:      seed,
		Adversary: adv,
		Pool:      cfg.Pool,
	}), cfg.semantics())
	return cell
}

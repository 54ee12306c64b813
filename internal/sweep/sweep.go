// Package sweep runs grids of protocol simulations in parallel — the
// empirical side of Figure 1. Each grid cell fixes an adversarial
// fraction ν and an expected-delay ratio c, executes the Δ-delay
// protocol under a chosen adversary, and reports consistency violations,
// the Lemma-1 ledger (convergence opportunities vs adversarial blocks),
// and the share of blocks on the main chain.
//
// # Concurrency and ownership
//
// Execution is a job queue: every (cell, replicate) pair is one
// independent job — the per-cell engine and RNG stream are
// self-contained — fanned out across a bounded set of workers
// (GOMAXPROCS by default). A job's consistency scans run serially on
// the job's own goroutine, so the workers are the only parallelism.
// Callbacks (onCell, collect) always run on the caller's
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
// UnmarshalCells/UnmarshalCellLine read them back (replicate-tagged
// records included), and MergeCellStreams reassembles streams computed
// on different hosts into one grid (duplicate cells pooled via the
// parallel-Welford stats.Merge).
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"neatbound/internal/engine"
	"neatbound/internal/params"
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
	// Cells, when non-nil, lists the ν-major cell indices to run; the
	// others are skipped and stay zero-valued in RunGrid's result. A
	// listed cell draws the seeds it draws in the whole-grid run, so its
	// result is the same. Nil runs the whole grid.
	Cells []int
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
	nCells := len(cfg.NuValues) * len(cfg.CValues)
	seen := make(map[int]bool, len(cfg.Cells))
	for _, idx := range cfg.Cells {
		if idx < 0 || idx >= nCells {
			return fmt.Errorf("sweep: cell index %d outside the %d-cell grid", idx, nCells)
		}
		if seen[idx] {
			return fmt.Errorf("sweep: cell index %d listed twice", idx)
		}
		seen[idx] = true
	}
	return nil
}

// runJobs executes every (cell, replicate) pair of the grid (of
// cfg.Cells, when set) on a worker pool and hands each finished Cell to
// collect on the caller's goroutine, in completion order. When ctx is
// cancelled, no further jobs are dispatched, in-flight cell engines
// stop within one round (their cells carry Err = ctx.Err()),
// already-finished cells still reach collect, and runJobs returns
// ctx.Err(). A job that panics is contained the same way: dispatch
// stops, no later cell reaches collect (one cut short by the stop
// would carry a result that is not the cell's), and runJobs returns an
// error naming the job and the panic value.
func runJobs(ctx context.Context, cfg Config, replicates int, collect func(idx, rep int, cell Cell)) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	runCtx, stop := context.WithCancel(ctx)
	defer stop()
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
		panicked error
	}
	cells := cfg.Cells
	if cells == nil {
		cells = make([]int, len(cfg.NuValues)*len(cfg.CValues))
		for i := range cells {
			cells[i] = i
		}
	}
	total := len(cells) * replicates
	if workers > total {
		workers = total
	}
	nC := len(cfg.CValues)
	done := runCtx.Done()
	jobs := make(chan job)
	results := make(chan result, workers)
	go func() { // producer
		defer close(jobs)
		for rep := 0; rep < replicates; rep++ {
			for _, idx := range cells {
				select {
				case jobs <- job{idx: idx, rep: rep, nu: cfg.NuValues[idx/nC], c: cfg.CValues[idx%nC]}:
				case <-done:
					return
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
				r := result{idx: j.idx, rep: j.rep}
				seed := CellSeed(cfg.Seed, j.idx, j.rep)
				func() {
					defer func() {
						if v := recover(); v != nil {
							r.panicked = fmt.Errorf("sweep: cell ν=%g c=%g replicate %d seed %d panicked: %v", j.nu, j.c, j.rep, seed, v)
						}
					}()
					r.cell = runCell(runCtx, cfg, j.nu, j.c, seed)
				}()
				results <- r
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	var panicked error
	for r := range results {
		switch {
		case panicked != nil:
		case r.panicked != nil:
			panicked = r.panicked
			stop()
		default:
			collect(r.idx, r.rep, r.cell)
		}
	}
	if panicked != nil {
		return panicked
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
	}), cfg.semantics())
	return cell
}

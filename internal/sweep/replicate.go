package sweep

import (
	"context"
	"fmt"

	"neatbound/internal/stats"
)

// AggregateCell summarizes one grid point across independent replicates:
// the violation probability with a Wilson interval, and mean/CI summaries
// of the Lemma-1 margin, the convergence-opportunity count and the
// deepest fork.
type AggregateCell struct {
	// Nu and C locate the cell.
	Nu, C float64
	// Replicates is the number of successful runs aggregated.
	Replicates int
	// ViolationRuns counts replicates with at least one Definition-1
	// violation.
	ViolationRuns int
	// ViolationRateLo and ViolationRateHi are the 95% Wilson bounds on
	// the per-run violation probability.
	ViolationRateLo, ViolationRateHi float64
	// Violations summarizes the per-run violation counts (ViolationRuns
	// only says how many runs had any).
	Violations stats.Summary
	// Margin summarizes the Lemma-1 margin C−A across replicates.
	Margin stats.Summary
	// Convergence summarizes the convergence-opportunity counts.
	Convergence stats.Summary
	// Adversary summarizes the adversarial block counts (the A side of
	// the ledger).
	Adversary stats.Summary
	// MaxForkDepth summarizes the deepest fork per run.
	MaxForkDepth stats.Summary
	// Err is set when every replicate failed (e.g. infeasible p). It is
	// excluded from JSON encoding (errors do not round-trip); callers
	// streaming cells should surface Err separately.
	Err error `json:"-"`
}

// aggregate folds one cell's replicate results, always in replicate
// order, so the floating-point summaries are bit-identical no matter how
// the worker pool interleaved the runs. It is AggregateReplicates over
// the ReplicateCell forms.
func aggregate(nu, c float64, reps []Cell) (AggregateCell, error) {
	rcs := make([]AggregateCell, len(reps))
	for i, cell := range reps {
		rcs[i] = ReplicateCell(cell)
	}
	return AggregateReplicates(nu, c, rcs)
}

// ReplicateCell freezes one replicate's outcome as a single-replicate
// AggregateCell: every summary holds exactly that replicate's value
// (N = 1, Mean = Min = Max, Std = 0), ViolationRuns flags whether the
// run violated at all, and a failed replicate carries Err with
// Replicates = 0. Refolded in replicate order by AggregateReplicates,
// these records give exactly the cell's aggregate.
func ReplicateCell(cell Cell) AggregateCell {
	out := AggregateCell{Nu: cell.Nu, C: cell.C}
	if cell.Err != nil {
		out.Err = cell.Err
		return out
	}
	out.Replicates = 1
	if cell.Violations > 0 {
		out.ViolationRuns = 1
	}
	// Trials = 1 with 0 ≤ successes ≤ 1 cannot fail validation.
	out.ViolationRateLo, out.ViolationRateHi, _ = stats.WilsonInterval(out.ViolationRuns, 1)
	one := func(x float64) stats.Summary {
		return stats.Summary{N: 1, Mean: x, Min: x, Max: x}
	}
	out.Violations = one(float64(cell.Violations))
	out.Margin = one(float64(cell.Ledger.Margin()))
	out.Convergence = one(float64(cell.Ledger.Convergence))
	out.Adversary = one(float64(cell.Ledger.Adversary))
	out.MaxForkDepth = one(float64(cell.MaxForkDepth))
	return out
}

// AggregateReplicates folds single-replicate records (the ReplicateCell
// form) into the cell's pooled aggregate, in the order given: an
// index-ordered Welford fold over each record's Mean, which carries the
// replicate's exact value. Records with Err set count as failed
// replicates: they are skipped, and the last error surfaces only when
// every replicate failed.
func AggregateReplicates(nu, c float64, reps []AggregateCell) (AggregateCell, error) {
	var margin, conv, adv, fork, viol stats.Accumulator
	violationRuns, ok := 0, 0
	var lastErr error
	for _, rc := range reps {
		if rc.Err != nil {
			lastErr = rc.Err
			continue
		}
		ok++
		margin.Add(rc.Margin.Mean)
		conv.Add(rc.Convergence.Mean)
		adv.Add(rc.Adversary.Mean)
		fork.Add(rc.MaxForkDepth.Mean)
		viol.Add(rc.Violations.Mean)
		if rc.ViolationRuns > 0 {
			violationRuns++
		}
	}
	out := AggregateCell{Nu: nu, C: c, Replicates: ok, ViolationRuns: violationRuns}
	if ok == 0 {
		out.Err = lastErr
		return out, nil
	}
	lo, hi, err := stats.WilsonInterval(violationRuns, ok)
	if err != nil {
		return out, err
	}
	out.ViolationRateLo, out.ViolationRateHi = lo, hi
	out.Violations = viol.Summary()
	out.Margin = margin.Summary()
	out.Convergence = conv.Summary()
	out.Adversary = adv.Summary()
	out.MaxForkDepth = fork.Summary()
	return out, nil
}

// RunGrid is the unified sweep pipeline every entry point flows through:
// it executes the (ν × c) grid `replicates` times on the job queue,
// aggregates each cell as its last replicate lands (always folding
// replicates in index order, so results are bit-identical regardless of
// worker scheduling), streams the aggregate to onCell (when non-nil, on
// the caller's goroutine, in completion order), and returns the ν-major
// aggregate slice, whose slots outside a non-nil cfg.Cells stay
// zero-valued. When ctx is cancelled the grid stops promptly — cells
// already aggregated are returned, unfinished slots stay zero-valued —
// together with ctx.Err(). A replicate that panics stops the grid the
// same way, with an error naming its cell, replicate, seed and panic
// value; no cell reaches onCell after it.
func RunGrid(ctx context.Context, cfg Config, replicates int, onCell func(AggregateCell)) ([]AggregateCell, error) {
	if replicates < 1 {
		return nil, fmt.Errorf("sweep: replicates = %d must be ≥ 1", replicates)
	}
	nCells := len(cfg.NuValues) * len(cfg.CValues)
	perCell := make([][]Cell, nCells)
	done := make([]int, nCells)
	out := make([]AggregateCell, nCells)
	var firstErr error
	err := runJobs(ctx, cfg, replicates, func(idx, rep int, cell Cell) {
		if perCell[idx] == nil {
			perCell[idx] = make([]Cell, replicates)
		}
		perCell[idx][rep] = cell
		done[idx]++
		if done[idx] < replicates {
			return
		}
		agg, err := aggregate(cell.Nu, cell.C, perCell[idx])
		perCell[idx] = nil // the raw replicates are folded; free them early
		if err != nil && firstErr == nil {
			firstErr = err
		}
		out[idx] = agg
		if onCell != nil {
			onCell(agg)
		}
	})
	if err != nil {
		return out, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

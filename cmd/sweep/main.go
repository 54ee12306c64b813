// Command sweep runs a (ν × c) grid of Δ-delay protocol simulations on a
// parallel job queue and prints, per cell, the consistency outcome and
// the Lemma-1 ledger — the empirical counterpart of Figure 1's curves.
//
// Usage:
//
//	sweep -n 40 -delta 8 -nu 0.2,0.3,0.45 -c 0.5,1,2,5,25 -rounds 20000 -adversary private
//
// With -replicates R > 1 each cell runs R times with independent seeds
// and is reported with Wilson confidence bounds; with -json every
// finished cell is emitted immediately as one JSON line (the
// AggregateCell interchange of neatbound.MarshalCells, streamed in
// completion order while the rest of the grid is still running), so long
// sweeps can be piped, monitored incrementally, and — when the grid is
// partitioned across machines — reassembled with
// neatbound.MergeCellStreams. -workers sizes the job pool (0 =
// GOMAXPROCS).
//
// # Distributed mode
//
// -coordinator W partitions the grid across W worker subprocesses (this
// same binary relaunched with -worker, each speaking the JSONL shard
// protocol of docs/interchange.md on its stdin/stdout) and merges their
// cell streams into the ν-major grid a single-process run would have
// produced, bit for bit; failed shards are reassigned automatically.
// -dist-shards cuts the grid finer than one shard per worker for
// better rebalancing. -worker turns the process into a protocol worker
// (all grid flags are ignored; the coordinator's shard specs carry the
// configuration); it is meant to be spawned by a coordinator, not run
// by hand.
//
// -checkpoint DIR makes a coordinator sweep durable: every committed
// shard is journaled in DIR before it is announced, and a killed sweep
// can be continued with -resume against the same directory — only the
// missing shards are recomputed, and the reassembled grid is
// byte-identical to an uninterrupted run. A checkpoint from a different
// sweep (changed grid, seed, partitioning, …) is refused, never merged.
// -stall-timeout declares a shard attempt dead when its worker makes no
// progress for that long; the shard is requeued like any other failure.
// After the run the coordinator prints a per-shard reassignment summary
// on stderr, broken down by cause (stall / launch / error). See
// docs/faults.md for the full fault-tolerance contract.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"neatbound"
)

// newExecutor launches the coordinator's worker fleet; it is a seam so
// tests can run coordinator mode without real subprocesses. fleet is
// the worker count: the GOMAXPROCS job budget is divided across the
// workers (each relaunched from the current executable in worker mode
// with -workers set), so N workers on one host don't oversubscribe it
// N-fold.
var newExecutor = func(fleet int) neatbound.ShardExecutor {
	jobs := runtime.GOMAXPROCS(0) / fleet
	if jobs < 1 {
		jobs = 1
	}
	return neatbound.NewSubprocessExecutor("", "-worker", "-workers", strconv.Itoa(jobs))
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("parsing %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	n := fs.Int("n", 40, "number of miners")
	delta := fs.Int("delta", 8, "delay bound Δ")
	nuList := fs.String("nu", "0.2,0.3,0.45", "comma-separated ν values")
	cList := fs.String("c", "0.5,1,2,5,25", "comma-separated c values")
	rounds := fs.Int("rounds", 20000, "rounds per cell")
	seed := fs.Uint64("seed", 1, "base seed")
	tee := fs.Int("T", 4, "consistency chop parameter")
	advName := fs.String("adversary", "private",
		"strategy: "+strings.Join(neatbound.AdversaryNames(), "|"))
	forkDepth := fs.Int("fork-depth", 4, "private adversary's target fork depth")
	workers := fs.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS; single-process mode only)")
	replicates := fs.Int("replicates", 1, "independent replicates per cell")
	jsonOut := fs.Bool("json", false, "stream one JSON line per finished cell")
	worker := fs.Bool("worker", false, "serve the shard protocol on stdin/stdout (spawned by -coordinator)")
	coordinator := fs.Int("coordinator", 0, "partition the grid across this many worker subprocesses (0 = single-process)")
	distShards := fs.Int("dist-shards", 0, "target shard count in coordinator mode (0 = one per worker)")
	checkpointDir := fs.String("checkpoint", "", "coordinator mode: journal committed shards in this directory (resumable with -resume)")
	resume := fs.Bool("resume", false, "coordinator mode: replay the -checkpoint journal and compute only the missing shards")
	stallTimeout := fs.Duration("stall-timeout", 0, "coordinator mode: fail a shard attempt after this long without worker progress (0 = disabled)")
	scenarioArg := fs.String("scenario", "",
		"scenario layer per cell: a preset name ("+strings.Join(neatbound.ScenarioNames(), "|")+") or a JSON spec (docs/scenarios.md)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// SIGINT/SIGTERM cancel the context, so an interrupted coordinator
	// kills its worker fleet instead of orphaning it mid-shard.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *worker {
		// Worker mode: everything about the sweep arrives in shard specs;
		// the grid flags above are ignored except -workers, which bounds
		// this worker's job-queue parallelism (the coordinator sets it to
		// its share of the host's budget).
		return neatbound.ServeSweepWorker(ctx, os.Stdin, os.Stdout, *workers)
	}
	nus, err := parseFloats(*nuList)
	if err != nil {
		return err
	}
	cs, err := parseFloats(*cList)
	if err != nil {
		return err
	}
	// Validate the strategy name up front, before any grid work starts.
	if _, err := neatbound.NewAdversaryByName(*advName, neatbound.AdversaryOpts{ForkDepth: *forkDepth}); err != nil {
		return err
	}
	scn, err := neatbound.ParseScenario(*scenarioArg)
	if err != nil {
		return err
	}
	grid := neatbound.SweepGrid{N: *n, Delta: *delta, NuValues: nus, CValues: cs}
	opts := []neatbound.Option{
		neatbound.WithRounds(*rounds),
		neatbound.WithSeed(*seed),
		neatbound.WithConsistency(*tee, 0),
		neatbound.WithAdversaryName(*advName, neatbound.AdversaryOpts{ForkDepth: *forkDepth}),
		neatbound.WithReplicates(*replicates),
	}
	if scn != nil {
		opts = append(opts, neatbound.WithScenario(scn))
	}
	// Single-process and coordinator mode produce bit-identical grids;
	// the only difference is who executes the cells.
	runGrid := neatbound.RunSweep
	var retrySummary func()
	if *coordinator == 0 {
		if *checkpointDir != "" || *resume || *stallTimeout != 0 {
			return fmt.Errorf("-checkpoint/-resume/-stall-timeout are coordinator-mode flags; add -coordinator W")
		}
	}
	if *resume && *checkpointDir == "" {
		return fmt.Errorf("-resume needs -checkpoint DIR to resume from")
	}
	if *coordinator > 0 {
		if *workers != 0 {
			return fmt.Errorf("-workers sizes the single-process job pool; in coordinator mode the fleet size is -coordinator (got -workers %d)", *workers)
		}
		// Never launch (or budget for) more workers than there are
		// shards: the coordinator would leave the extras idle while each
		// launched worker runs on a divided share of the machine.
		fleet := *coordinator
		if s := neatbound.SweepShards(grid, *replicates, fleet, *distShards); s < fleet {
			fleet = s
		}
		// Fold coordinator progress into a per-shard, per-cause
		// reassignment tally, reported once on stderr after the run — the
		// same counts a sweepd server surfaces in its job status
		// (shard_retries) and SSE stream.
		var retryMu sync.Mutex
		perShard := make(map[int]map[string]int)
		resumed := 0
		opts = append(opts,
			neatbound.WithWorkers(fleet),
			neatbound.WithTargetShards(*distShards),
			neatbound.WithExecutor(newExecutor(fleet)),
			neatbound.WithStallTimeout(*stallTimeout),
			neatbound.WithSweepProgress(func(p neatbound.SweepProgress) {
				retryMu.Lock()
				defer retryMu.Unlock()
				if !p.Retried {
					if p.Reason == neatbound.ShardResumed {
						resumed++
					}
					return
				}
				cause := p.Reason
				if cause == "" {
					cause = "error"
				}
				if perShard[p.Shard] == nil {
					perShard[p.Shard] = make(map[string]int)
				}
				perShard[p.Shard][cause]++
			}),
		)
		if *checkpointDir != "" {
			opts = append(opts, neatbound.WithCheckpointDir(*checkpointDir))
			if *resume {
				opts = append(opts, neatbound.WithResume())
			}
		}
		retrySummary = func() {
			retryMu.Lock()
			defer retryMu.Unlock()
			if resumed > 0 {
				fmt.Fprintf(os.Stderr, "sweep: coordinator: %d shard(s) served from the checkpoint journal\n", resumed)
			}
			if len(perShard) == 0 {
				fmt.Fprintln(os.Stderr, "sweep: coordinator: every shard committed on its first attempt")
				return
			}
			shards := make([]int, 0, len(perShard))
			total := 0
			for s, causes := range perShard {
				shards = append(shards, s)
				for _, c := range causes {
					total += c
				}
			}
			sort.Ints(shards)
			fmt.Fprintf(os.Stderr, "sweep: coordinator: %d shard reassignment(s):\n", total)
			for _, s := range shards {
				causes := perShard[s]
				names := make([]string, 0, len(causes))
				n := 0
				for cause, c := range causes {
					names = append(names, cause)
					n += c
				}
				sort.Strings(names)
				parts := make([]string, 0, len(names))
				for _, cause := range names {
					parts = append(parts, fmt.Sprintf("%s: %d", cause, causes[cause]))
				}
				fmt.Fprintf(os.Stderr, "sweep:   shard %d: reassigned %d time(s) (%s)\n", s, n, strings.Join(parts, ", "))
			}
		}
		runGrid = neatbound.RunSweepDistributed
	} else {
		opts = append(opts, neatbound.WithWorkers(*workers))
	}
	if *jsonOut || *replicates > 1 {
		err := runStreaming(ctx, runGrid, grid, opts, *jsonOut)
		if retrySummary != nil {
			retrySummary()
		}
		return err
	}
	cells, err := runGrid(ctx, grid, opts...)
	if retrySummary != nil {
		retrySummary()
	}
	if err != nil {
		return err
	}
	fmt.Printf("sweep: n=%d Δ=%d rounds=%d adversary=%s T=%d\n\n", *n, *delta, *rounds, *advName, *tee)
	fmt.Printf("%-7s %-8s %-9s %-8s %-11s %-11s %-8s %s\n",
		"nu", "c", "neat-ok", "viols", "C(conv)", "A(adv)", "margin", "max-fork")
	for _, cell := range cells {
		if cell.Err != nil {
			fmt.Printf("%-7.3g %-8.3g infeasible: %v\n", cell.Nu, cell.C, cell.Err)
			continue
		}
		neat, err := neatbound.NeatBoundC(cell.Nu)
		if err != nil {
			return err
		}
		// A single replicate's aggregate: each mean IS that replicate's
		// integer count.
		fmt.Printf("%-7.3g %-8.3g %-9v %-8.0f %-11.0f %-11.0f %-8.0f %.0f\n",
			cell.Nu, cell.C, cell.C > neat, cell.Violations.Mean,
			cell.Convergence.Mean, cell.Adversary.Mean, cell.Margin.Mean, cell.MaxForkDepth.Mean)
	}
	return nil
}

// runStreaming executes the sweep with progressive per-cell delivery: as
// JSON interchange lines with -json, as a live table otherwise. runGrid
// is RunSweep or RunSweepDistributed — the streaming contract (each cell
// once, completion order) is the same.
func runStreaming(ctx context.Context,
	runGrid func(context.Context, neatbound.SweepGrid, ...neatbound.Option) ([]neatbound.AggregateCell, error),
	grid neatbound.SweepGrid, opts []neatbound.Option, jsonOut bool) error {
	enc := json.NewEncoder(os.Stdout)
	if !jsonOut {
		fmt.Printf("%-7s %-8s %-5s %-7s %-19s %-13s %s\n",
			"nu", "c", "reps", "viols", "P(viol) 95%", "margin(mean)", "max-fork(mean)")
	}
	emit := func(cell neatbound.AggregateCell) error {
		if jsonOut {
			return neatbound.MarshalCell(enc, cell)
		}
		if cell.Err != nil {
			fmt.Printf("%-7.3g %-8.3g infeasible: %v\n", cell.Nu, cell.C, cell.Err)
			return nil
		}
		fmt.Printf("%-7.3g %-8.3g %-5d %-7d [%.3f, %.3f]      %-13.1f %.1f\n",
			cell.Nu, cell.C, cell.Replicates, cell.ViolationRuns,
			cell.ViolationRateLo, cell.ViolationRateHi,
			cell.Margin.Mean, cell.MaxForkDepth.Mean)
		return nil
	}
	var emitErr error
	opts = append(opts, neatbound.WithCellObserver(func(cell neatbound.AggregateCell) {
		if emitErr == nil {
			emitErr = emit(cell)
		}
	}))
	if _, err := runGrid(ctx, grid, opts...); err != nil {
		return err
	}
	return emitErr
}

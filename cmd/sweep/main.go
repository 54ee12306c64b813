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
// # Durable sweeps
//
// -checkpoint DIR makes the sweep durable and resumable: the grid runs
// through an in-process sweep service (the one behind cmd/sweepd) over
// the content-addressed cell store in DIR — the same format as sweepd's
// -store — so every finished cell is committed to disk as it lands. A
// rerun against the same directory, interrupted or not, serves the
// committed cells and computes only the missing ones; a different sweep
// derives different cell keys, so nothing is ever merged by mistake.
// Cells are printed when the grid finishes, in ν-major order; with
// -json the output is byte-identical to an uninterrupted run's. See
// docs/faults.md for the store's crash contract.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"neatbound"
	"neatbound/internal/store"
	"neatbound/internal/sweepsvc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
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

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
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
	workers := fs.Int("workers", 0, "simulation runs executed at once (0 = GOMAXPROCS)")
	replicates := fs.Int("replicates", 1, "independent replicates per cell")
	jsonOut := fs.Bool("json", false, "print one JSON line per cell, streamed as cells finish (at the end with -checkpoint)")
	checkpointDir := fs.String("checkpoint", "", "keep finished cells in this cell-store directory; a rerun computes only the missing ones")
	scenarioArg := fs.String("scenario", "",
		"scenario layer per cell: a preset name ("+strings.Join(neatbound.ScenarioNames(), "|")+") or a JSON spec (docs/scenarios.md)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// SIGINT/SIGTERM cancel the context: the grid stops within one
	// engine round, and a checkpointed sweep keeps every cell it finished.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
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

	out := output{w: stdout, enc: json.NewEncoder(stdout), json: *jsonOut, replicated: *replicates > 1,
		banner: fmt.Sprintf("sweep: n=%d Δ=%d rounds=%d adversary=%s T=%d", *n, *delta, *rounds, *advName, *tee)}
	var cells []neatbound.AggregateCell
	if *checkpointDir != "" {
		req, err := neatbound.SweepRequest(grid, opts...)
		if err != nil {
			return err
		}
		if cells, err = runCheckpointed(ctx, *checkpointDir, req, *workers, stderr); err != nil {
			return err
		}
	} else {
		opts = append(opts, neatbound.WithWorkers(*workers))
		if out.json || out.replicated {
			// Print each cell as it finishes, while the rest of the grid
			// is still running.
			out.header()
			var emitErr error
			opts = append(opts, neatbound.WithCellObserver(func(cell neatbound.AggregateCell) {
				if emitErr == nil {
					emitErr = out.cell(cell)
				}
			}))
			if _, err := neatbound.RunSweep(ctx, grid, opts...); err != nil {
				return err
			}
			return emitErr
		}
		if cells, err = neatbound.RunSweep(ctx, grid, opts...); err != nil {
			return err
		}
	}
	out.header()
	for _, cell := range cells {
		if err := out.cell(cell); err != nil {
			return err
		}
	}
	return nil
}

// runCheckpointed runs the sweep through an in-process sweep service
// over the cell store in dir — sweepd's resolve path: cells already in
// the store are served from it, only the missing ones are computed, and
// each computed cell is committed as it lands. It returns the grid in
// ν-major order once every cell is resolved, and reports on stderr
// where the cells came from.
func runCheckpointed(ctx context.Context, dir string, req neatbound.SweepJobRequest, workers int, stderr io.Writer) ([]neatbound.AggregateCell, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if stats := st.Stats(); stats.TailDropped {
		fmt.Fprintf(stderr, "sweep: checkpoint %s: dropped a torn tail record from an interrupted run (%d cells intact)\n", dir, stats.Cells)
	}
	svc, err := sweepsvc.New(sweepsvc.Options{Store: st, Workers: workers})
	if err != nil {
		return nil, err
	}
	// Closing the service cancels the job if ctx ended the wait; the
	// cells it finished stay in the store for the next run.
	defer svc.Close()
	job, err := svc.Submit(req)
	if err != nil {
		return nil, err
	}
	if err := svc.Watch(ctx, job.ID, func(sweepsvc.Event) error { return nil }); err != nil {
		return nil, err
	}
	status, _ := svc.Status(job.ID)
	result, err := svc.Result(job.ID)
	if err != nil {
		return nil, fmt.Errorf("%w: %s", err, status.Error)
	}
	fmt.Fprintf(stderr, "sweep: checkpoint %s: %d cells served from the store, %d computed\n",
		dir, status.CellsCached, status.CellsComputed)
	return neatbound.UnmarshalCells(bytes.NewReader(result))
}

// output prints cells in the layout the flags select: interchange
// lines with -json, the replicate table with -replicates > 1, the
// single-run table otherwise.
type output struct {
	w                io.Writer
	enc              *json.Encoder
	json, replicated bool
	banner           string
}

func (o output) header() {
	switch {
	case o.json:
	case o.replicated:
		fmt.Fprintf(o.w, "%-7s %-8s %-5s %-7s %-19s %-13s %s\n",
			"nu", "c", "reps", "viols", "P(viol) 95%", "margin(mean)", "max-fork(mean)")
	default:
		fmt.Fprintf(o.w, "%s\n\n", o.banner)
		fmt.Fprintf(o.w, "%-7s %-8s %-9s %-8s %-11s %-11s %-8s %s\n",
			"nu", "c", "neat-ok", "viols", "C(conv)", "A(adv)", "margin", "max-fork")
	}
}

func (o output) cell(cell neatbound.AggregateCell) error {
	if o.json {
		return neatbound.MarshalCell(o.enc, cell)
	}
	if cell.Err != nil {
		fmt.Fprintf(o.w, "%-7.3g %-8.3g infeasible: %v\n", cell.Nu, cell.C, cell.Err)
		return nil
	}
	if o.replicated {
		fmt.Fprintf(o.w, "%-7.3g %-8.3g %-5d %-7d [%.3f, %.3f]      %-13.1f %.1f\n",
			cell.Nu, cell.C, cell.Replicates, cell.ViolationRuns,
			cell.ViolationRateLo, cell.ViolationRateHi,
			cell.Margin.Mean, cell.MaxForkDepth.Mean)
		return nil
	}
	neat, err := neatbound.NeatBoundC(cell.Nu)
	if err != nil {
		return err
	}
	// A single replicate's aggregate: each mean IS that replicate's
	// integer count.
	fmt.Fprintf(o.w, "%-7.3g %-8.3g %-9v %-8.0f %-11.0f %-11.0f %-8.0f %.0f\n",
		cell.Nu, cell.C, cell.C > neat, cell.Violations.Mean,
		cell.Convergence.Mean, cell.Adversary.Mean, cell.Margin.Mean, cell.MaxForkDepth.Mean)
	return nil
}

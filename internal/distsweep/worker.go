package distsweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"neatbound/internal/pool"
	"neatbound/internal/sweep"
)

// WorkerOptions tunes ServeWorker.
type WorkerOptions struct {
	// Pool is the persistent worker pool shard engines and checkers run
	// on; nil shares the process-wide default.
	Pool *pool.Pool
	// Workers bounds each shard's (cell × replicate) job-queue
	// parallelism (0 = GOMAXPROCS).
	Workers int
}

// ServeWorker runs the worker side of the shard protocol: it reads one
// shard-spec record per line from r, executes each shard through the
// shared sweep pipeline, streams the shard's cell records to w followed
// by exactly one shard-summary record, and returns nil on EOF.
//
// Shard-fatal problems (a malformed spec, a cancelled context, a failed
// run) are reported in the summary record, not by abandoning the
// stream, so a coordinator can always tell a completed-but-failed shard
// from a dead worker. ServeWorker itself returns non-nil only when the
// transport breaks: an unparseable request line, a write error on w, or
// ctx cancellation (checked between shards and, through the engine,
// between rounds within a shard).
func ServeWorker(ctx context.Context, r io.Reader, w io.Writer, opts WorkerOptions) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	enc := json.NewEncoder(w)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var req requestRecord
		if err := json.Unmarshal(line, &req); err != nil {
			return fmt.Errorf("distsweep: bad request line: %w", err)
		}
		if req.Spec == nil {
			return fmt.Errorf("distsweep: request line is not a shard_spec record: %s", line)
		}
		sum := runShard(ctx, *req.Spec, opts, enc)
		if err := enc.Encode(summaryRecord{Summary: &sum}); err != nil {
			return fmt.Errorf("distsweep: write shard summary: %w", err)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("distsweep: read request stream: %w", err)
	}
	return nil
}

// runShard executes one shard and streams its cell records, returning
// the terminating summary. A full-replicate-range shard emits one
// aggregate record per cell (sweep.RunGrid); a replicate-range shard
// emits one rep-tagged single-replicate record per (cell, replicate)
// (sweep.RunEach). Both paths shift seeds into the parent grid's frame
// via CellOffset/RepOffset, so the records are exactly what the parent's
// single-process run would have computed for this slice.
func runShard(ctx context.Context, spec ShardSpec, opts WorkerOptions, enc *json.Encoder) ShardSummary {
	sum := ShardSummary{V: SpecVersion, Shard: spec.Shard}
	fail := func(err error) ShardSummary {
		sum.Error = err.Error()
		return sum
	}
	// failPerm marks a failure no retry can fix: the spec itself is
	// unacceptable (validation, version, adversary name), so the
	// coordinator should fail fast instead of spending its retry budget.
	failPerm := func(err error) ShardSummary {
		sum.Permanent = true
		return fail(err)
	}
	if err := spec.validate(); err != nil {
		return failPerm(err)
	}
	cfg, err := spec.sweepSpec().Config()
	if err != nil {
		return failPerm(err)
	}
	cfg.Workers = opts.Workers
	cfg.Pool = opts.Pool
	cfg.CellOffset = spec.CellOffset + spec.NuOffset*len(spec.CValues)
	cfg.RepOffset = spec.RepLo
	reps := spec.RepHi - spec.RepLo
	// A failed record write means nobody is listening (the coordinator
	// died or gave up on this attempt): abort the shard promptly instead
	// of simulating the rest of it into a dead stream.
	ctx, abort := context.WithCancel(ctx)
	defer abort()
	var emitErr error
	var runErr error
	if spec.fullRange() {
		_, runErr = sweep.RunGrid(ctx, cfg, reps, func(cell sweep.AggregateCell) {
			if emitErr == nil {
				if emitErr = sweep.MarshalCell(enc, cell); emitErr == nil {
					sum.Cells++
				} else {
					abort()
				}
			}
		})
	} else {
		runErr = sweep.RunEach(ctx, cfg, reps, func(_, rep int, rc sweep.AggregateCell) {
			if emitErr == nil {
				if emitErr = sweep.MarshalReplicateCell(enc, spec.RepLo+rep, rc); emitErr == nil {
					sum.Cells++
				} else {
					abort()
				}
			}
		})
	}
	if emitErr != nil {
		// Takes precedence over runErr: a failed emit aborts the run, so
		// runErr would just echo the self-inflicted cancellation.
		return fail(emitErr)
	}
	if runErr != nil {
		return fail(runErr)
	}
	return sum
}

package neatbound

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"neatbound/internal/distsweep"
	"neatbound/internal/sweep"
)

// This file is the distributed face of the sweep pipeline: RunSweepDistributed
// partitions a (ν × c) grid into shard specs, dispatches them to workers
// through a ShardExecutor, and reassembles the returned JSONL cell
// streams (docs/interchange.md) into the same ν-major grid RunSweep
// computes — bit for bit, for any partitioning. cmd/sweep's
// -coordinator/-worker modes are thin wrappers over these entry points.

// ShardExecutor launches the workers a distributed sweep dispatches
// shards to. NewInProcessExecutor and NewSubprocessExecutor cover local
// use; implement the interface to run workers somewhere else (ssh,
// kubernetes, a job queue) — each worker just needs the shard protocol
// on a byte stream pair.
type ShardExecutor = distsweep.Executor

// WorkerConn is one live worker from a ShardExecutor's point of view:
// shard-spec lines down In, cell/summary records back on Out.
type WorkerConn = distsweep.WorkerConn

// SweepProgress is the coordinator's report after every committed or
// failed shard.
type SweepProgress = distsweep.Progress

// SweepProgress.Reason values: how the coordinator classifies a shard
// event — a commit replayed from the checkpoint journal, or the cause
// of a reassignment (docs/faults.md).
const (
	ShardResumed = distsweep.ReasonResumed
	ShardStall   = distsweep.ReasonStall
	ShardLaunch  = distsweep.ReasonLaunch
	ShardError   = distsweep.ReasonError
)

// NewInProcessExecutor runs workers as goroutines inside this process,
// wired through in-memory pipes — the full shard protocol without
// subprocesses. jobWorkers bounds each worker's (cell × replicate)
// job-queue parallelism; 0 means GOMAXPROCS, so when launching several
// workers prefer dividing the budget (GOMAXPROCS / worker count), which
// is what RunSweepDistributed's default executor does.
func NewInProcessExecutor(jobWorkers int) ShardExecutor {
	return distsweep.InProcess{Opts: distsweep.WorkerOptions{Workers: jobWorkers}}
}

// NewSubprocessExecutor runs each worker as a local subprocess speaking
// the shard protocol on its stdin/stdout: path is the worker binary
// (empty means the current executable) and args must put it in worker
// mode — for the sweep CLI, NewSubprocessExecutor("", "-worker") from
// inside that binary. Cancelling the sweep's ctx kills outstanding
// workers.
func NewSubprocessExecutor(path string, args ...string) ShardExecutor {
	return distsweep.Subprocess{Path: path, Args: args}
}

// ServeSweepWorker runs the worker side of the shard protocol — what
// cmd/sweep -worker executes: read shard-spec lines from r, stream each
// shard's cell records and summary to w, return on EOF. jobWorkers
// bounds this worker's (cell × replicate) job-queue parallelism (0 =
// GOMAXPROCS; a coordinator running several workers on one host should
// divide the budget between them). Shard failures travel in summary
// records; ServeSweepWorker errors only when the transport itself
// breaks or ctx is cancelled.
func ServeSweepWorker(ctx context.Context, r io.Reader, w io.Writer, jobWorkers int) error {
	return distsweep.ServeWorker(ctx, r, w, distsweep.WorkerOptions{Workers: jobWorkers})
}

// SweepShards reports how many shards RunSweepDistributed will cut the
// grid into for the given replicate count, worker count, and target
// shard count (0 = one per worker) — handy for sizing a worker fleet:
// the coordinator never uses more workers than shards, so launching (or
// budgeting for) more wastes them.
func SweepShards(grid SweepGrid, replicates, workers, targetShards int) int {
	if replicates < 1 {
		replicates = 1
	}
	target := targetShards
	if target == 0 {
		target = workers
	}
	return distsweep.PartitionSize(distsweep.Sweep{Spec: sweep.Spec{Grid: grid, Replicates: replicates}}, target)
}

// WithExecutor sets the worker launcher for RunSweepDistributed; the
// default runs workers in-process. RunSweepDistributed only.
func WithExecutor(ex ShardExecutor) Option {
	return Option{name: "WithExecutor", scope: scopeDist,
		apply: func(o *runOptions) { o.executor = ex }}
}

// WithTargetShards sets how many shards the grid is partitioned into
// (0, the default, means one per worker). More shards than workers
// gives finer-grained retry and rebalancing at slightly more protocol
// overhead. RunSweepDistributed only.
func WithTargetShards(n int) Option {
	return Option{name: "WithTargetShards", scope: scopeDist,
		apply: func(o *runOptions) { o.targetShards = n }}
}

// WithShardRetries bounds how often one failed shard is reassigned
// before the sweep gives up (default 2; negative disables retries).
// RunSweepDistributed only.
func WithShardRetries(n int) Option {
	return Option{name: "WithShardRetries", scope: scopeDist,
		apply: func(o *runOptions) { o.shardRetries = n }}
}

// WithSweepProgress reports coordinator progress after every committed
// or failed shard; fn runs serialized on internal goroutines and must
// not block. RunSweepDistributed only.
func WithSweepProgress(fn func(SweepProgress)) Option {
	return Option{name: "WithSweepProgress", scope: scopeDist,
		apply: func(o *runOptions) { o.onSweepProgress = fn }}
}

// WithCheckpointDir makes the sweep durable: every committed shard's
// cell stream is persisted (fsynced before the shard is announced) to a
// shard-checkpoint journal in dir, content-addressed by the sweep's
// semantic key. A sweep killed mid-run can then be continued with
// WithResume against the same directory; docs/faults.md states the full
// contract. RunSweepDistributed only.
func WithCheckpointDir(dir string) Option {
	return Option{name: "WithCheckpointDir", scope: scopeDist,
		apply: func(o *runOptions) { o.checkpointDir = dir }}
}

// WithResume replays the checkpoint journal's committed shards at
// startup and dispatches only the remainder — the reassembled grid is
// byte-identical to a never-interrupted run. The journal must belong to
// this exact sweep (same grid, seed, rounds, adversary, partitioning —
// only throughput knobs may differ); anything else is refused, never
// merged. Requires WithCheckpointDir. RunSweepDistributed only.
func WithResume() Option {
	return Option{name: "WithResume", scope: scopeDist,
		apply: func(o *runOptions) { o.resume = true }}
}

// WithStallTimeout declares an in-flight shard attempt failed when its
// worker makes no record progress for d (wall clock; 0, the default,
// disables stall detection). The attempt is torn down and requeued under
// the retry budget, so one hung worker cannot wedge the sweep.
// RunSweepDistributed only.
func WithStallTimeout(d time.Duration) Option {
	return Option{name: "WithStallTimeout", scope: scopeDist,
		apply: func(o *runOptions) { o.stallTimeout = d }}
}

// WithRespawnBackoff sets the base delay before relaunching a worker
// after a failure; consecutive failures on one worker slot back off
// exponentially with jitter (0, the default, disables backoff). The
// backoff clock is wall time, outside every simulation RNG stream.
// RunSweepDistributed only.
func WithRespawnBackoff(base time.Duration) Option {
	return Option{name: "WithRespawnBackoff", scope: scopeDist,
		apply: func(o *runOptions) { o.respawnBackoff = base }}
}

// RunSweepDistributed executes a (ν × c) grid by partitioning it across
// workers — RunSweep's cross-process sibling. The grid is cut into
// shard specs (contiguous ν-slices, then replicate ranges), dispatched
// to WithWorkers workers launched by the executor, and the returned
// cell streams are reassembled into the exact ν-major grid RunSweep
// would produce on the same inputs: bit-identical for any partitioning,
// because replicate-split cells are refolded in global replicate order
// through the same Welford fold the in-process aggregation uses. A
// shard whose worker dies or errors is discarded wholesale and
// reassigned (WithShardRetries), so no cell is ever double-counted.
//
// The sweep travels as data (shard specs name the adversary), so the
// strategy must be set with WithAdversaryName; WithAdversaryFactory
// cannot cross a process boundary and is rejected. WithWorkers sets the
// worker count (default GOMAXPROCS); WithCellObserver streams each cell
// exactly once as it is fully committed, in completion order.
//
// Cancelling ctx tears the fleet down — subprocess workers are killed,
// in-process workers stop within one engine round — and returns the
// cells committed so far with ctx.Err().
func RunSweepDistributed(ctx context.Context, grid SweepGrid, opts ...Option) ([]AggregateCell, error) {
	o, err := applyOptions(scopeDist, "RunSweepDistributed", opts)
	if err != nil {
		return nil, err
	}
	workers := o.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	dopts := distsweep.Options{
		Workers:        workers,
		Shards:         o.targetShards,
		Retries:        o.shardRetries,
		Executor:       o.executor,
		StallTimeout:   o.stallTimeout,
		RespawnBackoff: o.respawnBackoff,
		OnProgress:     o.onSweepProgress,
		OnCell:         o.onCell,
	}
	if o.resume && o.checkpointDir == "" {
		return nil, fmt.Errorf("neatbound: WithResume requires WithCheckpointDir")
	}
	if o.checkpointDir != "" {
		cp, err := distsweep.OpenCheckpoint(o.checkpointDir)
		if err != nil {
			return nil, err
		}
		defer cp.Close()
		dopts.Checkpoint = cp
		dopts.Resume = o.resume
	}
	return distsweep.Run(ctx, distsweep.Sweep{Spec: o.spec(grid)}, dopts)
}

// Package distsweep is the cross-process sweep driver: a coordinator
// that partitions a (ν × c × replicates) sweep into shard specs,
// dispatches them to workers over a line-oriented JSON protocol, and
// reassembles the returned cell streams into the one ν-major grid the
// single-process sweep would have produced — bit for bit, for any
// partitioning.
//
// The protocol is three record kinds, all JSONL, all specified
// field-by-field in docs/interchange.md:
//
//   - shard-spec records flow coordinator → worker, one per shard: a
//     contiguous slice of the parent grid's NuValues (every CValue)
//     times a global replicate range, plus everything needed to rerun
//     it (rounds, seed, chop T, adversary name, engine shards).
//   - cell records flow back: the sweep package's AggregateCell
//     interchange. A shard covering its cells' full replicate range
//     emits one aggregate per cell; a replicate-range shard emits one
//     rep-tagged single-replicate record per (cell, replicate), which
//     the coordinator refolds in global replicate order through
//     sweep.AggregateReplicates — the same index-ordered Welford fold
//     the in-process aggregation uses, which is what makes the merged
//     grid bit-identical rather than merely statistically equivalent.
//   - one shard-summary record terminates each shard's stream, carrying
//     the record count (framing check) and any shard-fatal error.
//
// # Fault tolerance
//
// A shard's records are buffered by the coordinator and committed only
// when its summary arrives clean; a worker that dies mid-stream, errors,
// or miscounts forfeits the whole attempt, and the shard is requeued for
// another (or a respawned) worker, up to a retry bound. Double counting
// is therefore impossible by construction: every (cell, replicate) is
// committed exactly once.
//
// # Concurrency and ownership
//
// Run owns everything it creates: one goroutine per worker drives that
// worker's connection (specs down, records up — connections are never
// shared between goroutines), and commits are serialized by an internal
// mutex. OnProgress and OnCell callbacks run on those internal
// goroutines, one call at a time, and must not block. Executors must be
// safe for concurrent Start calls. Cancelling ctx tears the fleet down:
// subprocess workers are killed (exec.CommandContext), in-process
// workers see the context and stop within one engine round, and Run
// returns the cells committed so far with ctx.Err().
package distsweep

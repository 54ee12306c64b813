package distsweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"neatbound/internal/store"
	"neatbound/internal/sweep"
)

// checkpointVersion is the shard-checkpoint record framing version; the
// interchange's add-only field rule applies within it.
const checkpointVersion = 1

// checkpointLog is the shard-checkpoint journal inside the checkpoint
// directory.
const checkpointLog = "shards.log"

// cpCastagnoli is the CRC-32C table checkpoint checksums use (the same
// polynomial as the cell store's).
var cpCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// checkpointRecord is the on-disk line form: one committed shard — its
// full cell-record stream in emission order, raw interchange bytes —
// bound to the sweep it belongs to by the sweep key and guarded by a
// checksum over everything. Fields are add-only (docs/faults.md).
type checkpointRecord struct {
	V     int               `json:"v"`
	Sweep string            `json:"sweep"`
	Shard int               `json:"shard"`
	Sum   string            `json:"sum"`
	Cells []json.RawMessage `json:"cells"`
}

// checkpointSum is the record checksum: CRC-32C over
// "<sweep key>\n<shard>\n" followed by every cell line + '\n'.
func checkpointSum(key string, shard int, cells []json.RawMessage) string {
	h := crc32.New(cpCastagnoli)
	fmt.Fprintf(h, "%s\n%d\n", key, shard)
	for _, c := range cells {
		h.Write(c)
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%08x", h.Sum32())
}

// SweepKey content-addresses a (sweep, partitioning) pair: the hex
// SHA-256 of the engine-semantics version (sweep.EngineVersion) plus
// the canonical JSON of every shard spec with its sweep.Tuning zeroed —
// tuning never changes results, so a resumed run may retune it freely,
// while any semantic difference (grid values, seed, the sweep.Semantics
// half, replicate ranges, partition layout) changes the key. A
// checkpoint journal only ever accepts shards for one key, which is what
// lets Resume refuse a changed grid instead of silently merging
// incompatible results.
func SweepKey(specs []ShardSpec) string {
	h := sha256.New()
	fmt.Fprintf(h, "engine_version=%d\n", sweep.EngineVersion)
	enc := json.NewEncoder(h)
	for _, sp := range specs {
		sp.Tuning = sweep.Tuning{}
		if err := enc.Encode(sp); err != nil {
			// Unreachable: ShardSpec contains only marshalable scalars
			// and slices.
			panic(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Checkpoint is the coordinator's durable shard-checkpoint journal: a
// directory holding one append-only log ("shards.log", a store.Journal)
// with one record per committed shard — the shard's complete cell
// stream, content-addressed by the sweep key (SweepKey, which includes
// the engine-semantics version). Options.Checkpoint makes a coordinator
// persist every shard there before announcing it committed
// (fsync-before-announce, the cell store's discipline), and
// Options.Resume replays the journal at startup so only the remaining
// shards are dispatched — the reassembled grid stays byte-identical to
// a never-interrupted run, because replayed records re-enter the exact
// commit fold live records use.
//
// A journal belongs to exactly one sweep: the first record fixes the
// key, every later append must match, and opening a coordinator against
// a journal written by a *different* sweep (or the same sweep under a
// changed partitioning) is refused rather than merged. Crash safety is
// the Journal's: a torn tail (the coordinator died mid-append) is
// truncated on open and that shard simply recomputes; mid-file
// corruption fails loudly. docs/faults.md states the full contract.
//
// A Checkpoint is owned by one coordinator at a time; Open/Close it
// around each Run.
type Checkpoint struct {
	j *store.Journal

	mu     sync.Mutex
	key    string // sweep key of every record ("" while empty)
	shards map[int][]json.RawMessage
}

// OpenCheckpoint opens (creating if absent) the shard-checkpoint
// journal in directory dir, replaying and verifying any committed shard
// records. A torn final record — the coordinator crashed mid-append —
// is truncated away (that shard recomputes); a corrupt or
// checksum-mismatched record anywhere else fails loudly.
func OpenCheckpoint(dir string) (*Checkpoint, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("distsweep: create checkpoint dir %s: %w", dir, err)
	}
	cp := &Checkpoint{shards: make(map[int][]json.RawMessage)}
	j, err := store.OpenJournal(filepath.Join(dir, checkpointLog), func(off int64, line []byte) error {
		var rec checkpointRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Sweep == "" || len(rec.Cells) == 0 {
			return store.ErrMalformed
		}
		if rec.V > checkpointVersion {
			return fmt.Errorf("checkpoint record version %d is newer than this coordinator's %d", rec.V, checkpointVersion)
		}
		if got := checkpointSum(rec.Sweep, rec.Shard, rec.Cells); got != rec.Sum {
			return fmt.Errorf("checkpoint record for shard %d fails its checksum (record says %s, payload hashes to %s)", rec.Shard, rec.Sum, got)
		}
		if cp.key == "" {
			cp.key = rec.Sweep
		} else if cp.key != rec.Sweep {
			return fmt.Errorf("checkpoint journal mixes sweeps (%s then %s)", cp.key, rec.Sweep)
		}
		if _, dup := cp.shards[rec.Shard]; !dup {
			// Keep-first, like the cell store: a duplicate can only arise
			// from a crash between append and announce, and both copies
			// passed the same checksum.
			cp.shards[rec.Shard] = rec.Cells
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cp.j = j
	return cp, nil
}

// Shards reports how many committed shards the journal holds.
func (cp *Checkpoint) Shards() int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return len(cp.shards)
}

// TailDropped reports whether opening truncated a torn final record (a
// crash mid-append; that shard will be recomputed).
func (cp *Checkpoint) TailDropped() bool { return cp.j.TailDropped() }

// load binds the journal to one sweep key and returns the committed
// shards to replay, sorted by shard id. An empty journal accepts any
// key. A non-empty journal is refused when its key differs (the sweep
// or its partitioning changed — resuming would silently merge
// incompatible results) and when resume was not requested (a fresh run
// must not silently skip work committed by some earlier sweep; the
// caller asks for Resume explicitly or points at a fresh directory).
func (cp *Checkpoint) load(key string, resume bool, nShards int) (shardIDs []int, cells [][]json.RawMessage, err error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.key == "" {
		cp.key = key
		return nil, nil, nil
	}
	if cp.key != key {
		return nil, nil, fmt.Errorf("distsweep: checkpoint journal holds %d shard(s) of a different sweep (key %s, this run is %s): refusing to merge — resume the original sweep or use a fresh checkpoint directory",
			len(cp.shards), cp.key[:12], key[:12])
	}
	if !resume {
		return nil, nil, fmt.Errorf("distsweep: checkpoint journal already holds %d committed shard(s) for this sweep: pass Resume to continue it, or use a fresh checkpoint directory", len(cp.shards))
	}
	for id := range cp.shards {
		if id < 0 || id >= nShards {
			return nil, nil, fmt.Errorf("distsweep: checkpoint journal holds shard %d outside this sweep's %d shards", id, nShards)
		}
		shardIDs = append(shardIDs, id)
	}
	sort.Ints(shardIDs)
	cells = make([][]json.RawMessage, len(shardIDs))
	for i, id := range shardIDs {
		cells[i] = cp.shards[id]
	}
	return shardIDs, cells, nil
}

// append journals one committed shard — called by the coordinator
// *before* the shard is announced (counted done, reported, its cells
// delivered), so a crash at any point leaves either a resumable record
// or a cleanly recomputable shard, never a half-known one. The append
// is fsynced by the Journal before it returns.
func (cp *Checkpoint) append(key string, shard int, cells []json.RawMessage) error {
	rec := checkpointRecord{
		V:     checkpointVersion,
		Sweep: key,
		Shard: shard,
		Sum:   checkpointSum(key, shard, cells),
		Cells: cells,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("distsweep: encode checkpoint for shard %d: %w", shard, err)
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if cp.key != key {
		return fmt.Errorf("distsweep: checkpoint journal is bound to sweep %s, not %s", cp.key[:12], key[:12])
	}
	if _, dup := cp.shards[shard]; dup {
		return nil
	}
	if _, _, err := cp.j.Append(line); err != nil {
		return fmt.Errorf("distsweep: checkpoint shard %d: %w", shard, err)
	}
	cp.shards[shard] = rec.Cells
	return nil
}

// Close releases the journal; the checkpoint must not be used after.
func (cp *Checkpoint) Close() error { return cp.j.Close() }

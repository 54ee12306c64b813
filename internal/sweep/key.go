package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// EngineVersion is the engine-semantics version: it changes only when a
// code change alters simulation *results* for some configuration (a new
// RNG draw order, a different default resolution, a semantic fix). Every
// bit-identical refactor to date — sharding, pooling, fast-forward,
// compaction — kept it at 1, pinned by the golden-trace suite. The
// constant is stamped into every interchange cell record
// ("engine_version", docs/interchange.md), into BENCH_engine.json
// entries, and into the store's cell content addresses (CellJob), so two
// results are only ever pooled or deduplicated when they came from the
// same semantics.
const EngineVersion = 1

// CellSeed derives the deterministic engine seed of one (cell,
// replicate) job from the sweep's base seed and the cell's parent-frame
// ν-major index. This is the one derivation every execution path uses —
// the in-process job queue, distributed shard workers (shifted via
// CellOffset/RepOffset), and the sweepd store's content addresses — so
// it is exported rather than re-implied elsewhere. The formula matches
// the pre-job-queue runner (replicate offsets the base seed, the 1-based
// cell index XORs in), so historical seeded sweeps reproduce.
func CellSeed(base uint64, cellIdx, rep int) uint64 {
	return (base + uint64(rep)*seedGolden) ^ (uint64(cellIdx+1) * seedGolden)
}

// ResolveSampleEvery resolves a checker snapshot interval the way every
// runner does: values ≤ 0 mean rounds/50, floored at 1. Exported so
// content addressing can key on the resolved value two different
// spellings (0 and rounds/50) of the same computation share.
func ResolveSampleEvery(sampleEvery, rounds int) int {
	if sampleEvery > 0 {
		return sampleEvery
	}
	sampleEvery = rounds / 50
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return sampleEvery
}

// CellJob is the canonical description of one grid cell's computation —
// everything that determines the cell's AggregateCell bit for bit, and
// nothing that does not: the grid point, the cell's Semantics (with
// SampleEvery pre-resolved by ResolveSampleEvery, so 0 and rounds/50
// share an address) and its per-replicate engine seeds, in replicate
// order. Tuning is absent by construction, so requests differing only
// in throughput knobs share one content address. The position of a
// cell inside its parent grid matters only through its seeds, so cells
// from differently-shaped grids coalesce exactly when they would
// compute identical results.
type CellJob struct {
	EngineVersion int     `json:"engine_version"`
	N             int     `json:"n"`
	Delta         int     `json:"delta"`
	Nu            float64 `json:"nu"`
	C             float64 `json:"c"`
	Semantics
	Seeds []uint64 `json:"seeds"`
}

// Key returns the cell's content address: the hex SHA-256 of the job's
// canonical JSON encoding. Canonical means encoding/json over the fixed
// field order above, Semantics' fields encoding in place — uint64 seeds
// encode as exact JSON integers and float64 coordinates round-trip
// exactly, so equal jobs hash equal and any semantic difference (a
// seed, the chop parameter, the engine version) changes the address.
func (j CellJob) Key() string {
	b, err := json.Marshal(j)
	if err != nil {
		// Unreachable: CellJob holds only scalars, slices and the
		// JSON-portable scenario spec.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

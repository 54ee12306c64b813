package distsweep

import (
	"fmt"

	"neatbound/internal/adversary"
	"neatbound/internal/scenario"
	"neatbound/internal/sweep"
)

// SpecVersion is the protocol version stamped on every shard-spec and
// shard-summary record. Per the interchange's versioning rule
// (docs/interchange.md), readers accept records whose v ≤ their own
// SpecVersion and reject newer ones; fields are only ever added, never
// renamed or repurposed, so older records always parse.
const SpecVersion = 1

// Sweep describes the full distributed sweep — the parent grid every
// ShardSpec is cut from. It carries only serializable configuration
// (the adversary travels by name), because shards cross process
// boundaries.
type Sweep struct {
	sweep.Spec
	// CellOffset places this sweep inside a larger parent grid: it is
	// the parent-frame ν-major index of this sweep's cell (0, 0), added
	// to every per-cell seed derivation on top of the shard-local
	// NuOffset shift. Zero for a standalone sweep. It is what lets a
	// caller (sweepd's cache-miss dispatch) run a rectangular slice of a
	// parent grid — a single ν-row span, or whole ν-rows when CValues is
	// the parent's full list — and get exactly the cells the parent's
	// single-process run would have computed.
	CellOffset int
}

// Validate rejects sweeps the coordinator cannot drive. Beyond the
// single-process checks it requires a non-negative chop parameter and
// retention window — a negative t fails every cell, and a negative
// retention runs as 0 but would key as itself, giving one computation
// two content addresses — and distinct (ν, c) pairs: the cell
// interchange keys records by their coordinates, so a grid with
// duplicate coordinates cannot be reassembled unambiguously. Exported
// so front ends (the sweepd service) can reject a bad sweep at
// submission time instead of discovering it when the job runs.
func (s Sweep) Validate() error {
	if s.Rounds < 1 {
		return fmt.Errorf("distsweep: rounds = %d must be ≥ 1", s.Rounds)
	}
	if s.T < 0 {
		return fmt.Errorf("distsweep: t = %d must be ≥ 0", s.T)
	}
	if s.CheckerRetention < 0 {
		return fmt.Errorf("distsweep: checker_retention = %d must be ≥ 0 (0 keeps the whole run)", s.CheckerRetention)
	}
	if len(s.NuValues) == 0 || len(s.CValues) == 0 {
		return fmt.Errorf("distsweep: empty grid (%d ν × %d c)", len(s.NuValues), len(s.CValues))
	}
	if s.Replicates < 1 {
		return fmt.Errorf("distsweep: replicates = %d must be ≥ 1", s.Replicates)
	}
	if s.CellOffset < 0 {
		return fmt.Errorf("distsweep: cell offset = %d must be ≥ 0", s.CellOffset)
	}
	if s.Adversary != "" {
		if _, err := adversary.ByName(s.Adversary, s.ForkDepth); err != nil {
			return fmt.Errorf("distsweep: %w", err)
		}
	}
	if err := s.Scenario.Validate(); err != nil {
		return fmt.Errorf("distsweep: %w", err)
	}
	seen := make(map[cellKey]struct{}, len(s.NuValues)*len(s.CValues))
	for _, nu := range s.NuValues {
		for _, c := range s.CValues {
			k := cellKey{nu, c}
			if _, dup := seen[k]; dup {
				return fmt.Errorf("distsweep: duplicate grid cell (ν=%g, c=%g): the cell interchange keys records by coordinates", nu, c)
			}
			seen[k] = struct{}{}
		}
	}
	return nil
}

// cellKey locates a cell by its grid coordinates — the key the cell
// interchange (and therefore the coordinator's reassembly) uses.
type cellKey struct{ nu, c float64 }

// ShardSpec is the unit of distributed work: a contiguous slice of the
// parent grid's NuValues (paired with every CValue) times a global
// replicate range [RepLo, RepHi). It is self-contained — a worker needs
// nothing but the spec to reproduce exactly the cells and seeds the
// parent's single-process run would have used for this slice.
type ShardSpec struct {
	// V is the protocol version (SpecVersion).
	V int `json:"v"`
	// Shard identifies the shard; stable across retries.
	Shard int `json:"shard"`
	// N and Delta are the parent sweep's shared parameters.
	N     int `json:"n"`
	Delta int `json:"delta"`
	// NuValues is this shard's contiguous slice of the parent NuValues;
	// CValues is the parent's full list.
	NuValues []float64 `json:"nu_values"`
	CValues  []float64 `json:"c_values"`
	// NuOffset is the index of NuValues[0] in the parent grid's
	// NuValues — with CValues it fixes the shard's ν-major cell offset,
	// and with it the per-cell seeds.
	NuOffset int `json:"nu_offset"`
	// Rounds, Seed, T and SampleEvery mirror the parent Sweep, as do
	// Adversary, ForkDepth, CheckerRetention and Scenario below. The
	// field order is frozen: SweepKey hashes this encoding.
	Rounds      int    `json:"rounds"`
	Seed        uint64 `json:"seed"`
	T           int    `json:"t"`
	SampleEvery int    `json:"sample_every,omitempty"`
	// Replicates is the parent's total replicate count; RepLo/RepHi is
	// this shard's global replicate range [lo, hi). A shard covering
	// [0, Replicates) emits per-cell aggregates; a narrower shard emits
	// rep-tagged single-replicate records.
	Replicates int `json:"replicates"`
	RepLo      int `json:"rep_lo"`
	RepHi      int `json:"rep_hi"`
	// Adversary and ForkDepth name the per-cell strategy.
	Adversary string `json:"adversary,omitempty"`
	ForkDepth int    `json:"fork_depth,omitempty"`
	// Tuning is the parent's throughput knobs, encoded in place. The
	// compaction knobs and CheckerRetention were added under the
	// interchange's add-only rule: absent fields decode to 0 = off, so
	// v1 specs from older coordinators run unchanged.
	sweep.Tuning
	CheckerRetention int `json:"checker_retention,omitempty"`
	// CellOffset mirrors Sweep.CellOffset (add-only; absent = 0 = a
	// standalone grid): the parent-frame ν-major index of the *sweep's*
	// cell (0, 0), applied on top of the shard's own NuOffset shift when
	// the worker derives per-cell seeds.
	CellOffset int `json:"cell_offset,omitempty"`
	// Scenario was added under the add-only rule too: absent = nil = the
	// default model, so old wire bytes stay byte-identical.
	Scenario *scenario.Spec `json:"scenario,omitempty"`
}

// fullRange reports whether the shard covers its cells' entire
// replicate range (and so emits aggregates rather than per-replicate
// records).
func (sp ShardSpec) fullRange() bool { return sp.RepLo == 0 && sp.RepHi == sp.Replicates }

// expectedRecords is the exact number of cell records a clean run of the
// shard emits — the coordinator's framing check.
func (sp ShardSpec) expectedRecords() int {
	cells := len(sp.NuValues) * len(sp.CValues)
	if sp.fullRange() {
		return cells
	}
	return cells * (sp.RepHi - sp.RepLo)
}

// sweepSpec gathers the shard's slice back into the serializable sweep
// form (Partition is the inverse); placement stays on the ShardSpec.
func (sp ShardSpec) sweepSpec() sweep.Spec {
	return sweep.Spec{
		Grid:       sweep.Grid{N: sp.N, Delta: sp.Delta, NuValues: sp.NuValues, CValues: sp.CValues},
		Seed:       sp.Seed,
		Replicates: sp.Replicates,
		Semantics: sweep.Semantics{
			Rounds:           sp.Rounds,
			T:                sp.T,
			SampleEvery:      sp.SampleEvery,
			Adversary:        sp.Adversary,
			ForkDepth:        sp.ForkDepth,
			CheckerRetention: sp.CheckerRetention,
			Scenario:         sp.Scenario,
		},
		Tuning: sp.Tuning,
	}
}

// validate rejects malformed specs on the worker side (a coordinator
// never produces these; hand-written specs might).
func (sp ShardSpec) validate() error {
	if sp.V > SpecVersion {
		return fmt.Errorf("distsweep: shard spec version %d is newer than this worker's %d", sp.V, SpecVersion)
	}
	if sp.Rounds < 1 {
		return fmt.Errorf("distsweep: shard %d: rounds = %d must be ≥ 1", sp.Shard, sp.Rounds)
	}
	if len(sp.NuValues) == 0 || len(sp.CValues) == 0 {
		return fmt.Errorf("distsweep: shard %d: empty grid slice", sp.Shard)
	}
	if sp.NuOffset < 0 {
		return fmt.Errorf("distsweep: shard %d: nu_offset = %d must be ≥ 0", sp.Shard, sp.NuOffset)
	}
	if sp.CellOffset < 0 {
		return fmt.Errorf("distsweep: shard %d: cell_offset = %d must be ≥ 0", sp.Shard, sp.CellOffset)
	}
	if sp.RepLo < 0 || sp.RepHi <= sp.RepLo || sp.RepHi > sp.Replicates {
		return fmt.Errorf("distsweep: shard %d: replicate range [%d, %d) invalid for %d replicates",
			sp.Shard, sp.RepLo, sp.RepHi, sp.Replicates)
	}
	if err := sp.Scenario.Validate(); err != nil {
		return fmt.Errorf("distsweep: shard %d: %w", sp.Shard, err)
	}
	return nil
}

// ShardSummary is the record terminating every shard's cell stream: the
// framing check (Cells must equal the records emitted) plus any
// shard-fatal error. A summary with a non-empty Error voids the
// attempt's cell records — the coordinator discards them and requeues
// the shard.
type ShardSummary struct {
	// V is the protocol version (SpecVersion).
	V int `json:"v"`
	// Shard echoes the spec's shard id.
	Shard int `json:"shard"`
	// Cells counts the cell records emitted before this summary.
	Cells int `json:"cells"`
	// Error is the shard-fatal error ("" on success). Per-cell errors
	// (an infeasible parameterization, say) travel in the cell records
	// themselves and do not fail the shard.
	Error string `json:"error,omitempty"`
	// Permanent marks an Error no retry can fix — the worker understood
	// the spec and rejected it (validation failure, unknown adversary
	// name, a spec version newer than the worker). The coordinator fails
	// the sweep immediately instead of burning its retry budget. Added
	// under the interchange's add-only rule: absent decodes to false, so
	// older workers' failures simply stay retryable.
	Permanent bool `json:"permanent,omitempty"`
}

// requestRecord frames a shard spec on the coordinator → worker stream.
type requestRecord struct {
	Spec *ShardSpec `json:"shard_spec"`
}

// summaryRecord frames a shard summary on the worker → coordinator
// stream; its top-level key is what distinguishes it from cell records.
type summaryRecord struct {
	Summary *ShardSummary `json:"shard_summary"`
}

// partitionDims resolves how Partition cuts the grid: into nuSlices
// contiguous ν-slices, each split into repSplits replicate ranges.
func partitionDims(s Sweep, shards int) (nuSlices, repSplits int) {
	if shards < 1 {
		shards = 1
	}
	nNu := len(s.NuValues)
	nuSlices = shards
	if nuSlices > nNu {
		nuSlices = nNu
	}
	repSplits = 1
	if shards > nNu && s.Replicates > 1 {
		repSplits = (shards + nNu - 1) / nNu
		if repSplits > s.Replicates {
			repSplits = s.Replicates
		}
	}
	return nuSlices, repSplits
}

// PartitionSize reports how many shards Partition(s, shards) produces,
// without building them — what a caller sizing a worker fleet needs:
// launching more workers than shards wastes them.
func PartitionSize(s Sweep, shards int) int {
	nuSlices, repSplits := partitionDims(s, shards)
	return nuSlices * repSplits
}

// Partition cuts the sweep into roughly `shards` ShardSpecs: first by
// contiguous NuValues slices (each paired with every CValue), then —
// when more shards are wanted than there are ν-rows — by replicate
// ranges (rounding may then yield slightly more shards than asked). The
// result is deterministic, covers every (cell, replicate) exactly once,
// and never splits below one (ν-row, replicate).
func Partition(s Sweep, shards int) []ShardSpec {
	nuSlices, repSplits := partitionDims(s, shards)
	nNu := len(s.NuValues)
	specs := make([]ShardSpec, 0, nuSlices*repSplits)
	id := 0
	for i := 0; i < nuSlices; i++ {
		nuLo := i * nNu / nuSlices
		nuHi := (i + 1) * nNu / nuSlices
		for j := 0; j < repSplits; j++ {
			repLo := j * s.Replicates / repSplits
			repHi := (j + 1) * s.Replicates / repSplits
			specs = append(specs, ShardSpec{
				V:                SpecVersion,
				Shard:            id,
				N:                s.N,
				Delta:            s.Delta,
				NuValues:         s.NuValues[nuLo:nuHi],
				CValues:          s.CValues,
				NuOffset:         nuLo,
				Rounds:           s.Rounds,
				Seed:             s.Seed,
				T:                s.T,
				SampleEvery:      s.SampleEvery,
				Replicates:       s.Replicates,
				RepLo:            repLo,
				RepHi:            repHi,
				Adversary:        s.Adversary,
				ForkDepth:        s.ForkDepth,
				Tuning:           s.Tuning,
				CheckerRetention: s.CheckerRetention,
				CellOffset:       s.CellOffset,
				Scenario:         s.Scenario,
			})
			id++
		}
	}
	return specs
}

package sweep

import (
	"context"
	"math"
	"testing"
)

// TestRunReplicatedStreamMatchesBatch asserts the streamed cells are the
// very cells the batch API returns — same values, one callback per grid
// point — and that a worker-pool re-run is bit-identical (the per-cell
// fold is replicate-ordered, independent of completion order).
func TestRunReplicatedStreamMatchesBatch(t *testing.T) {
	cfg := Config{
		N: 20, Delta: 2,
		NuValues: []float64{0.2, 0.3}, CValues: []float64{2, 5, 10},
		Rounds: 800, Seed: 5, T: 4, Workers: 3,
	}
	const reps = 3
	var streamed []AggregateCell
	got, err := RunGrid(context.Background(), cfg, reps, func(cell AggregateCell) {
		streamed = append(streamed, cell)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(got) {
		t.Fatalf("streamed %d cells, returned %d", len(streamed), len(got))
	}
	batch, err := RunGrid(context.Background(), cfg, reps, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := func(c AggregateCell) [2]float64 { return [2]float64{c.Nu, c.C} }
	byKey := map[[2]float64]AggregateCell{}
	for _, c := range streamed {
		byKey[key(c)] = c
	}
	for i, want := range batch {
		if got[i] != byKey[key(want)] {
			t.Fatalf("cell (ν=%g, c=%g): streamed copy differs from returned slice", want.Nu, want.C)
		}
		if got[i].Nu != want.Nu || got[i].C != want.C ||
			got[i].ViolationRuns != want.ViolationRuns ||
			got[i].Replicates != want.Replicates ||
			math.Float64bits(got[i].Margin.Mean) != math.Float64bits(want.Margin.Mean) ||
			math.Float64bits(got[i].Convergence.Std) != math.Float64bits(want.Convergence.Std) {
			t.Fatalf("cell %d not bit-identical across runs:\n%+v\n%+v", i, got[i], want)
		}
	}
}

// TestRunReplicatedShardedEngines asserts a sweep whose cell engines run
// sharded produces the same aggregates as serial cell engines — the
// engine-level determinism contract surfacing at the grid level.
func TestRunReplicatedShardedEngines(t *testing.T) {
	base := Config{
		N: 24, Delta: 2,
		NuValues: []float64{0.25}, CValues: []float64{2, 8},
		Rounds: 1500, Seed: 7, T: 4, Workers: 2,
	}
	serial, err := RunGrid(context.Background(), base, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	shardedCfg := base
	shardedCfg.EngineShards = 3
	sharded, err := RunGrid(context.Background(), shardedCfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != sharded[i] {
			t.Fatalf("cell %d: sharded cell engines diverged:\nserial  %+v\nsharded %+v", i, serial[i], sharded[i])
		}
	}
}

// TestRunDefaultWorkers exercises the Workers=0 (GOMAXPROCS) default.
func TestRunDefaultWorkers(t *testing.T) {
	cells, err := runOnce(Config{
		N: 20, Delta: 2,
		NuValues: []float64{0.2}, CValues: []float64{5},
		Rounds: 200, Seed: 1, T: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Err != nil {
		t.Fatalf("cells: %+v", cells)
	}
}

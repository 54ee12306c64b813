package sweep

import (
	"testing"
)

// TestSweepSharedPoolParity pins that running a grid's cells on three
// concurrent workers reproduces the one-worker grid cell for cell, with
// the ignored EngineShards set on the concurrent side. Sampling every
// other round gives every cell's consistency scans real work, and under
// the race detector it checks that concurrent cells share no checker
// state.
func TestSweepSharedPoolParity(t *testing.T) {
	base := Config{
		N:           24,
		Delta:       2,
		NuValues:    []float64{0.15, 0.3},
		CValues:     []float64{2, 6},
		Rounds:      600,
		SampleEvery: 2,
		Seed:        11,
		T:           4,
		Workers:     1,
	}
	serial, err := runOnce(base)
	if err != nil {
		t.Fatal(err)
	}
	shared := base
	shared.Workers = 3
	shared.EngineShards = 3
	got, err := runOnce(shared)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(serial) {
		t.Fatalf("%d cells vs %d", len(got), len(serial))
	}
	for i := range serial {
		a, b := serial[i], got[i]
		if a.Err != nil || b.Err != nil {
			t.Fatalf("cell %d errored: serial %v, pooled %v", i, a.Err, b.Err)
		}
		if a.Nu != b.Nu || a.C != b.C ||
			a.Violations != b.Violations ||
			a.MaxForkDepth != b.MaxForkDepth ||
			a.Ledger != b.Ledger ||
			a.MainChainShare != b.MainChainShare {
			t.Fatalf("cell %d diverged:\nserial %+v\npooled %+v", i, a, b)
		}
	}
}

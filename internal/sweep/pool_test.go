package sweep

import (
	"testing"

	"neatbound/internal/pool"
)

// TestSweepSharedPoolParity pins that running a grid's cells sharded on
// one injected shared pool — concurrent cell engines and checkers
// taking turns on the same workers — reproduces the serial-cell grid
// cell for cell. It also exercises pool reuse across sweep cells under
// the race detector.
func TestSweepSharedPoolParity(t *testing.T) {
	base := Config{
		N:        24,
		Delta:    2,
		NuValues: []float64{0.15, 0.3},
		CValues:  []float64{2, 6},
		Rounds:   600,
		Seed:     11,
		T:        4,
		Workers:  3,
	}
	serial, err := runOnce(base)
	if err != nil {
		t.Fatal(err)
	}
	shared := pool.New(2)
	defer shared.Close()
	pooled := base
	pooled.EngineShards = 3
	pooled.Pool = shared
	got, err := runOnce(pooled)
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

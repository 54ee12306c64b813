package engine

import (
	"testing"

	"neatbound/internal/params"
	"neatbound/internal/pool"
)

// TestPooledDeliveryParityShort is the tier-1 gate's quick pooled-parity
// check (it runs in -short mode): one shared pool drives consecutive
// RunContext executions at several shard counts, and every sharded run
// must reproduce the serial run's records, final tips, and tree — with
// the pool reused across engines, not rebuilt.
func TestPooledDeliveryParityShort(t *testing.T) {
	shared := pool.New(3)
	defer shared.Close()
	run := func(shards int) (*Result, error) {
		e, err := New(Config{
			Params: params.Params{N: 60, P: 0.004, Delta: 4, Nu: 0.3},
			Rounds: 400,
			Seed:   23,
			Shards: shards,
			Pool:   shared,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e.Run()
	}
	serial, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4, 7} {
		sharded, err := run(shards)
		if err != nil {
			t.Fatal(err)
		}
		if len(serial.Records) != len(sharded.Records) {
			t.Fatalf("P=%d: %d records vs serial %d", shards, len(sharded.Records), len(serial.Records))
		}
		for i := range serial.Records {
			if serial.Records[i] != sharded.Records[i] {
				t.Fatalf("P=%d round %d diverged:\nserial  %+v\npooled  %+v",
					shards, i+1, serial.Records[i], sharded.Records[i])
			}
		}
		for i := range serial.FinalTips {
			if serial.FinalTips[i] != sharded.FinalTips[i] {
				t.Fatalf("P=%d: final tip of player %d: %d vs %d", shards, i, sharded.FinalTips[i], serial.FinalTips[i])
			}
		}
		if serial.Tree.Len() != sharded.Tree.Len() || serial.Tree.Best() != sharded.Tree.Best() {
			t.Fatalf("P=%d: trees diverged", shards)
		}
	}
}

// TestEnginePoolReuseAcrossRuns reruns one sharded config many times on
// the same injected pool — the sweep's per-cell usage pattern — and
// checks every run is bit-identical to the first (the barrier leaves no
// state behind between owners).
func TestEnginePoolReuseAcrossRuns(t *testing.T) {
	shared := pool.New(2)
	defer shared.Close()
	var first *Result
	for k := 0; k < 6; k++ {
		e, err := New(Config{
			Params: params.Params{N: 30, P: 0.01, Delta: 3, Nu: 0.25},
			Rounds: 300,
			Seed:   5,
			Shards: 3,
			Pool:   shared,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		for i := range first.Records {
			if first.Records[i] != res.Records[i] {
				t.Fatalf("rerun %d diverged at round %d", k, i+1)
			}
		}
	}
}

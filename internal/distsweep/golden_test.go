package distsweep

import (
	"bytes"
	"encoding/json"
	"testing"

	"neatbound/internal/scenario"
	"neatbound/internal/sweep"
)

// pinSweep sets every Sweep field away from its zero value, so the pins
// below cover each one's wire spelling and position.
func pinSweep(scn *scenario.Spec) Sweep {
	return Sweep{Spec: sweep.Spec{
		Grid:       sweep.Grid{N: 8, Delta: 2, NuValues: []float64{0.1, 0.2, 0.3}, CValues: []float64{1, 4}},
		Seed:       7,
		Replicates: 3,
		Semantics: sweep.Semantics{
			Rounds: 120, T: 2, SampleEvery: 5, Adversary: "private", ForkDepth: 2,
			CheckerRetention: 4, Scenario: scn,
		},
		Tuning: sweep.Tuning{EngineShards: 2, FastForward: true, CompactEvery: 50, CompactMinRetire: 8},
	}, CellOffset: 6}
}

// TestSweepKeyGolden pins absolute sweep-key bytes: checkpoint journals
// on disk are bound to these hashes, so a refactor of ShardSpec's
// declaration must leave every one unchanged.
func TestSweepKeyGolden(t *testing.T) {
	scn := &scenario.Spec{Name: "stochastic-delay", Delay: &scenario.DelaySpec{Kind: "iid", Seed: 0x10d}}
	cases := []struct {
		name string
		s    Sweep
		want string
	}{
		{"default-model", pinSweep(nil), "ed11ae7ed89fbe88025ae08cbf3dfa993145ec0522f4a4dc945496c8a376111f"},
		{"scenario", pinSweep(scn), "f59734429c5d02c506a6a88cdcc0b35786a20e4f63e594a59d7d89217982a125"},
	}
	for _, c := range cases {
		if got := SweepKey(Partition(c.s, 4)); got != c.want {
			t.Errorf("%s: sweep key %s, want %s", c.name, got, c.want)
		}
	}
}

// TestShardSpecRequestLineGolden pins the exact coordinator → worker
// request line for a shard spec with every field set — the bytes an
// older or newer worker on the other end of the pipe parses.
func TestShardSpecRequestLineGolden(t *testing.T) {
	s := pinSweep(&scenario.Spec{Name: "churn", Churn: &scenario.ChurnSpec{Period: 40, LeaveFrac: 0.25, Seed: 3}})
	specs := Partition(s, 4)
	sp := specs[len(specs)-1]
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(requestRecord{Spec: &sp}); err != nil {
		t.Fatal(err)
	}
	const want = `{"shard_spec":{"v":1,"shard":5,"n":8,"delta":2,"nu_values":[0.3],"c_values":[1,4],"nu_offset":2,"rounds":120,"seed":7,"t":2,"sample_every":5,"replicates":3,"rep_lo":1,"rep_hi":3,"adversary":"private","fork_depth":2,"engine_shards":2,"fast_forward":true,"compact_every":50,"compact_min_retire":8,"checker_retention":4,"cell_offset":6,"scenario":{"name":"churn","churn":{"period":40,"leave_frac":0.25,"seed":3}}}}
`
	if got := buf.String(); got != want {
		t.Errorf("request line\n got %s\nwant %s", got, want)
	}
}

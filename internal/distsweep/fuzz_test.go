package distsweep

import (
	"encoding/json"
	"testing"

	"neatbound/internal/sweep"
)

// FuzzShardSpec drives the worker's spec intake — requestRecord framing,
// ShardSpec decoding (including the add-only scenario field) and
// validate() — with arbitrary bytes: malformed input must be rejected
// with an error, never a panic, and a spec that validates must survive a
// JSON round trip unchanged (the wire contract retries depend on).
func FuzzShardSpec(f *testing.F) {
	valid := Sweep{Spec: sweep.Spec{
		Grid:       sweep.Grid{N: 20, Delta: 2, NuValues: []float64{0.2, 0.3}, CValues: []float64{1, 2}},
		Seed:       7,
		Replicates: 2,
		Semantics:  sweep.Semantics{Rounds: 50, T: 3},
	}}
	for _, sp := range Partition(valid, 2) {
		b, err := json.Marshal(requestRecord{Spec: &sp})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"shard_spec":{"v":1,"rounds":10,"nu_values":[0.3],"c_values":[2],"replicates":1,"rep_hi":1,` +
		`"scenario":{"name":"x","delay":{"kind":"iid","seed":269}}}}`))
	f.Add([]byte(`{"shard_spec":{"v":1,"rounds":10,"nu_values":[0.3],"c_values":[2],"replicates":1,"rep_hi":1,` +
		`"scenario":{"delay":{"kind":"warp"}}}}`))
	f.Add([]byte(`{"shard_spec":{"v":1,"rounds":10,"nu_values":[0.3],"c_values":[2],"replicates":1,"rep_hi":1,` +
		`"scenario":{"delay":{"kind":"iid"},"partition":{"length":1}}}}`))
	f.Add([]byte(`{"shard_spec":{"v":1,"rounds":10,"nu_values":[0.3],"c_values":[2],"replicates":1,"rep_hi":1,` +
		`"scenario":{"churn":{"leave_frac":-0.5}}}}`))
	f.Add([]byte(`{"shard_spec":{"v":99}}`))
	f.Add([]byte(`{"shard_spec":`))
	f.Add([]byte(`{"shard_summary":{"v":1,"shard":0,"cells":4}}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req requestRecord
		if err := json.Unmarshal(data, &req); err != nil || req.Spec == nil {
			return
		}
		if err := req.Spec.validate(); err != nil {
			return
		}
		reenc, err := json.Marshal(requestRecord{Spec: req.Spec})
		if err != nil {
			t.Fatalf("valid spec failed to re-marshal: %v", err)
		}
		var back requestRecord
		if err := json.Unmarshal(reenc, &back); err != nil || back.Spec == nil {
			t.Fatalf("re-marshaled spec failed to decode: %v", err)
		}
		if err := back.Spec.validate(); err != nil {
			t.Fatalf("spec no longer valid after round trip: %v", err)
		}
	})
}

package sweepsvc

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"neatbound/internal/store"
	"neatbound/internal/sweep"
)

// pinRequest sets every JobRequest field away from its zero value.
func pinRequest() JobRequest {
	return JobRequest{sweep.Spec{
		Grid:       sweep.Grid{N: 10, Delta: 3, NuValues: []float64{0.2, 0.3}, CValues: []float64{1, 2.5}},
		Seed:       7,
		Replicates: 2,
		Semantics: sweep.Semantics{
			Rounds: 400, T: 4, SampleEvery: 9, Adversary: "private", ForkDepth: 4, CheckerRetention: 8,
		},
		Tuning: sweep.Tuning{EngineShards: 2, FastForward: true, CompactEvery: 100, CompactMinRetire: 16},
	}}
}

// journalSubmitLine is a job-journal "submit" record exactly as an
// earlier sweepd wrote it. A daemon must keep recovering such records
// after its request type is reorganized: the journal outlives binaries.
const journalSubmitLine = `{"v":1,"op":"submit","id":"job-3","req":{"n":10,"delta":3,"nu_values":[0.2,0.3],"c_values":[1,2.5],"rounds":400,"seed":7,"t":4,"sample_every":9,"replicates":2,"adversary":"private","fork_depth":4,"engine_shards":2,"fast_forward":true,"compact_every":100,"compact_min_retire":16,"checker_retention":8}}`

// TestJournalSubmitRecordCompat replays the pinned submit record
// through the real journal open and requires it to decode to the
// request that produced it.
func TestJournalSubmitRecordCompat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.log")
	if err := os.WriteFile(path, []byte(journalSubmitLine+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := New(Options{Store: st, Journal: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(s.recovered) != 1 || s.recovered[0].id != "job-3" {
		t.Fatalf("recovered %+v, want one job-3", s.recovered)
	}
	if got, want := s.recovered[0].req, pinRequest(); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded request\n got %+v\nwant %+v", got, want)
	}
}

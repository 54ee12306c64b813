package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"neatbound/internal/params"
)

func TestMeasureProducesSaneEntry(t *testing.T) {
	pr := params.Params{N: 50, P: 1e-3, Delta: 3, Nu: 0.3}
	e, err := measure(pr, 200, 2, 50, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.RoundsPerSec <= 0 || e.NsPerRound <= 0 {
		t.Errorf("non-positive timings: %+v", e)
	}
	if e.HeapPeakBytes == 0 {
		t.Errorf("heap peak not sampled: %+v", e)
	}
	if e.TotalBlocks <= 0 || e.LiveBlocks <= 0 || e.LiveBlocks > e.TotalBlocks+1 {
		t.Errorf("implausible block counts: live %d, total %d", e.LiveBlocks, e.TotalBlocks)
	}
	if e.Cores != runtime.NumCPU() {
		t.Errorf("cores = %d, want the machine's %d — the field must be stamped, not hand-labeled", e.Cores, runtime.NumCPU())
	}
	if e.Procs != runtime.GOMAXPROCS(0) {
		t.Errorf("gomaxprocs = %d, want %d — the usable-parallelism bound must be stamped too", e.Procs, runtime.GOMAXPROCS(0))
	}
	if e.AllocsPerRound < 0 || e.BytesPerRound < 0 {
		t.Errorf("negative alloc metrics: %+v", e)
	}
	e.Label = "test"
	data, err := json.Marshal(file{Benchmark: "BenchmarkSimulationRound", Entries: []entry{e}})
	if err != nil {
		t.Fatal(err)
	}
	var back file
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != 1 || back.Entries[0].Label != "test" {
		t.Errorf("round trip lost the entry: %s", data)
	}
}

func TestMeasureValidation(t *testing.T) {
	pr := params.Params{N: 50, P: 1e-3, Delta: 3, Nu: 0.3}
	if _, err := measure(pr, 0, 1, 0, 0, nil); err == nil {
		t.Error("0 rounds accepted")
	}
	if _, err := measure(pr, 10, 0, 0, 0, nil); err == nil {
		t.Error("0 iters accepted")
	}
}

func TestLoadRefusesExistingLabel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if f, err := load(path, "first"); err != nil || len(f.Entries) != 0 {
		t.Fatalf("missing file: %+v, %v — want an empty trajectory", f, err)
	}
	data, err := json.Marshal(file{Benchmark: "BenchmarkSimulationRound", Entries: []entry{{Label: "first"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(path, "first"); err == nil || !strings.Contains(err.Error(), "append-only") {
		t.Errorf("existing label: err = %v, want an append-only refusal", err)
	}
	f, err := load(path, "second")
	if err != nil || len(f.Entries) != 1 || f.Entries[0].Label != "first" {
		t.Errorf("fresh label: %+v, %v — want the existing entry kept", f, err)
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(path, "second"); err == nil {
		t.Error("corrupt trajectory accepted")
	}
}

// TestAppendKeepsRecordedEntries pins that appending to the checked-in
// trajectory re-encodes every recorded entry byte for byte, so a field
// dropped from entry (or a changed encoding) cannot silently rewrite
// recorded history.
func TestAppendKeepsRecordedEntries(t *testing.T) {
	const path = "../../BENCH_engine.json"
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := load(path, "test-append")
	if err != nil {
		t.Fatal(err)
	}
	f.Entries = append(f.Entries, entry{Label: "test-append"})
	data, err := encode(f)
	if err != nil {
		t.Fatal(err)
	}
	var before, after struct {
		Entries []json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal(orig, &before); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &after); err != nil {
		t.Fatal(err)
	}
	if len(before.Entries) == 0 || len(after.Entries) != len(before.Entries)+1 {
		t.Fatalf("%d entries after appending to %d", len(after.Entries), len(before.Entries))
	}
	for i, want := range before.Entries {
		if !bytes.Equal(after.Entries[i], want) {
			t.Errorf("entry %d re-encoded as\n%s\nwant\n%s", i, after.Entries[i], want)
		}
	}
	f.Entries = f.Entries[:len(f.Entries)-1]
	if data, err := encode(f); err != nil || !bytes.Equal(data, orig) {
		t.Errorf("re-encoding %s without the new entry changed its bytes (err %v)", path, err)
	}
}

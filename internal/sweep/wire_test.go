package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// TestMergeCellStreamsEmptyStream pins the empty-shard-stream edge: an
// empty stream (a shard that produced nothing, or a truncated file)
// contributes nothing and breaks nothing.
func TestMergeCellStreamsEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	if err := MarshalCells(&buf, []AggregateCell{{Nu: 0.1, C: 2, Replicates: 1}}); err != nil {
		t.Fatal(err)
	}
	cells, err := MergeCellStreams(strings.NewReader(""), &buf, strings.NewReader("\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Nu != 0.1 {
		t.Fatalf("merged %+v", cells)
	}
	cells, err = MergeCellStreams(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Fatalf("all-empty merge produced %+v", cells)
	}
}

// TestReplicateCellWireRoundTrip pins the reader side of the rep-tagged
// cell record: nothing writes the tag any more, but the interchange is
// add-only, so UnmarshalCellLine still restores cell + tag, and plain
// aggregates read back untagged.
func TestReplicateCellWireRoundTrip(t *testing.T) {
	tagged := `{"Nu":0.2,"C":4,"Replicates":1,"ViolationRuns":1,"ViolationRateLo":0.2065432914738929,"ViolationRateHi":1,` +
		`"Violations":{"N":1,"Mean":3,"Std":0,"Min":3,"Max":3},"rep":5,"engine_version":1}`
	got, rep, err := UnmarshalCellLine([]byte(tagged))
	if err != nil {
		t.Fatal(err)
	}
	if rep != 5 {
		t.Errorf("replicate tag %d, want 5", rep)
	}
	if got.Violations.Mean != 3 || got.Replicates != 1 || got.ViolationRuns != 1 {
		t.Errorf("round-tripped %+v", got)
	}
	var buf bytes.Buffer
	if err := MarshalCell(json.NewEncoder(&buf), got); err != nil {
		t.Fatal(err)
	}
	if _, rep, err = UnmarshalCellLine(bytes.TrimSpace(buf.Bytes())); err != nil || rep != -1 {
		t.Errorf("plain aggregate: rep = %d, err = %v; want -1, nil", rep, err)
	}
	// A failed replicate's error string round-trips too.
	got, rep, err = UnmarshalCellLine([]byte(`{"Nu":0.2,"C":4,"rep":0,"error":"infeasible p","engine_version":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if rep != 0 || got.Err == nil || got.Err.Error() != "infeasible p" || got.Replicates != 0 {
		t.Errorf("failed replicate round-tripped as %+v (rep %d, err %v)", got, rep, got.Err)
	}
}

// TestAggregateReplicatesErrHandling pins the failure semantics of the
// replicate refold: failed replicates are skipped, and only an
// all-failed cell surfaces an error — the same contract as the
// in-process aggregation.
func TestAggregateReplicatesErrHandling(t *testing.T) {
	okRep := ReplicateCell(Cell{Nu: 0.3, C: 1, Report: Report{Violations: 1}})
	bad := ReplicateCell(Cell{Nu: 0.3, C: 1, Err: errors.New("boom")})
	agg, err := AggregateReplicates(0.3, 1, []AggregateCell{bad, okRep, bad})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Replicates != 1 || agg.Err != nil {
		t.Errorf("mixed fold: %+v (err %v)", agg, agg.Err)
	}
	agg, err = AggregateReplicates(0.3, 1, []AggregateCell{bad, bad})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Replicates != 0 || agg.Err == nil {
		t.Errorf("all-failed fold: %+v (err %v)", agg, agg.Err)
	}
}

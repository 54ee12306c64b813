package sweep

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"neatbound/internal/consistency"
)

// fakeRep freezes a raw replicate result with the given ledger/fork
// numbers into the ReplicateCell record AggregateReplicates folds.
func fakeRep(nu, c float64, conv, adv, fork, viols int) AggregateCell {
	return ReplicateCell(Cell{
		Nu: nu, C: c,
		Report: Report{
			Violations:   viols,
			MaxForkDepth: fork,
			Ledger:       consistency.Accounting{Rounds: 100, Convergence: conv, Adversary: adv},
		},
	})
}

// TestMergePairMatchesPooledAggregate pins the cross-process merge
// semantics: aggregating replicates in two halves and merging the halves
// must reproduce the single pooled aggregate (counts exactly, summaries
// to float tolerance — the parallel Welford combine).
func TestMergePairMatchesPooledAggregate(t *testing.T) {
	reps := []AggregateCell{
		fakeRep(0.3, 2, 40, 35, 3, 0),
		fakeRep(0.3, 2, 52, 31, 5, 2),
		fakeRep(0.3, 2, 47, 39, 2, 0),
		fakeRep(0.3, 2, 61, 28, 7, 1),
		fakeRep(0.3, 2, 44, 33, 4, 0),
	}
	whole, err := AggregateReplicates(0.3, 2, reps)
	if err != nil {
		t.Fatal(err)
	}
	left, err := AggregateReplicates(0.3, 2, reps[:2])
	if err != nil {
		t.Fatal(err)
	}
	right, err := AggregateReplicates(0.3, 2, reps[2:])
	if err != nil {
		t.Fatal(err)
	}
	merged, err := mergePair(left, right)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Replicates != whole.Replicates || merged.ViolationRuns != whole.ViolationRuns {
		t.Errorf("counts: merged %d/%d, pooled %d/%d",
			merged.ViolationRuns, merged.Replicates, whole.ViolationRuns, whole.Replicates)
	}
	if merged.ViolationRateLo != whole.ViolationRateLo || merged.ViolationRateHi != whole.ViolationRateHi {
		t.Errorf("Wilson interval: merged [%g, %g], pooled [%g, %g]",
			merged.ViolationRateLo, merged.ViolationRateHi, whole.ViolationRateLo, whole.ViolationRateHi)
	}
	close := func(name string, a, b float64) {
		if math.Abs(a-b) > 1e-9*(1+math.Abs(b)) {
			t.Errorf("%s: merged %g, pooled %g", name, a, b)
		}
	}
	close("margin mean", merged.Margin.Mean, whole.Margin.Mean)
	close("margin std", merged.Margin.Std, whole.Margin.Std)
	close("convergence mean", merged.Convergence.Mean, whole.Convergence.Mean)
	close("adversary mean", merged.Adversary.Mean, whole.Adversary.Mean)
	close("violations mean", merged.Violations.Mean, whole.Violations.Mean)
	close("fork std", merged.MaxForkDepth.Std, whole.MaxForkDepth.Std)
	if merged.Margin.Min != whole.Margin.Min || merged.Margin.Max != whole.Margin.Max {
		t.Errorf("margin extremes: merged [%g, %g], pooled [%g, %g]",
			merged.Margin.Min, merged.Margin.Max, whole.Margin.Min, whole.Margin.Max)
	}
}

func TestMergeCellsSortsNuMajor(t *testing.T) {
	cells := []AggregateCell{
		{Nu: 0.3, C: 5, Replicates: 1},
		{Nu: 0.2, C: 8, Replicates: 1},
		{Nu: 0.3, C: 2, Replicates: 1},
		{Nu: 0.2, C: 1, Replicates: 1},
	}
	out, err := MergeCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := [][2]float64{{0.2, 1}, {0.2, 8}, {0.3, 2}, {0.3, 5}}
	for i, w := range wantOrder {
		if out[i].Nu != w[0] || out[i].C != w[1] {
			t.Fatalf("position %d: (ν=%g, c=%g), want (ν=%g, c=%g)", i, out[i].Nu, out[i].C, w[0], w[1])
		}
	}
}

func TestMergeCellsKeepsFailedShardError(t *testing.T) {
	// A cancelled shard streams its cell with zero replicates and an
	// error; merging it with a successful shard must keep the error
	// visible so the driver can tell replicates are missing.
	ok, err := AggregateReplicates(0.3, 2, []AggregateCell{fakeRep(0.3, 2, 40, 35, 3, 0)})
	if err != nil {
		t.Fatal(err)
	}
	failed := AggregateCell{Nu: 0.3, C: 2, Err: errors.New("context canceled")}
	out, err := MergeCells([]AggregateCell{ok, failed})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Err == nil {
		t.Errorf("failed shard's error vanished from the merge: %+v", out)
	}
	if out[0].Replicates != 1 {
		t.Errorf("merged replicates = %d, want the successful shard's 1", out[0].Replicates)
	}
}

func TestMergeCellsAllFailedKeepsError(t *testing.T) {
	errA := errors.New("infeasible")
	out, err := MergeCells([]AggregateCell{
		{Nu: 0.3, C: 0.01, Err: errA},
		{Nu: 0.3, C: 0.01},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Replicates != 0 || out[0].Err == nil {
		t.Errorf("merged failed cell = %+v", out)
	}
}

func TestUnmarshalCellsSkipsBlankLinesAndRejectsGarbage(t *testing.T) {
	var buf bytes.Buffer
	if err := MarshalCells(&buf, []AggregateCell{{Nu: 0.2, C: 2, Replicates: 1}}); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("\n") // blank separator, as produced by stream concatenation
	if err := MarshalCells(&buf, []AggregateCell{{Nu: 0.3, C: 2, Replicates: 1}}); err != nil {
		t.Fatal(err)
	}
	cells, err := UnmarshalCells(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("parsed %d cells, want 2", len(cells))
	}
	if _, err := UnmarshalCells(bytes.NewBufferString("not json\n")); err == nil {
		t.Error("garbage line accepted")
	}
}

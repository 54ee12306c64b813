package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"neatbound/internal/adversary"
	"neatbound/internal/engine"
)

// subsetCfg is a 2×3 grid under the private-mining attack; c = 0.01 is
// infeasible (p ≥ 1), so one cell is an error cell.
func subsetCfg() Config {
	return Config{
		N: 10, Delta: 3,
		NuValues: []float64{0.2, 0.35},
		CValues:  []float64{0.01, 1, 3},
		Rounds:   300, Seed: 11, T: 3, Workers: 2,
		NewAdversary: func() engine.Adversary { return &adversary.PrivateMining{MinForkDepth: 3} },
	}
}

// marshalCell is one cell's MarshalCell bytes.
func marshalCell(t *testing.T, cell AggregateCell) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := MarshalCell(json.NewEncoder(&buf), cell); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunGridCellsMatchWholeGrid runs every subset of a 2×3 grid, with 2
// replicates, through Config.Cells: each listed cell carries the
// whole-grid run's MarshalCell bytes at its index (its seeds are the
// whole grid's), every other slot stays zero, and onCell sees exactly
// the listed cells. The list order does not matter, and the empty list
// runs nothing.
func TestRunGridCellsMatchWholeGrid(t *testing.T) {
	const reps = 2
	whole, err := RunGrid(context.Background(), subsetCfg(), reps, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(whole)
	want := make([][]byte, n)
	for i, cell := range whole {
		want[i] = marshalCell(t, cell)
	}
	for mask := 0; mask < 1<<n; mask++ {
		cells := []int{}
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				cells = append(cells, i)
			}
		}
		if mask%2 == 1 { // also list out of order
			for i, j := 0, len(cells)-1; i < j; i, j = i+1, j-1 {
				cells[i], cells[j] = cells[j], cells[i]
			}
		}
		cfg := subsetCfg()
		cfg.Cells = cells
		streamed := 0
		got, err := RunGrid(context.Background(), cfg, reps, func(AggregateCell) { streamed++ })
		if err != nil {
			t.Fatalf("cells %v: %v", cells, err)
		}
		if len(got) != n || streamed != len(cells) {
			t.Fatalf("cells %v: %d slots and %d streamed, want %d and %d", cells, len(got), streamed, n, len(cells))
		}
		for i, cell := range got {
			if mask&(1<<i) == 0 {
				if !reflect.DeepEqual(cell, AggregateCell{}) {
					t.Fatalf("cells %v: unlisted slot %d holds %+v", cells, i, cell)
				}
				continue
			}
			if b := marshalCell(t, cell); !bytes.Equal(b, want[i]) {
				t.Fatalf("cells %v: slot %d is\n%s want\n%s", cells, i, b, want[i])
			}
		}
	}
}

// TestRunGridCellsRejectsBadIndices: an index outside the grid or listed
// twice fails the run before any cell is computed.
func TestRunGridCellsRejectsBadIndices(t *testing.T) {
	for _, cells := range [][]int{{-1}, {6}, {0, 6}, {2, 1, 2}} {
		cfg := subsetCfg()
		cfg.Cells = cells
		streamed := 0
		if _, err := RunGrid(context.Background(), cfg, 1, func(AggregateCell) { streamed++ }); err == nil {
			t.Errorf("cells %v accepted", cells)
		}
		if streamed != 0 {
			t.Errorf("cells %v: %d cells computed before the refusal", cells, streamed)
		}
	}
}

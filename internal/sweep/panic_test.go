package sweep

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"neatbound/internal/engine"
	"neatbound/internal/network"
)

// panicAt is a strategy whose Mine panics in every run at ν = nu and
// does nothing elsewhere — a stand-in for an engine defect that only
// some cells reach. It is not SpanQuiescent, so every round steps and
// Mine runs in round 1.
type panicAt struct{ nu float64 }

func (panicAt) Name() string { return "panic-at" }

func (panicAt) HonestDelayPolicy(*engine.Context) network.DelayPolicy { return network.MinDelay{} }

func (a panicAt) Mine(ctx *engine.Context, _ int) {
	if ctx.Params().Nu == a.nu {
		panic("injected defect")
	}
}

// TestRunGridPanicIsContained: a job that panics ends the grid with an
// error naming the job and the panic value instead of ending the
// process. Cells finished before it still reach onCell; no cell after
// it does, and none carries the panic as its Err.
func TestRunGridPanicIsContained(t *testing.T) {
	cfg := Config{
		N: 10, Delta: 2,
		NuValues: []float64{0.2, 0.3},
		CValues:  []float64{2},
		Rounds:   200, Seed: 5, T: 4,
		Workers:      1, // jobs run in dispatch order: ν = 0.2 first
		NewAdversary: func() engine.Adversary { return panicAt{nu: 0.3} },
	}
	var got []AggregateCell
	_, err := RunGrid(context.Background(), cfg, 1, func(cell AggregateCell) { got = append(got, cell) })
	if err == nil {
		t.Fatal("a panicking job did not fail the grid")
	}
	for _, want := range []string{"ν=0.3", "c=2", "replicate 0", fmt.Sprintf("seed %d", CellSeed(cfg.Seed, 1, 0)), "injected defect"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	if len(got) != 1 || got[0].Nu != 0.2 || got[0].Err != nil {
		t.Errorf("cells handed over = %+v, want only the finished ν = 0.2 cell", got)
	}
}

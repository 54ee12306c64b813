package sweepsvc

import (
	"context"

	"neatbound/internal/sweep"
)

// GridFunc is the signature of sweep.RunGrid, which the service runs
// every cache-miss rectangle through.
type GridFunc = func(ctx context.Context, cfg sweep.Config, replicates int, onCell func(sweep.AggregateCell)) ([]sweep.AggregateCell, error)

// SetRunGrid makes every service in the process run its cache-miss
// rectangles through f until the returned restore is called. Swap it
// only while no job is running.
func SetRunGrid(f GridFunc) (restore func()) {
	prev := runGrid
	runGrid = f
	return func() { runGrid = prev }
}

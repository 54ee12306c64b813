// Command perfbench is the repository's benchmark. Each invocation runs
// one workload — run-sparse, run-dense or sweepd-session, described in
// README.md — as a closed loop with one client for a wall-clock budget,
// checks every op's output, and prints one JSON line on stdout:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (setup_s,
// rounds_per_s, heap_peak_mib). With -trace 1 the invocation is the
// separate traced run: it times the calls into each layer from this
// package's own wrappers and reports the per-layer metrics instead.
// Progress, and the sample count behind every statistic, go to stderr.
// perfbench/run.py builds the program from source and invokes it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"runtime"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// their median, because a single set-up is at the mercy of the scheduler.
const setupRepeats = 5

// fastPercentile is where the throughput metrics sit among a run's ops:
// the op time that only this share of the ops beat. The 2-core host the
// benchmark was built on is shared with other tenants, and the same
// cache-resident loop there runs up to 2x slower from one half-second to
// the next. The fast tail of tens of ops tracks the program's own speed
// about twice as steadily as their median: over six 15-second runs of
// either Run workload, ±5% against ±10%.
const fastPercentile = 10

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation: its seed and budget, where it may write, and
// the op tally and metrics every workload feeds.
type bench struct {
	seed      uint64
	budget    time.Duration
	scratch   string
	attempted int
	failed    int
	metrics   map[string]metric
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	workload := flag.String("workload", "", "run-sparse, run-dense or sweepd-session")
	seed := flag.Uint64("seed", 1, "workload seed; every op's inputs derive from it")
	seconds := flag.Float64("seconds", 10, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	scratch := flag.String("scratch", "", "directory for temporary stores (default: the system temp directory)")
	flag.Parse()

	b := &bench{
		seed:    *seed,
		budget:  time.Duration(*seconds * float64(time.Second)),
		scratch: *scratch,
		metrics: make(map[string]metric),
	}
	log.Printf("workload %s, seed %d, budget %v, trace %d, GOMAXPROCS %d, %d CPUs",
		*workload, b.seed, b.budget, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	if err := b.run(context.Background(), *workload, *trace == 1); err != nil {
		log.Fatal(err)
	}
	out, err := json.Marshal(result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.metrics,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}

// run dispatches a workload to its measurement.
func (b *bench) run(ctx context.Context, workload string, traced bool) error {
	switch workload {
	case "run-sparse", "run-dense":
		c := runSparse
		if workload == "run-dense" {
			c = runDense
		}
		if !traced {
			return b.measureRuns(ctx, c)
		}
		// The service layers run on a small probe grid here: on these
		// workloads they are the control that should stay flat.
		return b.traceLayers(ctx, []runConfig{c}, probeGrid, 0)
	case "sweepd-session":
		if !traced {
			return b.measureSession(ctx, sessionGrid)
		}
		row, err := sessionGrid.rowRuns()
		if err != nil {
			return err
		}
		return b.traceLayers(ctx, row, sessionGrid, b.budget/2)
	}
	return fmt.Errorf("unknown workload %q (want run-sparse, run-dense or sweepd-session)", workload)
}

// traceLayers is the traced run. Half the budget alternates untraced
// ops with the traced pipeline on batch; then a sweepd session on g runs
// for serviceBudget (and at least long enough for the cached-job tail),
// and the sweep, store and HTTP layers are probed directly.
func (b *bench) traceLayers(ctx context.Context, batch []runConfig, g gridSpec, serviceBudget time.Duration) error {
	b.set("runtime.gomaxprocs", "count", exact(float64(runtime.GOMAXPROCS(0))))
	if err := b.tracePipeline(ctx, batch, b.budget/2); err != nil {
		return err
	}
	return b.traceService(ctx, g, serviceBudget)
}

// op tallies one checked operation; a non-nil err counts it failed.
func (b *bench) op(err error) bool {
	b.attempted++
	if err != nil {
		b.failed++
		log.Printf("op %d failed: %v", b.attempted, err)
		return false
	}
	return true
}

// set records a metric and logs the sample behind it. A statistic over
// no samples (every op failed) reads 0, so the result line stays valid
// JSON and the failures speak through "correct".
func (b *bench) set(name, unit string, s summary) {
	v := s.Value
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
	log.Printf("%-28s %14.6g %-5s p%g of %d samples, %d beyond", name, v, unit, s.P, s.N, s.Beyond)
}

package distsweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neatbound/internal/adversary"
	"neatbound/internal/engine"
	"neatbound/internal/sweep"
)

// testSweep is a small grid that still exercises the interesting paths:
// multiple ν-rows (cell partitioning), replicates (replicate
// partitioning), a real adversary, and — via the tiny c value — one
// infeasible cell whose error must survive the wire.
func testSweep() Sweep {
	return Sweep{Spec: sweep.Spec{
		Grid:       sweep.Grid{N: 8, Delta: 2, NuValues: []float64{0.1, 0.2, 0.3}, CValues: []float64{0.001, 1, 4}},
		Seed:       7,
		Replicates: 3,
		Semantics:  sweep.Semantics{Rounds: 120, T: 2, Adversary: "private", ForkDepth: 2},
	}}
}

// referenceCells computes the single-process grid the distributed runs
// must reproduce bit for bit.
func referenceCells(t *testing.T, s Sweep) []sweep.AggregateCell {
	t.Helper()
	var factory func() engine.Adversary
	if s.Adversary != "" {
		factory = func() engine.Adversary {
			adv, err := adversary.ByName(s.Adversary, s.ForkDepth)
			if err != nil {
				t.Fatal(err)
			}
			return adv
		}
	}
	cells, err := sweep.RunGrid(context.Background(), sweep.Config{
		N:            s.N,
		Delta:        s.Delta,
		NuValues:     s.NuValues,
		CValues:      s.CValues,
		Rounds:       s.Rounds,
		Seed:         s.Seed,
		T:            s.T,
		SampleEvery:  s.SampleEvery,
		NewAdversary: factory,
		Tuning:       s.Tuning,
	}, s.Replicates, nil)
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	return cells
}

// cellsJSON renders cells in the interchange form — the byte-identity
// yardstick (it covers every exported field plus error strings).
func cellsJSON(t *testing.T, cells []sweep.AggregateCell) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sweep.MarshalCells(&buf, cells); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestPartitionCoversExactlyOnce(t *testing.T) {
	for _, tc := range []struct {
		nNu, reps, shards int
	}{
		{3, 1, 1}, {3, 1, 2}, {3, 1, 3}, {3, 1, 9},
		{2, 4, 3}, {2, 4, 8}, {2, 4, 100}, {5, 3, 7}, {1, 1, 4},
	} {
		s := Sweep{Spec: sweep.Spec{
			Grid:       sweep.Grid{N: 4, Delta: 1, NuValues: make([]float64, tc.nNu), CValues: []float64{1, 2}},
			Replicates: tc.reps,
			Semantics:  sweep.Semantics{Rounds: 10},
		}}
		for i := range s.NuValues {
			s.NuValues[i] = 0.1 + 0.05*float64(i)
		}
		specs := Partition(s, tc.shards)
		covered := make(map[[2]int]int)
		for _, sp := range specs {
			if sp.V != SpecVersion {
				t.Fatalf("%+v: spec version %d", tc, sp.V)
			}
			if len(sp.CValues) != len(s.CValues) {
				t.Fatalf("%+v: shard split CValues", tc)
			}
			if err := sp.validate(); err != nil {
				t.Fatalf("%+v: invalid spec: %v", tc, err)
			}
			for i := range sp.NuValues {
				nuIdx := sp.NuOffset + i
				if s.NuValues[nuIdx] != sp.NuValues[i] {
					t.Fatalf("%+v: shard %d misaligned NuOffset", tc, sp.Shard)
				}
				for rep := sp.RepLo; rep < sp.RepHi; rep++ {
					covered[[2]int{nuIdx, rep}]++
				}
			}
		}
		if len(covered) != tc.nNu*tc.reps {
			t.Fatalf("%+v: covered %d of %d (ν-row, replicate) pairs", tc, len(covered), tc.nNu*tc.reps)
		}
		for k, n := range covered {
			if n != 1 {
				t.Fatalf("%+v: pair %v covered %d times", tc, k, n)
			}
		}
	}
}

func TestDistributedParityInProcess(t *testing.T) {
	s := testSweep()
	want := cellsJSON(t, referenceCells(t, s))
	for _, tc := range []struct {
		name             string
		workers, targets int
	}{
		{"one-worker-one-shard", 1, 1},
		{"cell-partition", 2, 3},
		{"replicate-partition", 2, 7}, // > ν-rows → replicate ranges split
		{"max-split", 3, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cells, err := Run(context.Background(), s, Options{
				Workers:  tc.workers,
				Shards:   tc.targets,
				Executor: InProcess{},
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if got := cellsJSON(t, cells); got != want {
				t.Errorf("distributed grid differs from single-process run\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestHelperWorkerProcess is not a real test: relaunched by the
// subprocess parity test with DISTSWEEP_WORKER_PROCESS set, it turns
// the test binary into a protocol worker — the same trick the standard
// library uses for exec tests, sparing the suite a `go build`.
func TestHelperWorkerProcess(t *testing.T) {
	if os.Getenv("DISTSWEEP_WORKER_PROCESS") != "1" {
		t.Skip("helper process, only meaningful when relaunched by TestDistributedParitySubprocess")
	}
	if err := ServeWorker(context.Background(), os.Stdin, os.Stdout, WorkerOptions{}); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func TestDistributedParitySubprocess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker subprocesses")
	}
	s := testSweep()
	want := cellsJSON(t, referenceCells(t, s))
	var retries int32
	cells, err := Run(context.Background(), s, Options{
		Workers: 2,
		Shards:  5,
		Executor: Subprocess{
			Path: os.Args[0],
			Args: []string{"-test.run=^TestHelperWorkerProcess$"},
			Env:  append(os.Environ(), "DISTSWEEP_WORKER_PROCESS=1"),
		},
		OnProgress: func(p Progress) { atomic.StoreInt32(&retries, int32(p.Retries)) },
	})
	if err != nil {
		t.Fatalf("Run over subprocesses: %v", err)
	}
	if got := cellsJSON(t, cells); got != want {
		t.Errorf("subprocess grid differs from single-process run\ngot:\n%s\nwant:\n%s", got, want)
	}
	if n := atomic.LoadInt32(&retries); n != 0 {
		t.Errorf("clean subprocess sweep recorded %d retries", n)
	}
}

// flakyExecutor truncates the record stream of its first `failures`
// connections after limit bytes — a worker dying mid-stream — and runs
// clean in-process workers afterwards.
type flakyExecutor struct {
	inner    InProcess
	limit    int64
	failures int32
	started  atomic.Int32
}

func (e *flakyExecutor) Start(ctx context.Context, id int) (*WorkerConn, error) {
	conn, err := e.inner.Start(ctx, id)
	if err != nil {
		return nil, err
	}
	if e.started.Add(1) <= e.failures {
		conn.Out = io.LimitReader(conn.Out, e.limit)
	}
	return conn, nil
}

func TestWorkerDeathMidStreamReassigned(t *testing.T) {
	s := testSweep()
	want := cellsJSON(t, referenceCells(t, s))
	ex := &flakyExecutor{limit: 700, failures: 1} // ~1–2 records, then silence
	var mu sync.Mutex
	var last Progress
	cells, err := Run(context.Background(), s, Options{
		Workers:  2,
		Shards:   4,
		Executor: ex,
		OnProgress: func(p Progress) {
			mu.Lock()
			last = p
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("Run with dying worker: %v", err)
	}
	if got := cellsJSON(t, cells); got != want {
		t.Errorf("grid after reassignment differs from single-process run\ngot:\n%s\nwant:\n%s", got, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if last.Retries < 1 {
		t.Errorf("expected ≥ 1 recorded retry after a mid-stream death, got %d", last.Retries)
	}
	if last.ShardsDone != last.Shards {
		t.Errorf("progress shows %d/%d shards done", last.ShardsDone, last.Shards)
	}
}

// poisonExecutor's first worker speaks the protocol perfectly — right
// record count, clean summary — but its cell records name a cell that
// is not in the grid. The attempt must be rejected WITHOUT touching
// coordinator state (the all-or-nothing commit contract), and the
// reassigned shard must still land exactly.
type poisonExecutor struct {
	inner   InProcess
	started atomic.Int32
}

func (e *poisonExecutor) Start(ctx context.Context, id int) (*WorkerConn, error) {
	if e.started.Add(1) > 1 {
		return e.inner.Start(ctx, id)
	}
	specR, specW := io.Pipe()
	recR, recW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(specR)
		enc := json.NewEncoder(recW)
		for sc.Scan() {
			var req requestRecord
			if err := json.Unmarshal(sc.Bytes(), &req); err != nil || req.Spec == nil {
				break
			}
			n := req.Spec.expectedRecords()
			for i := 0; i < n; i++ {
				enc.Encode(map[string]any{"Nu": 99.0, "C": 99.0, "Replicates": 1})
			}
			enc.Encode(summaryRecord{Summary: &ShardSummary{V: SpecVersion, Shard: req.Spec.Shard, Cells: n}})
		}
		recW.Close()
		specR.Close()
		done <- nil
	}()
	return &WorkerConn{In: specW, Out: recR, Wait: func() error { recR.Close(); return <-done }}, nil
}

func TestPoisonedAttemptLeavesStateUntouched(t *testing.T) {
	s := testSweep()
	want := cellsJSON(t, referenceCells(t, s))
	cells, err := Run(context.Background(), s, Options{
		Workers:  1, // the poisoned worker must be replaced, not supplemented
		Shards:   2,
		Executor: &poisonExecutor{},
	})
	if err != nil {
		t.Fatalf("Run after poisoned attempt: %v", err)
	}
	if got := cellsJSON(t, cells); got != want {
		t.Errorf("grid after poisoned attempt differs\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRetriesExhaustedFailsSweep(t *testing.T) {
	s := testSweep()
	ex := &flakyExecutor{limit: 50, failures: 1 << 30} // every conn dies
	_, err := Run(context.Background(), s, Options{
		Workers:  2,
		Retries:  1,
		Executor: ex,
	})
	if err == nil {
		t.Fatal("sweep succeeded with every worker dying mid-stream")
	}
	if !strings.Contains(err.Error(), "failed") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestCoordinatorCancelStopsWorkers(t *testing.T) {
	s := testSweep()
	s.Rounds = 200000 // long enough that cancellation must preempt, not outrun
	s.Replicates = 2
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, s, Options{Workers: 2, Executor: InProcess{}})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled coordinator did not return; workers not preempted")
	}
}

func TestServeWorkerEmptyStream(t *testing.T) {
	var out bytes.Buffer
	if err := ServeWorker(context.Background(), strings.NewReader(""), &out, WorkerOptions{}); err != nil {
		t.Fatalf("ServeWorker on empty stream: %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("worker emitted %q on an empty request stream", out.String())
	}
}

func TestServeWorkerRejectsGarbage(t *testing.T) {
	var out bytes.Buffer
	err := ServeWorker(context.Background(), strings.NewReader("not json\n"), &out, WorkerOptions{})
	if err == nil {
		t.Fatal("garbage request line accepted")
	}
	err = ServeWorker(context.Background(), strings.NewReader("{\"other\":1}\n"), &out, WorkerOptions{})
	if err == nil || !strings.Contains(err.Error(), "shard_spec") {
		t.Fatalf("non-spec record: got %v", err)
	}
}

func TestServeWorkerReportsBadSpecInSummary(t *testing.T) {
	// A malformed spec must produce a summary record carrying the error —
	// not a dead stream — so coordinators can tell failure from death.
	var out bytes.Buffer
	spec := `{"shard_spec":{"v":99,"shard":3,"rounds":1,"nu_values":[0.1],"c_values":[1],"replicates":1,"rep_hi":1}}` + "\n"
	if err := ServeWorker(context.Background(), strings.NewReader(spec), &out, WorkerOptions{}); err != nil {
		t.Fatalf("ServeWorker: %v", err)
	}
	if !strings.Contains(out.String(), `"shard_summary"`) || !strings.Contains(out.String(), "version") {
		t.Errorf("expected a summary with a version error, got %q", out.String())
	}
}

func TestSweepValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Sweep){
		"no-rounds":          func(s *Sweep) { s.Rounds = 0 },
		"empty-grid":         func(s *Sweep) { s.NuValues = nil },
		"no-replicates":      func(s *Sweep) { s.Replicates = 0 },
		"bad-adversary":      func(s *Sweep) { s.Adversary = "nope" },
		"duplicate-cell":     func(s *Sweep) { s.NuValues = []float64{0.1, 0.1} },
		"negative-t":         func(s *Sweep) { s.T = -1 },
		"negative-retention": func(s *Sweep) { s.CheckerRetention = -1 },
	} {
		s := testSweep()
		mutate(&s)
		if _, err := Run(context.Background(), s, Options{Workers: 1}); err == nil {
			t.Errorf("%s: invalid sweep accepted", name)
		}
	}
}

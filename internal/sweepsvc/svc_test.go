package sweepsvc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"neatbound"
	"neatbound/internal/engine"
	"neatbound/internal/network"
	"neatbound/internal/store"
	"neatbound/internal/sweep"
	"neatbound/internal/sweepsvc"
)

// testReq is the suite's canonical small sweep: 4 cells × 2 replicates,
// fast enough to run many times under -race.
func testReq() sweepsvc.JobRequest {
	return sweepsvc.JobRequest{Spec: sweep.Spec{
		Grid:       sweep.Grid{N: 10, Delta: 3, NuValues: []float64{0.2, 0.3}, CValues: []float64{1, 2}},
		Seed:       7,
		Replicates: 2,
		Semantics:  sweep.Semantics{Rounds: 400, T: 4, Adversary: "private", ForkDepth: 4},
	}}
}

// newService opens a fresh store in a temp dir and a service over it.
func newService(t testing.TB, opts sweepsvc.Options) (*sweepsvc.Service, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	opts.Store = st
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	svc, err := sweepsvc.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc, st
}

// waitJob follows the job to a terminal state and returns its final
// status and full event log.
func waitJob(t *testing.T, svc *sweepsvc.Service, id string) (sweepsvc.JobStatus, []sweepsvc.Event) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var events []sweepsvc.Event
	if err := svc.Watch(ctx, id, func(ev sweepsvc.Event) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		t.Fatalf("watch %s: %v", id, err)
	}
	st, ok := svc.Status(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	return st, events
}

// coldBytes is the reference the service must match byte for byte: a
// single-process façade RunSweep of the same request, marshalled.
func coldBytes(t *testing.T, req sweepsvc.JobRequest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := neatbound.MarshalCells(&buf, coldCells(t, req)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// coldCells is the single-process façade RunSweep of the request.
func coldCells(t *testing.T, req sweepsvc.JobRequest) []sweep.AggregateCell {
	t.Helper()
	grid := neatbound.SweepGrid{N: req.N, Delta: req.Delta, NuValues: req.NuValues, CValues: req.CValues}
	opts := []neatbound.Option{
		neatbound.WithRounds(req.Rounds),
		neatbound.WithSeed(req.Seed),
		neatbound.WithConsistency(req.T, req.SampleEvery),
		neatbound.WithReplicates(req.Replicates),
	}
	if req.Adversary != "" {
		opts = append(opts, neatbound.WithAdversaryName(req.Adversary, neatbound.AdversaryOpts{ForkDepth: req.ForkDepth}))
	}
	cells, err := neatbound.RunSweep(context.Background(), grid, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func TestColdRunMatchesRunSweep(t *testing.T) {
	svc, _ := newService(t, sweepsvc.Options{})
	req := testReq()
	st0, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st, events := waitJob(t, svc, st0.ID)
	if st.State != sweepsvc.StateDone {
		t.Fatalf("job %s: state %s (%s)", st.ID, st.State, st.Error)
	}
	total := len(req.NuValues) * len(req.CValues)
	if st.CellsTotal != total || st.CellsComputed != total || st.CellsCached != 0 || st.CellsCoalesced != 0 {
		t.Errorf("cold run breakdown: %+v, want %d computed of %d", st, total, total)
	}
	if st.ShardsTotal == 0 || st.ShardsDone != st.ShardsTotal {
		t.Errorf("shards %d/%d after done", st.ShardsDone, st.ShardsTotal)
	}
	if svc.ComputedCells() != total {
		t.Errorf("service computed %d cells, want %d", svc.ComputedCells(), total)
	}
	if events[0].Type != sweepsvc.StateQueued || events[len(events)-1].Type != sweepsvc.StateDone {
		t.Errorf("event log starts %q ends %q, want queued..done", events[0].Type, events[len(events)-1].Type)
	}
	got, err := svc.Result(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := coldBytes(t, req); !bytes.Equal(got, want) {
		t.Errorf("service result differs from cold RunSweep:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestResubmitIsFullyCached(t *testing.T) {
	svc, _ := newService(t, sweepsvc.Options{})
	req := testReq()
	first, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st1, _ := waitJob(t, svc, first.ID)
	if st1.State != sweepsvc.StateDone {
		t.Fatalf("first job: %s (%s)", st1.State, st1.Error)
	}
	computed := svc.ComputedCells()

	second, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st2, _ := waitJob(t, svc, second.ID)
	if st2.State != sweepsvc.StateDone {
		t.Fatalf("second job: %s (%s)", st2.State, st2.Error)
	}
	if st2.CellsCached != st2.CellsTotal || st2.CellsComputed != 0 {
		t.Errorf("resubmission breakdown: %+v, want all %d cached", st2, st2.CellsTotal)
	}
	if st2.ShardsTotal != 0 {
		t.Errorf("fully cached job dispatched %d shards", st2.ShardsTotal)
	}
	if got := svc.ComputedCells(); got != computed {
		t.Errorf("resubmission computed cells: service total went %d -> %d", computed, got)
	}
	r1, err := svc.Result(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := svc.Result(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, r2) {
		t.Error("cached result differs from the computed one")
	}
}

// TestPartialOverlap extends a finished sweep's ν-axis: the shared
// prefix must come from the store, only the new row computed, and the
// merged stream must still match a cold single-process run bit for bit.
func TestPartialOverlap(t *testing.T) {
	svc, _ := newService(t, sweepsvc.Options{})
	small := testReq()
	st0, err := svc.Submit(small)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := waitJob(t, svc, st0.ID); st.State != sweepsvc.StateDone {
		t.Fatalf("first job: %s (%s)", st.State, st.Error)
	}

	big := small
	big.NuValues = []float64{0.2, 0.3, 0.45}
	st1, err := svc.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := waitJob(t, svc, st1.ID)
	if st.State != sweepsvc.StateDone {
		t.Fatalf("second job: %s (%s)", st.State, st.Error)
	}
	nC := len(big.CValues)
	cachedWant := len(small.NuValues) * nC
	computedWant := (len(big.NuValues) - len(small.NuValues)) * nC
	if st.CellsCached != cachedWant || st.CellsComputed != computedWant {
		t.Errorf("overlap breakdown: cached %d computed %d, want %d/%d",
			st.CellsCached, st.CellsComputed, cachedWant, computedWant)
	}
	got, err := svc.Result(st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := coldBytes(t, big); !bytes.Equal(got, want) {
		t.Errorf("merged cached+fresh result differs from cold RunSweep:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestScatteredMissesRunAsOneBatch: with a checkerboard of the grid
// already in the store, the other half — no two misses adjacent — is
// computed in one RunGrid batch, and the result is still the cold
// RunSweep's bytes.
func TestScatteredMissesRunAsOneBatch(t *testing.T) {
	svc, st := newService(t, sweepsvc.Options{})
	req := testReq()
	req.NuValues = []float64{0.2, 0.3, 0.45}
	req.CValues = []float64{1, 2, 4, 8}
	nC := len(req.CValues)
	cells := coldCells(t, req)
	for i, key := range sweepsvc.CellKeys(req.Sweep()) {
		if (i/nC+i%nC)%2 == 0 {
			if err := st.Put(key, cells[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	st0, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	fin, events := waitJob(t, svc, st0.ID)
	if fin.State != sweepsvc.StateDone {
		t.Fatalf("job ended %s (%s), want done", fin.State, fin.Error)
	}
	half := len(cells) / 2
	if fin.CellsCached != half || fin.CellsComputed != half {
		t.Errorf("checkerboard breakdown: cached %d computed %d, want %d each", fin.CellsCached, fin.CellsComputed, half)
	}
	shards := 0
	for _, ev := range events {
		if ev.Type == "shard" {
			shards++
		}
	}
	if fin.ShardsTotal != 1 || fin.ShardsDone != 1 || shards != 1 {
		t.Errorf("scattered misses ran as %d/%d batches with %d shard events, want one", fin.ShardsDone, fin.ShardsTotal, shards)
	}
	got, err := svc.Result(st0.ID)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := neatbound.MarshalCells(&want, cells); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("result differs from cold RunSweep:\ngot:\n%s\nwant:\n%s", got, want.Bytes())
	}
}

// TestConcurrentSubmitsCoalesce fires identical jobs concurrently into
// one service: across all of them every distinct cell is computed
// exactly once — the rest are store hits or joined flights — and every
// job sees the identical byte stream.
func TestConcurrentSubmitsCoalesce(t *testing.T) {
	svc, _ := newService(t, sweepsvc.Options{})
	req := testReq()
	total := len(req.NuValues) * len(req.CValues)

	const jobs = 6
	ids := make([]string, jobs)
	for i := range ids {
		st, err := svc.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	var wg sync.WaitGroup
	results := make([][]byte, jobs)
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			st, _ := waitJob(t, svc, id)
			if st.State != sweepsvc.StateDone {
				t.Errorf("job %s: %s (%s)", id, st.State, st.Error)
				return
			}
			if got := st.CellsCached + st.CellsCoalesced + st.CellsComputed; got != total {
				t.Errorf("job %s resolved %d cells of %d: %+v", id, got, total, st)
			}
			r, err := svc.Result(id)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = r
		}(i, id)
	}
	wg.Wait()
	if got := svc.ComputedCells(); got != total {
		t.Errorf("%d concurrent identical jobs computed %d cells, want exactly %d", jobs, got, total)
	}
	for i := 1; i < jobs; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Errorf("job %s result differs from job %s", ids[i], ids[0])
		}
	}
}

// swapRunGrid routes every grid run through f until the returned restore
// is called, or the test ends. Call it before newService, so the
// end-of-test restore runs after the service's Close has stopped every
// job.
func swapRunGrid(t *testing.T, f sweepsvc.GridFunc) (restore func()) {
	restore = sweepsvc.SetRunGrid(f)
	t.Cleanup(restore)
	return restore
}

// blockingGrid wedges every grid run until the job's context dies — a
// deterministic stand-in for a long-running job. started is closed when
// the first run begins.
func blockingGrid(started chan struct{}) sweepsvc.GridFunc {
	var once sync.Once
	return func(ctx context.Context, _ sweep.Config, _ int, _ func(sweep.AggregateCell)) ([]sweep.AggregateCell, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return nil, ctx.Err()
	}
}

// awaitStart fails the test unless a grid run begins in time.
func awaitStart(t *testing.T, started <-chan struct{}) {
	t.Helper()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started a grid run")
	}
}

func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{})
	swapRunGrid(t, blockingGrid(started))
	svc, _ := newService(t, sweepsvc.Options{})
	st0, err := svc.Submit(testReq())
	if err != nil {
		t.Fatal(err)
	}
	awaitStart(t, started)
	if _, ok := svc.Cancel(st0.ID); !ok {
		t.Fatalf("cancel: job %s unknown", st0.ID)
	}
	st, _ := waitJob(t, svc, st0.ID)
	if st.State != sweepsvc.StateCancelled {
		t.Fatalf("cancelled job ended %s (%s)", st.State, st.Error)
	}
	if _, err := svc.Result(st0.ID); err == nil {
		t.Error("Result of a cancelled job did not error")
	}
}

// TestCancelReleasesClaims: a second job joined on the first job's
// flights must survive the first job's cancellation by reclaiming and
// computing the cells itself.
func TestCancelReleasesClaims(t *testing.T) {
	// Grid runs wedge until release flips; later runs go through to
	// sweep.RunGrid, so the reclaiming job can finish.
	var mu sync.Mutex
	release := false
	started := make(chan struct{}, 16)
	swapRunGrid(t, func(ctx context.Context, cfg sweep.Config, reps int, onCell func(sweep.AggregateCell)) ([]sweep.AggregateCell, error) {
		mu.Lock()
		ok := release
		mu.Unlock()
		select {
		case started <- struct{}{}:
		default:
		}
		if !ok {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return sweep.RunGrid(ctx, cfg, reps, onCell)
	})
	svc, _ := newService(t, sweepsvc.Options{})
	req := testReq()
	first, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	awaitStart(t, started)
	second, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// Give the second job a moment to join the first job's flights, then
	// unblock the grid runs and kill the owner.
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	release = true
	mu.Unlock()
	svc.Cancel(first.ID)

	st, _ := waitJob(t, svc, second.ID)
	if st.State != sweepsvc.StateDone {
		t.Fatalf("survivor job: %s (%s)", st.State, st.Error)
	}
	got, err := svc.Result(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := coldBytes(t, req); !bytes.Equal(got, want) {
		t.Error("survivor's result differs from cold RunSweep")
	}
}

// TestCancelStoresOnlyWholeCells: a cell a grid run hands over after the
// job was cancelled may be aggregated from fewer replicates than asked
// for, so it must not reach the store; the whole cell delivered before
// the cancellation must.
func TestCancelStoresOnlyWholeCells(t *testing.T) {
	req := testReq()
	ids := make(chan string, 1)
	var svc *sweepsvc.Service
	swapRunGrid(t, func(ctx context.Context, cfg sweep.Config, reps int, onCell func(sweep.AggregateCell)) ([]sweep.AggregateCell, error) {
		onCell(sweep.AggregateCell{Nu: cfg.NuValues[0], C: cfg.CValues[0], Replicates: reps})
		svc.Cancel(<-ids)
		<-ctx.Done()
		onCell(sweep.AggregateCell{Nu: cfg.NuValues[0], C: cfg.CValues[1], Replicates: reps - 1})
		return nil, ctx.Err()
	})
	svc, st := newService(t, sweepsvc.Options{})
	st0, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ids <- st0.ID
	if fin, _ := waitJob(t, svc, st0.ID); fin.State != sweepsvc.StateCancelled {
		t.Fatalf("job ended %s (%s), want cancelled", fin.State, fin.Error)
	}
	keys := sweepsvc.CellKeys(req.Sweep())
	if !st.Has(keys[0]) {
		t.Error("the whole cell delivered before cancellation is not in the store")
	}
	if st.Has(keys[1]) {
		t.Error("a cell delivered after cancellation reached the store")
	}
	if st.Len() != 1 {
		t.Errorf("store holds %d cells, want 1", st.Len())
	}
}

// panicking is a strategy whose Mine panics in round 1 of every run —
// a stand-in for an engine defect. It is not SpanQuiescent, so the
// engine steps and reaches Mine.
type panicking struct{}

func (panicking) Name() string { return "panicking" }

func (panicking) HonestDelayPolicy(*engine.Context) network.DelayPolicy { return network.MinDelay{} }

func (panicking) Mine(*engine.Context, int) { panic("injected defect") }

// TestPanickingJobFails: a panic inside a grid run fails the job
// instead of ending the process, nothing reaches the store for its
// cells, and the next job on the same service computes them.
func TestPanickingJobFails(t *testing.T) {
	restore := swapRunGrid(t, func(ctx context.Context, cfg sweep.Config, reps int, onCell func(sweep.AggregateCell)) ([]sweep.AggregateCell, error) {
		cfg.NewAdversary = func() engine.Adversary { return panicking{} }
		return sweep.RunGrid(ctx, cfg, reps, onCell)
	})
	svc, st := newService(t, sweepsvc.Options{})
	req := testReq()
	first, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if fin, _ := waitJob(t, svc, first.ID); fin.State != sweepsvc.StateFailed || !strings.Contains(fin.Error, "injected defect") {
		t.Fatalf("panicking job ended %s (%q), want failed naming the panic", fin.State, fin.Error)
	}
	if st.Len() != 0 {
		t.Errorf("store holds %d cells after a panicking job, want 0", st.Len())
	}
	restore()
	second, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if fin, _ := waitJob(t, svc, second.ID); fin.State != sweepsvc.StateDone || fin.CellsComputed != 4 {
		t.Fatalf("next job: %+v, want done with 4 cells computed", fin)
	}
	got, err := svc.Result(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := coldBytes(t, req); !bytes.Equal(got, want) {
		t.Error("next job's result differs from cold RunSweep")
	}
}

// TestErrorCellMatchesRunSweep: a cell whose every replicate fails (at
// c = 0.01, p = 1/(c·n·Δ) ≈ 3.33 is no probability) is still a cell of
// the result. It must be stored with its error, served byte-identical to
// RunSweep, and hit the cache on resubmission.
func TestErrorCellMatchesRunSweep(t *testing.T) {
	svc, st := newService(t, sweepsvc.Options{})
	req := testReq()
	req.NuValues = []float64{0.2}
	req.CValues = []float64{0.01, 1}
	first, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if fin, _ := waitJob(t, svc, first.ID); fin.State != sweepsvc.StateDone {
		t.Fatalf("cold job ended %s (%s), want done", fin.State, fin.Error)
	}
	got, err := svc.Result(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := coldBytes(t, req); !bytes.Equal(got, want) {
		t.Errorf("result differs from cold RunSweep:\ngot:\n%s\nwant:\n%s", got, want)
	}
	for i, key := range sweepsvc.CellKeys(req.Sweep()) {
		if !st.Has(key) {
			// A resubmission would wait on the cell's never-finished flight.
			t.Fatalf("cell %d is not in the store", i)
		}
	}
	second, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if fin, _ := waitJob(t, svc, second.ID); fin.State != sweepsvc.StateDone || fin.CellsCached != 2 {
		t.Errorf("resubmission: %+v, want done with 2 cells cached", fin)
	}
}

func TestSubmitValidates(t *testing.T) {
	svc, _ := newService(t, sweepsvc.Options{})
	bad := testReq()
	bad.NuValues = nil
	if _, err := svc.Submit(bad); err == nil {
		t.Error("empty ν-axis accepted")
	}
	dup := testReq()
	dup.CValues = []float64{1, 1}
	if _, err := svc.Submit(dup); err == nil {
		t.Error("duplicate grid cells accepted")
	}
}

// TestSubmitRejectsWithReason: POST /jobs answers 400 with a reason for
// a negative t (every cell would fail), a negative checker_retention
// (it would run as 0 but key as itself, splitting the cell cache) and
// an invalid scenario, and accepts and runs a valid scenario.
func TestSubmitRejectsWithReason(t *testing.T) {
	svc, _ := newService(t, sweepsvc.Options{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	body := func(mutate func(*sweepsvc.JobRequest)) string {
		req := testReq()
		mutate(&req)
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, c := range []struct{ name, body, reason string }{
		{"negative-t", body(func(r *sweepsvc.JobRequest) { r.T = -1 }), "t = -1"},
		{"negative-retention", body(func(r *sweepsvc.JobRequest) { r.CheckerRetention = -1 }), "checker_retention = -1"},
		{"bad-scenario", `{"n": 10, "delta": 3, "nu_values": [0.2], "c_values": [1], "rounds": 400, "replicates": 1,
			"scenario": {"delay": {"kind": "bogus"}}}`, "unknown delay kind"},
	} {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr struct{ Error string }
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, c.reason) {
			t.Errorf("%s: status %d, error %q — want 400 naming %q", c.name, resp.StatusCode, apiErr.Error, c.reason)
		}
	}

	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(
		`{"n": 10, "delta": 3, "nu_values": [0.2], "c_values": [1], "rounds": 400, "replicates": 1,
			"scenario": {"delay": {"kind": "iid"}}}`))
	if err != nil {
		t.Fatal(err)
	}
	var st sweepsvc.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scenario: status %d, want 202", resp.StatusCode)
	}
	if st, _ = waitJob(t, svc, st.ID); st.State != sweepsvc.StateDone {
		t.Errorf("scenario job ended %s (%s), want done", st.State, st.Error)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	svc, _ := newService(t, sweepsvc.Options{})
	svc.Close()
	if _, err := svc.Submit(testReq()); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Submit after Close: %v, want service-closed error", err)
	}
}

// TestStoreSurvivesRestart is the cross-restart half of the cache
// story: a new service over the same store directory serves yesterday's
// cells without recomputing.
func TestStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	req := testReq()
	total := len(req.NuValues) * len(req.CValues)

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1, err := sweepsvc.New(sweepsvc.Options{Store: st1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	first, err := svc1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	stat, _ := waitJob(t, svc1, first.ID)
	if stat.State != sweepsvc.StateDone {
		t.Fatalf("first job: %s (%s)", stat.State, stat.Error)
	}
	r1, err := svc1.Result(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	svc1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != total {
		t.Fatalf("reopened store holds %d cells, want %d", st2.Len(), total)
	}
	svc2, err := sweepsvc.New(sweepsvc.Options{Store: st2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	second, err := svc2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	stat2, _ := waitJob(t, svc2, second.ID)
	if stat2.State != sweepsvc.StateDone {
		t.Fatalf("restarted job: %s (%s)", stat2.State, stat2.Error)
	}
	if stat2.CellsCached != total || svc2.ComputedCells() != 0 {
		t.Errorf("restarted service recomputed: %+v, computed=%d", stat2, svc2.ComputedCells())
	}
	r2, err := svc2.Result(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r1, r2) {
		t.Error("restart changed the served bytes")
	}
}

// journalledService opens a service over dir's store with the durable
// job journal enabled — the cross-restart fixture the recovery tests
// share. Callers own Close (no t.Cleanup: the tests restart services
// explicitly and double-Close would hide ordering bugs).
func journalledService(t *testing.T, dir string, opts sweepsvc.Options) *sweepsvc.Service {
	t.Helper()
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	opts.Store = st
	opts.Journal = filepath.Join(dir, "jobs.log")
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	svc, err := sweepsvc.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestJournalRecoversUnfinishedJobs is the daemon-restart half of the
// fault-tolerance story: a job in flight when the daemon shuts down is
// resubmitted by Recover on the next start and runs to the same bytes a
// never-interrupted submission would have produced; once done, a third
// life has nothing left to recover.
func TestJournalRecoversUnfinishedJobs(t *testing.T) {
	dir := t.TempDir()
	req := testReq()

	// Life 1: the job wedges in its grid run; Close is daemon shutdown,
	// not user cancellation, so the journal keeps the job open.
	started := make(chan struct{})
	restore := swapRunGrid(t, blockingGrid(started))
	svc1 := journalledService(t, dir, sweepsvc.Options{})
	st0, err := svc1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	awaitStart(t, started)
	svc1.Close()
	restore()

	// Life 2: Recover resubmits it under a fresh id and it finishes.
	svc2 := journalledService(t, dir, sweepsvc.Options{})
	recovered, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(recovered))
	}
	if recovered[0].ID == st0.ID {
		t.Errorf("recovered job reused id %s", st0.ID)
	}
	st, _ := waitJob(t, svc2, recovered[0].ID)
	if st.State != sweepsvc.StateDone {
		t.Fatalf("recovered job: %s (%s)", st.State, st.Error)
	}
	got, err := svc2.Result(recovered[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := coldBytes(t, req); !bytes.Equal(got, want) {
		t.Error("recovered job's result differs from cold RunSweep")
	}
	svc2.Close()

	// Life 3: the done record struck the job out; nothing to recover.
	svc3 := journalledService(t, dir, sweepsvc.Options{})
	defer svc3.Close()
	if recovered, err := svc3.Recover(); err != nil || len(recovered) != 0 {
		t.Errorf("third life recovered %d jobs (err %v), want none", len(recovered), err)
	}
}

// TestJournalUserCancelIsTerminal: a job the user cancelled stays
// cancelled — it must not rise from the journal on the next start.
func TestJournalUserCancelIsTerminal(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{})
	restore := swapRunGrid(t, blockingGrid(started))
	svc1 := journalledService(t, dir, sweepsvc.Options{})
	st0, err := svc1.Submit(testReq())
	if err != nil {
		t.Fatal(err)
	}
	awaitStart(t, started)
	if _, ok := svc1.Cancel(st0.ID); !ok {
		t.Fatalf("cancel: job %s unknown", st0.ID)
	}
	if st, _ := waitJob(t, svc1, st0.ID); st.State != sweepsvc.StateCancelled {
		t.Fatalf("cancelled job ended %s (%s)", st.State, st.Error)
	}
	svc1.Close()
	restore()

	svc2 := journalledService(t, dir, sweepsvc.Options{})
	defer svc2.Close()
	if recovered, err := svc2.Recover(); err != nil || len(recovered) != 0 {
		t.Errorf("user-cancelled job recovered (%d jobs, err %v), want none", len(recovered), err)
	}
}

// TestOversizeSubmitRejected pins the POST /jobs body cap: a body over
// 1 MiB gets a 413 with a reason, and the daemon keeps serving — the
// next valid submission is accepted and runs to completion.
func TestOversizeSubmitRejected(t *testing.T) {
	svc, _ := newService(t, sweepsvc.Options{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// A syntactically valid request padded past the cap inside its
	// ν list, so the decoder must read beyond 1 MiB to finish it.
	pad := strings.Repeat("0.25,", (1<<20)/5+1)
	body := `{"n": 10, "delta": 3, "nu_values": [` + pad + `0.25], "c_values": [1], "rounds": 400}`
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(apiErr.Error, "limit") {
		t.Fatalf("oversize body: status %d, error %q — want 413 with a reason", resp.StatusCode, apiErr.Error)
	}

	ok, err := json.Marshal(testReq())
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	var st sweepsvc.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid submit after a rejected body: status %d", resp.StatusCode)
	}
	if final, _ := waitJob(t, svc, st.ID); final.State != sweepsvc.StateDone {
		t.Errorf("job after a rejected body ended %s: %s", final.State, final.Error)
	}
}

// TestOversizedJobRejected pins the per-job work cap: a body well under
// the 1 MiB limit can still name a 2000 × 2000 grid or ten billion
// replicates. Both get a 400 with a reason before the service derives
// any cell key, and neither registers a job: the next valid submission
// is job-1.
func TestOversizedJobRejected(t *testing.T) {
	svc, _ := newService(t, sweepsvc.Options{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	axis := func(n int, step float64) string {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = strconv.FormatFloat(step*float64(i+1), 'g', -1, 64)
		}
		return strings.Join(vals, ",")
	}
	for name, body := range map[string]string{
		"2000x2000-grid": `{"n": 10, "delta": 3, "nu_values": [` + axis(2000, 1e-4) + `], "c_values": [` + axis(2000, 1e-2) +
			`], "rounds": 400, "replicates": 1}`,
		"1e10-replicates": `{"n": 10, "delta": 3, "nu_values": [0.2], "c_values": [1], "rounds": 400, "replicates": 10000000000}`,
	} {
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr struct{ Error string }
		if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, "exceeds") {
			t.Errorf("%s: status %d, error %q — want 400 naming the cap", name, resp.StatusCode, apiErr.Error)
		}
	}
	st, err := svc.Submit(testReq())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-1" {
		t.Errorf("first accepted job is %s, want job-1: a rejected body registered a job", st.ID)
	}
	waitJob(t, svc, st.ID)
}

package neatbound

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"neatbound/internal/store"
	"neatbound/internal/sweepsvc"
)

// newSweepServer starts an in-process sweepd (service + HTTP handler)
// over a fresh store and returns a client for it.
func newSweepServer(t *testing.T) (*SweepClient, *sweepsvc.Service) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	svc, err := sweepsvc.New(sweepsvc.Options{Store: st, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return NewSweepClient(ts.URL, ts.Client()), svc
}

var sweepClientGrid = SweepGrid{
	N: 10, Delta: 3,
	NuValues: []float64{0.2, 0.3},
	CValues:  []float64{1, 2},
}

func sweepClientOpts() []Option {
	return []Option{
		WithRounds(400),
		WithSeed(7),
		WithConsistency(4, 0),
		WithReplicates(2),
		WithAdversaryName("private", AdversaryOpts{ForkDepth: 4}),
	}
}

// TestSweepClientEndToEnd drives the full HTTP round trip — submit,
// SSE stream, result — and holds the service to the tentpole promise:
// the served bytes equal a cold single-process RunSweep, and a
// resubmission is served entirely from the store.
func TestSweepClientEndToEnd(t *testing.T) {
	client, svc := newSweepServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	st, err := client.Submit(ctx, sweepClientGrid, sweepClientOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "queued" && st.State != "running" && st.State != "done" {
		t.Fatalf("fresh job in state %q", st.State)
	}

	var types []string
	if err := client.Stream(ctx, st.ID, func(ev SweepJobEvent) error {
		types = append(types, ev.Type)
		return nil
	}); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if types[0] != "queued" || types[len(types)-1] != "done" {
		t.Errorf("event stream %v, want queued..done", types)
	}
	cellEvents := 0
	for _, ty := range types {
		if ty == "cell" {
			cellEvents++
		}
	}
	if want := len(sweepClientGrid.NuValues) * len(sweepClientGrid.CValues); cellEvents != want {
		t.Errorf("%d cell events, want %d", cellEvents, want)
	}

	raw, err := client.ResultRaw(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := RunSweep(ctx, sweepClientGrid, sweepClientOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := MarshalCells(&want, cells); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want.Bytes()) {
		t.Errorf("served bytes differ from cold RunSweep:\ngot:\n%s\nwant:\n%s", raw, want.Bytes())
	}

	// Wait follows the events, then fetches Result; on a resubmission
	// everything comes from the store and the decoded cells still match.
	computed := svc.ComputedCells()
	st2, err := client.Submit(ctx, sweepClientGrid, sweepClientOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	cells2, err := client.Wait(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if svc.ComputedCells() != computed {
		t.Errorf("resubmission recomputed cells: %d -> %d", computed, svc.ComputedCells())
	}
	status, err := client.Status(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != SweepJobDone || status.CellsCached != status.CellsTotal {
		t.Errorf("resubmission status %+v, want done with all %d cells cached", status, status.CellsTotal)
	}
	var got2 bytes.Buffer
	if err := MarshalCells(&got2, cells2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2.Bytes(), want.Bytes()) {
		t.Error("Wait-decoded cells differ from cold RunSweep")
	}
}

func TestSweepClientErrors(t *testing.T) {
	client, _ := newSweepServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Unknown job: 404 with the server's error body.
	if _, err := client.Status(ctx, "job-999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown-job status error = %v, want HTTP 404", err)
	}
	if _, err := client.ResultRaw(ctx, "job-999"); err == nil {
		t.Error("unknown-job result did not error")
	}

	// Invalid submission: surfaced as the server's 400.
	bad := sweepClientGrid
	bad.NuValues = nil
	if _, err := client.Submit(ctx, bad, sweepClientOpts()...); err == nil {
		t.Error("empty grid accepted")
	}

	// Result before done: 409.
	st, err := client.Submit(ctx, sweepClientGrid, append(sweepClientOpts(), WithRounds(200000))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.ResultRaw(ctx, st.ID); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("early result error = %v, want HTTP 409", err)
	}

	// Cancel over HTTP reaches the job.
	if _, err := client.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		status, err := client.Status(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if status.State == SweepJobCancelled {
			break
		}
		if status.State == SweepJobDone || time.Now().After(deadline) {
			t.Fatalf("job state %q after cancel", status.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := client.Wait(ctx, st.ID); err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Errorf("Wait on cancelled job = %v, want cancelled error", err)
	}
}

// TestSweepRequestScope pins which options travel to the server as
// data and which are rejected as server-side (execution placement is
// the server's call, not the submitter's).
func TestSweepRequestScope(t *testing.T) {
	req, err := SweepRequest(sweepClientGrid,
		WithRounds(500), WithSeed(9), WithConsistency(5, 10), WithReplicates(3),
		WithAdversaryName("private", AdversaryOpts{ForkDepth: 6}),
		WithShards(2), WithFastForward(), WithCompaction(100, 8), WithCheckerRetention(16))
	if err != nil {
		t.Fatal(err)
	}
	if req.Rounds != 500 || req.Seed != 9 || req.T != 5 || req.SampleEvery != 10 ||
		req.Replicates != 3 || req.Adversary != "private" || req.ForkDepth != 6 ||
		req.EngineShards != 2 || !req.FastForward || req.CompactEvery != 100 ||
		req.CompactMinRetire != 8 || req.CheckerRetention != 16 {
		t.Errorf("request did not carry the option vocabulary: %+v", req)
	}
	if _, err := SweepRequest(sweepClientGrid, WithWorkers(4)); err == nil {
		t.Error("WithWorkers accepted in a submission — fleet sizing is server-side")
	}
}

// allKnobsSweep is a small grid with every per-cell knob set away from
// its default.
func allKnobsSweep() (SweepGrid, []Option) {
	grid := SweepGrid{N: 10, Delta: 3, NuValues: []float64{0.2, 0.35}, CValues: []float64{0.8, 3}}
	return grid, []Option{
		WithRounds(300),
		WithSeed(5),
		WithConsistency(3, 7),
		WithCheckerRetention(5),
		WithAdversaryName("private", AdversaryOpts{ForkDepth: 3}),
		WithReplicates(3),
		WithShards(2),
		WithFastForward(),
		WithCompaction(40, 4),
	}
}

func marshalCells(t *testing.T, cells []AggregateCell) string {
	t.Helper()
	var buf bytes.Buffer
	if err := MarshalCells(&buf, cells); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRunSweepSemanticKnobsReachCells: resetting any one semantic knob
// of allKnobsSweep changes RunSweep's bytes. Parity between entry
// points cannot see a knob that every entry point drops on the way to
// the cells; this can.
func TestRunSweepSemanticKnobsReachCells(t *testing.T) {
	grid, opts := allKnobsSweep()
	run := func(extra ...Option) string {
		t.Helper()
		cells, err := RunSweep(context.Background(), grid, append(opts[:len(opts):len(opts)], extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return marshalCells(t, cells)
	}
	ref := run()
	spec, err := ParseScenario("stochastic-delay")
	if err != nil {
		t.Fatal(err)
	}
	for name, reset := range map[string]Option{
		"t":                 WithConsistency(0, 7),
		"sample-every":      WithConsistency(3, 0),
		"checker-retention": WithCheckerRetention(0),
		"adversary":         WithAdversaryName("passive", AdversaryOpts{}),
		"fork-depth":        WithAdversaryName("private", AdversaryOpts{}),
		"scenario":          WithScenario(spec),
	} {
		if run(reset) == ref {
			t.Errorf("changing %s left the grid unchanged", name)
		}
	}
}

// TestSweepClientDistributedParityAllKnobs holds the two sweep entry
// points to one result with every per-cell knob set away from its
// default: RunSweep and a sweepd job must emit byte-identical
// MarshalCells streams. A
// knob one entry point forgot to forward shows up as a diff. A second
// leg repeats the comparison with the stochastic-delay scenario.
func TestSweepClientDistributedParityAllKnobs(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	grid, opts := allKnobsSweep()
	marshal := func(cells []AggregateCell) string { return marshalCells(t, cells) }
	ref, err := RunSweep(ctx, grid, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := marshal(ref)
	client, _ := newSweepServer(t)
	sweepd := func(opts []Option) string {
		t.Helper()
		st, err := client.Submit(ctx, grid, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Wait(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		raw, err := client.ResultRaw(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	if got := sweepd(opts); got != want {
		t.Errorf("sweepd result differs from RunSweep\ngot:\n%s\nwant:\n%s", got, want)
	}

	spec, err := ParseScenario("stochastic-delay")
	if err != nil {
		t.Fatal(err)
	}
	scnOpts := append(opts[:len(opts):len(opts)], WithScenario(spec))
	scnRef, err := RunSweep(ctx, grid, scnOpts...)
	if err != nil {
		t.Fatal(err)
	}
	scnWant := marshal(scnRef)
	if got := sweepd(scnOpts); got != scnWant {
		t.Errorf("scenario: sweepd result differs from RunSweep\ngot:\n%s\nwant:\n%s", got, scnWant)
	}
}

// TestSweepClientWaitDecodesOnlyTerminal: Wait picks events out by their
// SSE name and decodes only the terminal one's data, so a stream whose
// progress events carry data Wait cannot parse still waits correctly —
// while Stream, which decodes every event, rejects it. A failed
// terminal event surfaces its error, and a stream that ends without
// one is an error.
func TestSweepClientWaitDecodesOnlyTerminal(t *testing.T) {
	var cell bytes.Buffer
	if err := MarshalCells(&cell, []AggregateCell{{Nu: 0.2, C: 1, Replicates: 1}}); err != nil {
		t.Fatal(err)
	}
	streams := map[string]string{
		"job-1": "event: queued\ndata: {\"type\":\"queued\",\"status\":{\"state\":\"queued\"}}\n\n" +
			"event: cell\ndata: {not json\n\n" +
			"event: done\ndata: {\"type\":\"done\",\"status\":{\"id\":\"job-1\",\"state\":\"done\"}}\n\n",
		"job-2": "event: cell\ndata: {not json\n\n" +
			"event: failed\ndata: {\"type\":\"failed\",\"status\":{\"id\":\"job-2\",\"state\":\"failed\",\"error\":\"store: checksum mismatch\"}}\n\n",
		"job-3": "event: running\ndata: {\"type\":\"running\",\"status\":{\"state\":\"running\"}}\n\n",
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, streams[r.PathValue("id")])
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		w.Write(cell.Bytes())
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	client := NewSweepClient(ts.URL, ts.Client())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	cells, err := client.Wait(ctx, "job-1")
	if err != nil {
		t.Fatalf("Wait on a done job with an undecodable progress event: %v", err)
	}
	if len(cells) != 1 || cells[0].Nu != 0.2 || cells[0].C != 1 {
		t.Errorf("Wait returned %+v, want the served cell", cells)
	}
	if err := client.Stream(ctx, "job-1", nil); err == nil || !strings.Contains(err.Error(), "decode sweepd event") {
		t.Errorf("Stream over an undecodable event = %v, want a decode error", err)
	}
	if _, err := client.Wait(ctx, "job-2"); err == nil || !strings.Contains(err.Error(), "failed: store: checksum mismatch") {
		t.Errorf("Wait on a failed job = %v, want its failure", err)
	}
	if _, err := client.Wait(ctx, "job-3"); err == nil || !strings.Contains(err.Error(), "without a terminal event") {
		t.Errorf("Wait on a stream without a terminal event = %v, want an error", err)
	}
}

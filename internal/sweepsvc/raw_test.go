package sweepsvc_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"neatbound/internal/store"
	"neatbound/internal/sweep"
	"neatbound/internal/sweepsvc"
)

// TestCachedCellEventsMatchResult: a cache hit's "cell" event takes
// (ν, c) from the job's grid rather than from a decoded cell, so every
// cached event of a fully cached job must carry exactly — bit for bit —
// the coordinates of the result cell at its index.
func TestCachedCellEventsMatchResult(t *testing.T) {
	svc, _ := newService(t, sweepsvc.Options{})
	req := testReq()
	req.NuValues = []float64{0.1, 1.0 / 3, 0.45}
	req.CValues = []float64{0.7, 2.0 / 3 * 3, 1e-1 + 2e-1}
	first, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := waitJob(t, svc, first.ID); st.State != sweepsvc.StateDone {
		t.Fatalf("cold job: %s (%s)", st.State, st.Error)
	}
	second, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st, events := waitJob(t, svc, second.ID)
	if st.State != sweepsvc.StateDone || st.CellsCached != st.CellsTotal {
		t.Fatalf("resubmission: %+v, want done and fully cached", st)
	}
	raw, err := svc.Result(second.ID)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := sweep.UnmarshalCells(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var cellEvents []sweepsvc.Event
	for _, ev := range events {
		if ev.Type == "cell" {
			cellEvents = append(cellEvents, ev)
		}
	}
	if len(cellEvents) != len(cells) {
		t.Fatalf("%d cell events for %d cells", len(cellEvents), len(cells))
	}
	// A fully cached job reads its hits in ν-major order.
	for i, ev := range cellEvents {
		if !ev.Cached {
			t.Errorf("event %d not marked cached", i)
		}
		if math.Float64bits(ev.Nu) != math.Float64bits(cells[i].Nu) || math.Float64bits(ev.C) != math.Float64bits(cells[i].C) {
			t.Errorf("event %d at (ν=%v, c=%v), result cell %d at (ν=%v, c=%v)", i, ev.Nu, ev.C, i, cells[i].Nu, cells[i].C)
		}
	}
}

// TestCachedBytesEqualColdForInvalidUTF8: encoding/json writes an
// invalid UTF-8 byte as the escape \ufffd, but decoding that and
// re-encoding writes the raw replacement character — so a hit that was
// decoded and re-encoded would differ from the cold bytes. Served as
// its stored bytes, the resubmission equals the cold job exactly.
func TestCachedBytesEqualColdForInvalidUTF8(t *testing.T) {
	swapRunGrid(t, func(ctx context.Context, cfg sweep.Config, reps int, onCell func(sweep.AggregateCell)) ([]sweep.AggregateCell, error) {
		var cells []sweep.AggregateCell
		for _, nu := range cfg.NuValues {
			for _, c := range cfg.CValues {
				cell := sweep.AggregateCell{Nu: nu, C: c, Err: errors.New("replicate 0: bad byte \xff in <input> & more")}
				onCell(cell)
				cells = append(cells, cell)
			}
		}
		return cells, nil
	})
	svc, _ := newService(t, sweepsvc.Options{})
	req := testReq()
	var results [][]byte
	for round := 0; round < 2; round++ { // cold, then fully cached
		st0, err := svc.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := waitJob(t, svc, st0.ID); st.State != sweepsvc.StateDone {
			t.Fatalf("job %s: %s (%s)", st.ID, st.State, st.Error)
		}
		raw, err := svc.Result(st0.ID)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, raw)
	}
	if !bytes.Equal(results[0], results[1]) {
		t.Errorf("cached result differs from the cold one:\ncold:\n%s\ncached:\n%s", results[0], results[1])
	}
}

// TestResubmitChecksumMismatchFails: a hit is served as its stored bytes,
// so those bytes must still be verified. A grid committed, then one
// cell's payload altered on disk (still valid JSON, so only the checksum
// catches it): the resubmission over the reopened store must fail with
// the checksum error and serve no result.
func TestResubmitChecksumMismatchFails(t *testing.T) {
	dir := t.TempDir()
	req := testReq()
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
	if st, _ := waitJob(t, svc1, first.ID); st.State != sweepsvc.StateDone {
		t.Fatalf("cold job: %s (%s)", st.State, st.Error)
	}
	svc1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "cells.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	target := fmt.Sprintf(`"Replicates":%d`, req.Replicates)
	tampered := bytes.Replace(data, []byte(target), []byte(fmt.Sprintf(`"Replicates":%d`, req.Replicates+1)), 1)
	if bytes.Equal(tampered, data) {
		t.Fatalf("tamper target %s not found in log", target)
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	svc2, err := sweepsvc.New(sweepsvc.Options{Store: st2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	second, err := svc2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := waitJob(t, svc2, second.ID)
	if st.State != sweepsvc.StateFailed || !strings.Contains(st.Error, "checksum mismatch") {
		t.Fatalf("resubmission over a tampered store: %s (%s), want failed with checksum mismatch", st.State, st.Error)
	}
	if raw, err := svc2.Result(second.ID); err == nil || raw != nil {
		t.Fatalf("failed job served %d result bytes (err %v)", len(raw), err)
	}
}

// TestEventStreamMatchesWatch: the SSE stream flushes per batch, but its
// bytes and order are Watch's: every event's name line is its type and
// its data line is the event's JSON, in replay-log order.
func TestEventStreamMatchesWatch(t *testing.T) {
	svc, _ := newService(t, sweepsvc.Options{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	req := testReq()
	for round := 0; round < 2; round++ { // cold, then fully cached
		st, err := svc.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Get(srv.URL + "/jobs/" + st.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		_, err = got.ReadFrom(bufio.NewReader(resp.Body))
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		_, events := waitJob(t, svc, st.ID)
		var want bytes.Buffer
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&want, "event: %s\ndata: %s\n\n", ev.Type, data)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("job %s: SSE body differs from the Watch log:\ngot:\n%s\nwant:\n%s", st.ID, got.Bytes(), want.Bytes())
		}
	}
}

// BenchmarkCachedJob times one fully cached 400-cell job (a 10 × 40
// grid, the shape of a Figure 1 sweep) in-process: Submit, Watch to the
// terminal event, Result.
func BenchmarkCachedJob(b *testing.B) {
	svc, _ := newService(b, sweepsvc.Options{})
	req := testReq()
	req.Replicates = 1
	req.Rounds = 200
	req.NuValues = make([]float64, 10)
	for i := range req.NuValues {
		req.NuValues[i] = 0.04 * float64(i+1)
	}
	req.CValues = make([]float64, 40)
	for i := range req.CValues {
		req.CValues[i] = 0.5 * float64(i+1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	job := func() {
		st, err := svc.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		if err := svc.Watch(ctx, st.ID, func(sweepsvc.Event) error { return nil }); err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Result(st.ID); err != nil {
			b.Fatal(err)
		}
	}
	job() // cold: fills the store
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job()
	}
}

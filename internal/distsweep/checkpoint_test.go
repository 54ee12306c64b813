package distsweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"neatbound/internal/sweep"
)

// cheapSweep is a small no-adversary grid for checkpoint-logistics tests
// that do not need the full fixture's runtime.
func cheapSweep() Sweep {
	return Sweep{Spec: sweep.Spec{
		Grid:       sweep.Grid{N: 4, Delta: 1, NuValues: []float64{0.1, 0.2}, CValues: []float64{1, 2}},
		Seed:       3,
		Semantics:  sweep.Semantics{Rounds: 30, T: 1},
		Replicates: 2,
	}}
}

func openCheckpoint(t *testing.T, dir string) *Checkpoint {
	t.Helper()
	cp, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatalf("OpenCheckpoint(%s): %v", dir, err)
	}
	t.Cleanup(func() { cp.Close() })
	return cp
}

// countingExecutor counts the shard-spec request lines dispatched to its
// workers — how a test proves a resumed run did not recompute committed
// shards.
type countingExecutor struct {
	inner    Executor
	requests atomic.Int64
}

func (e *countingExecutor) Start(ctx context.Context, id int) (*WorkerConn, error) {
	conn, err := e.inner.Start(ctx, id)
	if err != nil {
		return nil, err
	}
	conn.In = &countingWriter{w: conn.In, n: &e.requests}
	return conn, nil
}

type countingWriter struct {
	w io.WriteCloser
	n *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n.Add(int64(bytes.Count(p, []byte{'\n'})))
	return c.w.Write(p)
}

func (c *countingWriter) Close() error { return c.w.Close() }

func TestSweepKeyIgnoresThroughputKnobs(t *testing.T) {
	s := testSweep()
	base := SweepKey(Partition(s, 4))

	tuned := s
	tuned.EngineShards = 8
	tuned.FastForward = true
	tuned.CompactEvery = 64
	tuned.CompactMinRetire = 128
	if SweepKey(Partition(tuned, 4)) != base {
		t.Error("throughput-only knobs changed the sweep key; resume could not retune them")
	}

	for name, mutate := range map[string]func(*Sweep){
		"seed":              func(s *Sweep) { s.Seed++ },
		"rounds":            func(s *Sweep) { s.Rounds++ },
		"grid":              func(s *Sweep) { s.NuValues = append(s.NuValues, 0.4) },
		"adversary":         func(s *Sweep) { s.Adversary = "" },
		"checker-retention": func(s *Sweep) { s.CheckerRetention = 10 },
	} {
		mut := s
		mutate(&mut)
		if SweepKey(Partition(mut, 4)) == base {
			t.Errorf("%s change did not change the sweep key", name)
		}
	}
	// The partition layout is part of the key too: a journal written
	// under one shard cut cannot replay into another.
	if SweepKey(Partition(s, 2)) == base {
		t.Error("partitioning change did not change the sweep key")
	}
}

// TestCheckpointResumeByteIdentity is the tentpole's acceptance test: a
// run killed mid-sweep, resumed against the same checkpoint directory,
// must reassemble the grid byte-identical to a never-interrupted run —
// and must not dispatch (recompute) the shards the journal already
// holds.
func TestCheckpointResumeByteIdentity(t *testing.T) {
	s := testSweep()
	want := cellsJSON(t, referenceCells(t, s))
	dir := t.TempDir()
	nShards := PartitionSize(s, 4)

	// First run: the coordinator dies (context cancel) after two shards
	// commit.
	cp, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var commits atomic.Int64
	_, err = Run(ctx, s, Options{
		Workers: 2, Shards: 4, Checkpoint: cp,
		OnProgress: func(p Progress) {
			if !p.Retried && commits.Add(1) == 2 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	cp.Close()

	cp2 := openCheckpoint(t, dir)
	committed := cp2.Shards()
	if committed == 0 {
		t.Fatal("interrupted run checkpointed no shards")
	}
	t.Logf("interrupted after %d/%d shards", committed, nShards)

	var resumed, live atomic.Int64
	ce := &countingExecutor{inner: InProcess{}}
	cells, err := Run(context.Background(), s, Options{
		Workers: 2, Shards: 4,
		Checkpoint: cp2, Resume: true,
		Executor: ce,
		OnProgress: func(p Progress) {
			if p.Retried {
				return
			}
			if p.Reason == ReasonResumed {
				resumed.Add(1)
			} else {
				live.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got := cellsJSON(t, cells); got != want {
		t.Errorf("resumed grid differs from never-interrupted run\ngot:\n%s\nwant:\n%s", got, want)
	}
	if int(resumed.Load()) != committed {
		t.Errorf("resume replayed %d shards, journal held %d", resumed.Load(), committed)
	}
	if int(live.Load()) != nShards-committed {
		t.Errorf("resume computed %d shards live, want %d", live.Load(), nShards-committed)
	}
	if int(ce.requests.Load()) != nShards-committed {
		t.Errorf("resume dispatched %d shard requests, want %d — committed shards must not recompute",
			ce.requests.Load(), nShards-committed)
	}
}

// checkpointFullRun completes s with a checkpoint in dir and returns the
// reference interchange bytes.
func checkpointFullRun(t *testing.T, s Sweep, dir string) string {
	t.Helper()
	cp, err := OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	cells, err := Run(context.Background(), s, Options{Workers: 2, Shards: 3, Checkpoint: cp})
	if err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	return cellsJSON(t, cells)
}

func TestCheckpointResumeRefusesChangedSweep(t *testing.T) {
	s := cheapSweep()
	dir := t.TempDir()
	checkpointFullRun(t, s, dir)

	changed := s
	changed.Seed++
	cp := openCheckpoint(t, dir)
	_, err := Run(context.Background(), changed, Options{
		Workers: 1, Shards: 3, Checkpoint: cp, Resume: true,
	})
	if err == nil || !strings.Contains(err.Error(), "refusing to merge") {
		t.Fatalf("resume with a changed sweep: err = %v, want a refusal", err)
	}
}

func TestCheckpointNonEmptyRequiresResume(t *testing.T) {
	s := cheapSweep()
	dir := t.TempDir()
	checkpointFullRun(t, s, dir)

	cp := openCheckpoint(t, dir)
	_, err := Run(context.Background(), s, Options{
		Workers: 1, Shards: 3, Checkpoint: cp,
	})
	if err == nil || !strings.Contains(err.Error(), "Resume") {
		t.Fatalf("fresh run into a non-empty journal: err = %v, want a refusal naming Resume", err)
	}
}

func TestResumeWithoutCheckpointRejected(t *testing.T) {
	_, err := Run(context.Background(), cheapSweep(), Options{Resume: true})
	if err == nil || !strings.Contains(err.Error(), "Checkpoint") {
		t.Fatalf("Resume without Checkpoint: err = %v", err)
	}
}

// TestCheckpointTornTailRecomputed covers the crash-mid-append edge: the
// journal's final record is cut mid-bytes (the coordinator died inside
// the checkpoint write). Open must truncate it away, and resume must
// recompute exactly that shard — grid still byte-identical.
func TestCheckpointTornTailRecomputed(t *testing.T) {
	s := cheapSweep()
	dir := t.TempDir()
	want := checkpointFullRun(t, s, dir)
	nShards := PartitionSize(s, 3)

	path := filepath.Join(dir, checkpointLog)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the last record roughly in half, newline included.
	lines := bytes.SplitAfter(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	last := lines[len(lines)-1]
	torn := data[:len(data)-len(last)-1+len(last)/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	cp := openCheckpoint(t, dir)
	if !cp.TailDropped() {
		t.Error("torn checkpoint tail not reported")
	}
	if cp.Shards() != nShards-1 {
		t.Fatalf("journal holds %d shards after torn tail, want %d", cp.Shards(), nShards-1)
	}
	var live atomic.Int64
	cells, err := Run(context.Background(), s, Options{
		Workers: 1, Shards: 3, Checkpoint: cp, Resume: true,
		OnProgress: func(p Progress) {
			if !p.Retried && p.Reason != ReasonResumed {
				live.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatalf("resume after torn tail: %v", err)
	}
	if got := cellsJSON(t, cells); got != want {
		t.Errorf("grid after torn-tail resume differs\ngot:\n%s\nwant:\n%s", got, want)
	}
	if live.Load() != 1 {
		t.Errorf("torn-tail resume recomputed %d shards, want exactly the truncated one", live.Load())
	}
}

// TestCheckpointCommitBeforeAnnounce covers the crash between the
// journal append and the shard's announcement: the journal holds every
// shard, the resumed coordinator needs no workers at all — an executor
// that cannot launch proves it.
func TestCheckpointCommitBeforeAnnounce(t *testing.T) {
	s := cheapSweep()
	dir := t.TempDir()
	want := checkpointFullRun(t, s, dir)

	cp := openCheckpoint(t, dir)
	cells, err := Run(context.Background(), s, Options{
		Workers: 2, Shards: 3, Checkpoint: cp, Resume: true,
		Executor: executorFunc(func(ctx context.Context, id int) (*WorkerConn, error) {
			return nil, errors.New("no fleet available")
		}),
	})
	if err != nil {
		t.Fatalf("resume of a fully-checkpointed sweep needed workers: %v", err)
	}
	if got := cellsJSON(t, cells); got != want {
		t.Errorf("fully-replayed grid differs\ngot:\n%s\nwant:\n%s", got, want)
	}
}

type executorFunc func(ctx context.Context, id int) (*WorkerConn, error)

func (f executorFunc) Start(ctx context.Context, id int) (*WorkerConn, error) { return f(ctx, id) }

func TestCheckpointDuplicateShardKeepsFirst(t *testing.T) {
	dir := t.TempDir()
	cp := openCheckpoint(t, dir)
	if _, _, err := cp.load("key-a", false, 4); err != nil {
		t.Fatal(err)
	}
	first := []json.RawMessage{json.RawMessage(`{"a":1}`)}
	second := []json.RawMessage{json.RawMessage(`{"a":2}`)}
	if err := cp.append("key-a", 0, first); err != nil {
		t.Fatal(err)
	}
	// A crash between append and announce makes the coordinator re-run
	// and re-append the shard; the duplicate must be a no-op.
	if err := cp.append("key-a", 0, second); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	cp2 := openCheckpoint(t, dir)
	if cp2.Shards() != 1 {
		t.Fatalf("journal holds %d shards, want 1", cp2.Shards())
	}
	ids, cells, err := cp2.load("key-a", true, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 0 || string(cells[0][0]) != `{"a":1}` {
		t.Fatalf("replayed %v / %s, want shard 0 with the first copy", ids, cells[0][0])
	}
}

func TestCheckpointChecksumMismatchFails(t *testing.T) {
	s := cheapSweep()
	dir := t.TempDir()
	checkpointFullRun(t, s, dir)

	path := filepath.Join(dir, checkpointLog)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit inside the first record's payload, keeping it valid
	// JSON — only the checksum can catch this.
	i := bytes.Index(data, []byte(`"Nu":0.1`))
	if i < 0 {
		t.Fatalf("fixture drift: no Nu field found in %s", path)
	}
	data[i+len(`"Nu":0.`)] = '9'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCheckpoint(dir); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("bit-flipped checkpoint record: err = %v, want a checksum failure", err)
	}
}

// TestCheckpointMixedSweepJournalFails: a journal whose records name two
// different sweeps is corrupt by construction and must be refused.
func TestCheckpointMixedSweepJournalFails(t *testing.T) {
	dir := t.TempDir()
	cp := openCheckpoint(t, dir)
	if _, _, err := cp.load("key-a", false, 4); err != nil {
		t.Fatal(err)
	}
	if err := cp.append("key-a", 0, []json.RawMessage{json.RawMessage(`{"a":1}`)}); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	// Hand-append a record for a different sweep.
	rec := checkpointRecord{
		V: checkpointVersion, Sweep: "key-b", Shard: 1,
		Sum:   checkpointSum("key-b", 1, []json.RawMessage{json.RawMessage(`{"b":2}`)}),
		Cells: []json.RawMessage{json.RawMessage(`{"b":2}`)},
	}
	line, _ := json.Marshal(rec)
	f, err := os.OpenFile(filepath.Join(dir, checkpointLog), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, "%s\n", line)
	f.Close()

	if _, err := OpenCheckpoint(dir); err == nil || !strings.Contains(err.Error(), "mixes sweeps") {
		t.Fatalf("mixed-sweep journal: err = %v, want refusal", err)
	}
}

// TestCheckpointOnCellFiresForResumedShards: the OnCell stream must
// cover every cell exactly once whether it was computed live or
// replayed.
func TestCheckpointOnCellFiresForResumedShards(t *testing.T) {
	s := cheapSweep()
	dir := t.TempDir()
	checkpointFullRun(t, s, dir)

	cp := openCheckpoint(t, dir)
	seen := make(map[cellKey]int)
	_, err := Run(context.Background(), s, Options{
		Workers: 1, Shards: 3, Checkpoint: cp, Resume: true,
		OnCell: func(c sweep.AggregateCell) { seen[cellKey{c.Nu, c.C}]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	nCells := len(s.NuValues) * len(s.CValues)
	if len(seen) != nCells {
		t.Errorf("OnCell covered %d cells, want %d", len(seen), nCells)
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("cell (ν=%g, c=%g) delivered %d times", k.nu, k.c, n)
		}
	}
}

package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"neatbound/internal/stats"
	"neatbound/internal/sweep"
)

// testCell builds a distinguishable aggregate with realistic float
// content (means that don't round-trip by accident if precision is
// mishandled).
func testCell(nu, c float64, reps int) sweep.AggregateCell {
	margins := make([]float64, reps)
	convs := make([]float64, reps)
	for i := range margins {
		margins[i] = float64(i) / 7.0
		convs[i] = float64(i) * 1.5
	}
	return sweep.AggregateCell{
		Nu: nu, C: c,
		Replicates:      reps,
		ViolationRuns:   reps / 3,
		ViolationRateLo: 0.123456789012345,
		ViolationRateHi: 0.987654321098765,
		Margin:          stats.Summarize(margins),
		Convergence:     stats.Summarize(convs),
	}
}

func cellBytes(t *testing.T, cell sweep.AggregateCell) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sweep.MarshalCells(&buf, []sweep.AggregateCell{cell}); err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return buf.Bytes()
}

func mustPut(t *testing.T, s *Store, key string, cell sweep.AggregateCell) {
	t.Helper()
	if err := s.Put(key, cell); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

func mustGet(t *testing.T, s *Store, key string) sweep.AggregateCell {
	t.Helper()
	cell, ok, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get(%s): %v", key, err)
	}
	if !ok {
		t.Fatalf("Get(%s): not found", key)
	}
	return cell
}

// TestStoreRoundTrip pins that a cell survives Put → Get byte-identically
// in its interchange form — the property sweepd's cache-vs-cold
// equivalence rests on.
func TestStoreRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	cell := testCell(0.2, 1.5, 9)
	mustPut(t, s, "k1", cell)
	got := mustGet(t, s, "k1")
	if want, have := cellBytes(t, cell), cellBytes(t, got); !bytes.Equal(want, have) {
		t.Fatalf("round trip not byte-identical:\nwant %s\nhave %s", want, have)
	}
	if _, ok, err := s.Get("missing"); err != nil || ok {
		t.Fatalf("Get(missing) = ok=%v err=%v, want miss", ok, err)
	}
}

// TestStoreErrCell pins that a cell's error string survives the store
// (Err doesn't round-trip through encoding/json natively; the wire form
// carries it as a string).
func TestStoreErrCell(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	cell := testCell(0.1, 2, 3)
	cell.Err = os.ErrDeadlineExceeded
	mustPut(t, s, "k-err", cell)
	got := mustGet(t, s, "k-err")
	if got.Err == nil || got.Err.Error() != cell.Err.Error() {
		t.Fatalf("Err = %v, want %v", got.Err, cell.Err)
	}
}

// TestStoreReopen pins that the index is rebuilt from the log across
// process restarts.
func TestStoreReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	c1, c2 := testCell(0.2, 1, 5), testCell(0.3, 2, 7)
	mustPut(t, s, "a", c1)
	mustPut(t, s, "b", c2)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 2 {
		t.Fatalf("Len after reopen = %d, want 2", s2.Len())
	}
	if st := s2.Stats(); st.TailDropped || st.Cells != 2 {
		t.Fatalf("Stats after clean reopen = %+v", st)
	}
	for key, want := range map[string]sweep.AggregateCell{"a": c1, "b": c2} {
		got := mustGet(t, s2, key)
		if w, h := cellBytes(t, want), cellBytes(t, got); !bytes.Equal(w, h) {
			t.Fatalf("cell %s changed across reopen:\nwant %s\nhave %s", key, w, h)
		}
	}
}

// TestStoreTornTail pins crash-mid-append recovery: a final record cut
// mid-bytes is detected on Open, truncated away, and the store accepts
// new appends cleanly afterwards.
func TestStoreTornTail(t *testing.T) {
	for _, cut := range []struct {
		name  string
		bytes int // bytes to keep of the final record
	}{
		{"mid-record", 25},
		{"missing-newline-only", -1}, // whole record minus its newline
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			mustPut(t, s, "keep", testCell(0.2, 1, 4))
			mustPut(t, s, "torn", testCell(0.3, 2, 4))
			s.Close()

			path := filepath.Join(dir, logName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read log: %v", err)
			}
			lines := bytes.SplitAfter(data, []byte("\n"))
			last := lines[len(lines)-2] // -1 is the empty split after the final newline
			keepBytes := len(data) - len(last) + cut.bytes
			if cut.bytes < 0 {
				keepBytes = len(data) - 1
			}
			if err := os.WriteFile(path, data[:keepBytes], 0o644); err != nil {
				t.Fatalf("tear log: %v", err)
			}

			s2, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen after tear: %v", err)
			}
			defer s2.Close()
			st := s2.Stats()
			if !st.TailDropped {
				t.Fatalf("Stats = %+v, want TailDropped", st)
			}
			if s2.Len() != 1 || !s2.Has("keep") || s2.Has("torn") {
				t.Fatalf("after tear: Len=%d Has(keep)=%v Has(torn)=%v", s2.Len(), s2.Has("keep"), s2.Has("torn"))
			}
			// The recovered store must append cleanly where the tear was.
			recomputed := testCell(0.3, 2, 4)
			mustPut(t, s2, "torn", recomputed)
			got := mustGet(t, s2, "torn")
			if w, h := cellBytes(t, recomputed), cellBytes(t, got); !bytes.Equal(w, h) {
				t.Fatalf("re-put after tear:\nwant %s\nhave %s", w, h)
			}
			s2.Close()
			// And the re-append must itself survive a reopen.
			s3, err := Open(dir)
			if err != nil {
				t.Fatalf("third open: %v", err)
			}
			defer s3.Close()
			if s3.Len() != 2 || s3.Stats().TailDropped {
				t.Fatalf("third open: Len=%d Stats=%+v", s3.Len(), s3.Stats())
			}
		})
	}
}

// TestStoreMidFileCorruption pins that a malformed record *before* the
// tail is corruption, not a torn append: Open must fail loudly rather
// than silently drop committed cells.
func TestStoreMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mustPut(t, s, "a", testCell(0.2, 1, 4))
	mustPut(t, s, "b", testCell(0.3, 2, 4))
	s.Close()

	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	// Break the first record's JSON framing while keeping its length.
	data[0] = 'X'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupt log: %v", err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Open on mid-file corruption = %v, want corrupt-record error", err)
	}
}

// TestStoreChecksumMismatch pins that a flipped payload bit — or a
// payload spliced under the wrong key — is a Get error, never a
// silently wrong cell.
func TestStoreChecksumMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	mustPut(t, s, "k", testCell(0.2, 1, 8))
	s.Close()

	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read log: %v", err)
	}
	// Flip one digit inside the cell payload without breaking JSON: the
	// record still parses, so only the checksum can catch it.
	tampered := bytes.Replace(data, []byte(`"Replicates":8`), []byte(`"Replicates":9`), 1)
	if bytes.Equal(tampered, data) {
		t.Fatalf("tamper target not found in log: %s", data)
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatalf("tamper log: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if _, _, err := s2.Get("k"); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("Get on tampered payload = %v, want checksum mismatch", err)
	}
	if raw, _, err := s2.GetRaw("k"); err == nil || !strings.Contains(err.Error(), "checksum mismatch") || raw != nil {
		t.Fatalf("GetRaw on tampered payload = %q, %v; want no bytes and checksum mismatch", raw, err)
	}
}

// TestStoreRawIsMarshalCell pins what sweepd serves a cache hit as: the
// stored bytes are exactly one MarshalCell line, and decoding them and
// re-marshalling reproduces them — so serving them raw equals the
// decode-and-re-encode path, for awkward error text (HTML-escaped
// characters, non-ASCII) and awkward floats (−0, subnormal, huge).
func TestStoreRawIsMarshalCell(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	negZero := math.Copysign(0, -1)
	cells := map[string]sweep.AggregateCell{"plain": testCell(0.2, 1.5, 9)}
	for i, msg := range []string{"p <= 0 & p > 1: <nil>", "ν = 0.45 ≥ ½ — Ünïcødé 日本語", "a\u2028b\tc\"d\\"} {
		cell := testCell(0.1, float64(i+1), 0)
		cell.Err = errors.New(msg)
		cells["err-"+strconv.Itoa(i)] = cell
	}
	odd := testCell(negZero, math.SmallestNonzeroFloat64, 3)
	odd.ViolationRateLo = negZero
	odd.ViolationRateHi = 1e-310
	odd.Margin.Mean = math.MaxFloat64
	odd.Margin.Min = -math.MaxFloat64
	odd.Convergence.Std = 1e21
	odd.Adversary.Max = 123456789.123456789e200
	cells["odd-floats"] = odd

	for key, cell := range cells {
		mustPut(t, s, key, cell)
		raw, ok, err := s.GetRaw(key)
		if err != nil || !ok {
			t.Fatalf("GetRaw(%s) = ok=%v err=%v", key, ok, err)
		}
		if want := bytes.TrimSuffix(cellBytes(t, cell), []byte("\n")); !bytes.Equal(raw, want) {
			t.Errorf("%s: stored bytes are not MarshalCell's:\nstored %s\nwant   %s", key, raw, want)
		}
		if again := bytes.TrimSuffix(cellBytes(t, mustGet(t, s, key)), []byte("\n")); !bytes.Equal(again, raw) {
			t.Errorf("%s: decode + re-marshal changed the bytes:\nstored %s\nagain  %s", key, raw, again)
		}
	}
	if raw, ok, err := s.GetRaw("missing"); err != nil || ok || raw != nil {
		t.Fatalf("GetRaw(missing) = %q ok=%v err=%v, want miss", raw, ok, err)
	}
}

// TestStoreKeepFirst pins first-write-wins: a duplicate Put must not
// rewrite bytes earlier readers may already have served.
func TestStoreKeepFirst(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	first := testCell(0.2, 1, 4)
	second := testCell(0.2, 1, 400) // same key, different content (shouldn't happen; must not clobber)
	mustPut(t, s, "k", first)
	mustPut(t, s, "k", second)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	got := mustGet(t, s, "k")
	if got.Replicates != first.Replicates {
		t.Fatalf("duplicate Put clobbered: Replicates = %d, want %d", got.Replicates, first.Replicates)
	}
}

// TestStoreRejectsNewerRecordVersion pins the forward-compatibility
// stance: a log written by a future store version fails Open instead of
// being half-understood.
func TestStoreRejectsNewerRecordVersion(t *testing.T) {
	dir := t.TempDir()
	line, err := json.Marshal(record{V: recordVersion + 1, Key: "k", Sum: "00000000", Cell: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, logName), append(line, '\n'), 0o644); err != nil {
		t.Fatalf("write log: %v", err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "newer") {
		t.Fatalf("Open on future-version record = %v, want version error", err)
	}
}

// TestStoreConcurrentAccess exercises Put/Get races under -race.
func TestStoreConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 20; i++ {
				key := string(rune('a'+g)) + "-" + string(rune('0'+i%10))
				if err := s.Put(key, testCell(0.2, float64(i), 3)); err != nil {
					done <- err
					return
				}
				if _, _, err := s.Get(key); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatalf("concurrent access: %v", err)
		}
	}
	if s.Len() != 40 {
		t.Fatalf("Len = %d, want 40", s.Len())
	}
}

// BenchmarkStoreGet reads one committed cell per op from a 400-cell
// store (a cached sweepd job's worth): raw is the verified read a cache
// hit is served from, decoded adds the cell decode Get layers on top.
func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const cells = 400
	keys := make([]string, cells)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
		if err := s.Put(keys[i], testCell(0.01*float64(i%10), float64(1+i/10), 8)); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("raw", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.GetRaw(keys[i%cells]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decoded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Get(keys[i%cells]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

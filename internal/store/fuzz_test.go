package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"neatbound/internal/sweep"
)

// splice applies one fuzzed edit to a valid log: delete del bytes at
// at, then insert patch there (both clamped to the log). A zero del is
// an insertion, len(patch) = del an overwrite, an empty patch a cut —
// at the end of the log, a torn tail.
func splice(valid []byte, at, del uint16, patch []byte) []byte {
	lo := min(int(at), len(valid))
	hi := min(lo+int(del), len(valid))
	return append(append(append([]byte(nil), valid[:lo]...), patch...), valid[hi:]...)
}

// seedEdits are the hand-picked edits both fuzz targets start from:
// none, a torn tail, a flipped byte in the first record, a cut newline,
// a garbage line appended, and a duplicated record.
func seedEdits(f *testing.F, valid []byte, firstLine int) {
	f.Add(uint16(0), uint16(0), []byte(nil))
	f.Add(uint16(len(valid)-5), uint16(5), []byte(nil))
	f.Add(uint16(20), uint16(1), []byte{'#'})
	f.Add(uint16(firstLine-1), uint16(1), []byte(nil))
	f.Add(uint16(len(valid)), uint16(0), []byte("{\"v\":1,\"key\":\"k\"}\n"))
	f.Add(uint16(0), uint16(0), valid[:firstLine])
}

// wireBytes is a cell's interchange line, the identity a read-back must
// preserve.
func wireBytes(t *testing.T, cell sweep.AggregateCell) string {
	var buf bytes.Buffer
	if err := sweep.MarshalCells(&buf, []sweep.AggregateCell{cell}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// FuzzStoreOpen edits a cells.log written by Put and reopens it. Open
// must truncate a torn tail or fail with an error — never panic — and
// after a successful Open every GetRaw of an indexed key agrees with the
// encoding/json reference read of its record, every Get that succeeds
// returns exactly the cell Put under that key, every record wholly
// before the edit still reads back, the log reopens clean, and Put
// appends where Open left off.
func FuzzStoreOpen(f *testing.F) {
	cells := map[string]sweep.AggregateCell{
		"k0": testCell(0.1, 1, 3),
		"k1": {Nu: 0.2, C: 0.01, Err: errors.New("infeasible p")},
		"k2": testCell(0.3, 25, 1),
	}
	keys := []string{"k0", "k1", "k2"}
	dir := f.TempDir()
	s, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	ends := make(map[string]int) // key → end offset of its record
	for _, k := range keys {
		if err := s.Put(k, cells[k]); err != nil {
			f.Fatal(err)
		}
		ends[k] = int(s.j.Size())
	}
	s.Close()
	valid, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		f.Fatal(err)
	}
	seedEdits(f, valid, ends["k0"])
	// A later, corrupt record under a committed key must not shadow it.
	f.Add(uint16(len(valid)), uint16(0), []byte(`{"v":1,"key":"k0","sum":"0","cell":{}}`+"\n"))
	// Records off the fixed frame, which reads must decode: reordered
	// fields, an escaped key, whitespace around the cell; and a framed
	// record whose checksum matches a cell that is not JSON.
	f.Add(uint16(len(valid)), uint16(0), []byte(`{"key":"k3","v":1,"sum":"`+sumOf("k3", []byte(`{}`))+`","cell":{}}`+"\n"))
	f.Add(uint16(len(valid)), uint16(0), []byte(`{"v":1,"key":"\u006b3","sum":"`+sumOf("k3", []byte(`{}`))+`","cell":{}}`+"\n"))
	f.Add(uint16(len(valid)), uint16(0), []byte(`{"v":1,"key":"k3","sum":"`+sumOf("k3", []byte(`{}`))+`","cell": {} }`+"\n"))
	f.Add(uint16(len(valid)), uint16(0), frame("k3", sumOf("k3", []byte(`{},{`)), []byte(`{},{`)))

	f.Fuzz(func(t *testing.T, at, del uint16, patch []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), splice(valid, at, del, patch), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			return
		}
		for k, l := range s.index {
			line := make([]byte, l.n)
			if _, err := s.j.ReadAt(line, l.off); err != nil {
				t.Fatal(err)
			}
			got, _, gotErr := s.GetRaw(k)
			want, wantErr := readRecordRef(bytes.TrimRight(line, "\n"), k, l.off)
			if !sameResult(got, gotErr, want, wantErr) {
				t.Fatalf("GetRaw(%q) = %q, %v; reference read %q, %v", k, got, gotErr, want, wantErr)
			}
		}
		for _, k := range keys {
			got, ok, err := s.Get(k)
			if ok && err == nil {
				if g, w := wireBytes(t, got), wireBytes(t, cells[k]); g != w {
					t.Fatalf("Get(%s) = %s, want the cell Put under it: %s", k, g, w)
				}
			} else if ends[k] <= int(at) {
				t.Fatalf("record %s ends at %d, before the edit at %d, but Get = %v, %v", k, ends[k], at, ok, err)
			}
		}
		// An edit may itself have planted a "fresh" record; keep-first
		// then rightly ignores the Put.
		fresh, planted := testCell(0.45, 2, 2), s.Has("fresh")
		if err := s.Put("fresh", fresh); err != nil {
			t.Fatalf("Put after Open: %v", err)
		}
		n := s.Len()
		s.Close()

		s, err = Open(dir)
		if err != nil {
			t.Fatalf("reopen after a successful Open: %v", err)
		}
		defer s.Close()
		if st := s.Stats(); st.TailDropped || st.Cells != n {
			t.Fatalf("reopen: %+v, want no torn tail and %d cells", st, n)
		}
		if planted {
			return
		}
		got, ok, err := s.Get("fresh")
		if !ok || err != nil || wireBytes(t, got) != wireBytes(t, fresh) {
			t.Fatalf("cell Put after Open reads back as %v, %v, %v", got, ok, err)
		}
	})
}

// FuzzJournalOpen edits a journal written by Append and reopens it with
// a scan that flags non-record lines ErrMalformed. OpenJournal must
// truncate a torn tail or fail with an error — never panic — and after a
// successful open every record wholly before the edit replays unchanged,
// every replayed record reads back at its offset, and Append lands at
// the replayed end.
func FuzzJournalOpen(f *testing.F) {
	path := filepath.Join(f.TempDir(), "j.log")
	j, err := OpenJournal(path, nil)
	if err != nil {
		f.Fatal(err)
	}
	var records []string
	var ends []int
	for i := 0; i < 4; i++ {
		rec := fmt.Sprintf(`{"op":"submit","id":"job-%d"}`, i)
		if _, _, err := j.Append([]byte(rec)); err != nil {
			f.Fatal(err)
		}
		records = append(records, rec)
		ends = append(ends, int(j.Size()))
	}
	j.Close()
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	seedEdits(f, valid, ends[0])

	// known holds exactly the lines this journal's writer emitted.
	known := make(map[string]bool, len(records))
	for _, rec := range records {
		known[rec] = true
	}
	f.Fuzz(func(t *testing.T, at, del uint16, patch []byte) {
		path := filepath.Join(t.TempDir(), "j.log")
		if err := os.WriteFile(path, splice(valid, at, del, patch), 0o644); err != nil {
			t.Fatal(err)
		}
		type entry struct {
			off  int64
			line string
		}
		var got []entry
		j, err := OpenJournal(path, func(off int64, line []byte) error {
			if !known[string(line)] {
				return ErrMalformed
			}
			got = append(got, entry{off, string(line)})
			return nil
		})
		if err != nil {
			return
		}
		defer j.Close()
		for i, end := range ends {
			if end > int(at) {
				break
			}
			if i >= len(got) || got[i].line != records[i] {
				t.Fatalf("record %d ends at %d, before the edit at %d, but replay gave %v", i, end, at, got)
			}
		}
		for _, e := range got {
			buf := make([]byte, len(e.line)+1)
			if _, err := j.ReadAt(buf, e.off); err != nil || string(buf) != e.line+"\n" {
				t.Fatalf("ReadAt(%d) = %q, %v; want %q", e.off, buf, err, e.line+"\n")
			}
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != j.Size() {
			t.Fatalf("log is %d bytes after open, journal says %d", fi.Size(), j.Size())
		}
		end := j.Size()
		if off, _, err := j.Append([]byte(records[0])); err != nil || off != end {
			t.Fatalf("Append after open at %d, %v; want offset %d", off, err, end)
		}
	})
}

package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readRecordRef is the reference record read: the encoding/json decode
// every record went through before the fixed frame was read by hand,
// with its error texts.
func readRecordRef(line []byte, key string, off int64) ([]byte, error) {
	var rec record
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, fmt.Errorf("store: decode record for %s: %w", key, err)
	}
	if rec.Key != key {
		return nil, fmt.Errorf("store: record at offset %d holds key %s, wanted %s", off, rec.Key, key)
	}
	h := crc32.New(castagnoli)
	h.Write([]byte(rec.Key))
	h.Write([]byte{'\n'})
	h.Write(rec.Cell)
	if got := fmt.Sprintf("%08x", h.Sum32()); got != rec.Sum {
		return nil, fmt.Errorf("store: checksum mismatch for %s: record says %s, payload hashes to %s", key, rec.Sum, got)
	}
	return rec.Cell, nil
}

// sameResult reports whether two reads agree: the same cell bytes, or
// the same error text.
func sameResult(got []byte, gotErr error, want []byte, wantErr error) bool {
	if gotErr != nil || wantErr != nil {
		return gotErr != nil && wantErr != nil && gotErr.Error() == wantErr.Error() && got == nil
	}
	return bytes.Equal(got, want)
}

// sameRead fails t unless readRecord and the reference agree on line.
func sameRead(t *testing.T, name string, line []byte, key string) {
	t.Helper()
	got, gotErr := readRecord(line, key, 7)
	want, wantErr := readRecordRef(line, key, 7)
	if !sameResult(got, gotErr, want, wantErr) {
		t.Errorf("%s: key %q, record %s:\nread      %q, %v\nreference %q, %v", name, key, line, got, gotErr, want, wantErr)
	}
}

// frame writes a record in the fixed frame by hand, with sum as given.
func frame(key, sum string, cell []byte) []byte {
	return []byte(frameKey + key + frameSum + sum + frameCell + string(cell) + "}")
}

// sumOf is the record checksum as a string.
func sumOf(key string, cell []byte) string {
	sum := checksum([]byte(key), cell)
	return string(sum[:])
}

// TestStoreFrameMatchesDecode pins the fixed-frame read against the
// encoding/json decode it stands in for: on records Put wrote — under
// plain keys and keys JSON escapes — on hand-written records of other
// shapes, on frames whose cell or sum is wrong and on every truncation,
// both accept the same records with the same bytes and refuse the rest
// with the same error. Put's records under plain keys take the frame;
// every other shape must fall through to the decode.
func TestStoreFrameMatchesDecode(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{
		"k0", fmt.Sprintf("%064x", 12345), "a-b_c.d~e",
		`k"0`, `a<b`, "a>b&c", `back\slash`, "tab\tkey", "ключ-ü", "\u2028",
	}
	for i, k := range keys {
		mustPut(t, s, k, testCell(0.1, float64(i+1), 3))
	}
	for _, k := range keys {
		l := s.index[k]
		line := make([]byte, l.n-1)
		if _, err := s.j.ReadAt(line, l.off); err != nil {
			t.Fatal(err)
		}
		sameRead(t, "Put record", line, k)
		_, framed := framedCell(line, k)
		// The frame is read for ASCII keys json.Marshal leaves as they are.
		enc, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		if plain := string(enc) == `"`+k+`"` && !strings.ContainsFunc(k, func(r rune) bool { return r >= 0x80 }); framed != plain {
			t.Errorf("key %q: framed read = %v, want %v", k, framed, plain)
		}
		raw, ok, err := s.GetRaw(k)
		if want, _ := readRecordRef(line, k, l.off); !ok || err != nil || !bytes.Equal(raw, want) {
			t.Errorf("GetRaw(%q) = %q, %v, %v; want %q", k, raw, ok, err, want)
		}
		// The wrong key never reads a record, framed or not.
		sameRead(t, "wrong key", line, k+"x")
	}
	s.Close()

	cell := []byte(strings.TrimSuffix(string(cellBytes(t, testCell(0.2, 2, 5))), "\n"))
	sum := sumOf("k", cell)
	canon := frame("k", sum, cell)
	if _, ok := framedCell(canon, "k"); !ok {
		t.Fatalf("canonical frame not read as one: %s", canon)
	}
	bad := []byte(`{"nu":0.2,"c":`)
	cases := map[string][]byte{
		"canonical":             canon,
		"reordered fields":      []byte(`{"key":"k","v":1,"sum":"` + sum + `","cell":` + string(cell) + `}`),
		"cell first":            []byte(`{"cell":` + string(cell) + `,"v":1,"key":"k","sum":"` + sum + `"}`),
		"space after colon":     []byte(`{"v": 1,"key":"k","sum":"` + sum + `","cell":` + string(cell) + `}`),
		"space before cell":     frame("k", sum, append([]byte(" "), cell...)),
		"space after cell":      frame("k", sum, append(append([]byte(nil), cell...), ' ')),
		"tab around cell":       frame("k", sum, []byte("\t"+string(cell)+"\t")),
		"summed space before":   frame("k", sumOf("k", []byte(" "+string(cell))), []byte(" "+string(cell))),
		"summed space after":    frame("k", sumOf("k", []byte(string(cell)+" ")), []byte(string(cell)+" ")),
		"trailing space":        append(append([]byte(nil), canon...), ' '),
		"escaped key":           []byte(`{"v":1,"key":"\u006b","sum":"` + sum + `","cell":` + string(cell) + `}`),
		"upper-case field":      []byte(`{"v":1,"KEY":"k","sum":"` + sum + `","cell":` + string(cell) + `}`),
		"version 2":             []byte(`{"v":2,"key":"k","sum":"` + sum + `","cell":` + string(cell) + `}`),
		"extra field":           []byte(`{"v":1,"key":"k","sum":"` + sum + `","cell":` + string(cell) + `,"x":0}`),
		"second cell":           []byte(`{"v":1,"key":"k","sum":"` + sum + `","cell":` + string(cell) + `,"cell":{}}`),
		"second sum":            []byte(`{"v":1,"key":"k","sum":"` + sum + `","cell":` + string(cell) + `,"sum":"00000000"}`),
		"invalid cell, sum ok":  frame("k", sumOf("k", bad), bad),
		"two values, sum ok":    frame("k", sumOf("k", []byte(`1 2`)), []byte(`1 2`)),
		"upper-case sum":        frame("k", strings.ToUpper(sum), cell),
		"short sum":             frame("k", sum[:7], cell),
		"long sum":              frame("k", sum+"0", cell),
		"escaped sum":           frame("k", `\u00`+sum[4:], cell),
		"wrong sum":             frame("k", "00000000", cell),
		"empty cell":            frame("k", sumOf("k", nil), nil),
		"scalar cell":           frame("k", sumOf("k", []byte(`7`)), []byte(`7`)),
		"invalid UTF-8 in cell": frame("k", sumOf("k", []byte("\"\xff\"")), []byte("\"\xff\"")),
	}
	for name, line := range cases {
		sameRead(t, name, line, "k")
	}
	for n := range canon {
		sameRead(t, fmt.Sprintf("truncated to %d bytes", n), canon[:n], "k")
	}
	// Keys JSON would escape, written raw into the frame: the decode
	// reads another key (or none), so the frame must not be read.
	for _, k := range []string{"\xff", "a\tb", `a\"b`, "a<b", "\x7f"} {
		sameRead(t, "raw key "+k, frame(k, sumOf(k, cell), cell), k)
	}

	// The hand-written records Open accepts read back through GetRaw as
	// the reference reads them.
	for name, line := range cases {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), append(line, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			continue
		}
		raw, ok, err := s.GetRaw("k")
		want, wantErr := readRecordRef(line, "k", 0)
		if !ok && err == nil {
			// Open indexed the record under another key.
			s.Close()
			continue
		}
		if !sameResult(raw, err, want, wantErr) {
			t.Errorf("%s: GetRaw = %q, %v; reference %q, %v", name, raw, err, want, wantErr)
		}
		s.Close()
	}
}

// TestStorePutRawRefusesUnreadableRecord pins PutRaw's guard: cell
// bytes the record encoding would rewrite (whitespace, unescaped HTML)
// could never match their checksum, and a key that is not valid UTF-8
// decodes to another key, so both are refused rather than committed as
// a record every later read fails on.
func TestStorePutRawRefusesUnreadableRecord(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, cell := range []string{`{"nu": 0.1}`, `{"error":"<nil>"}`, `{"nu":`, ""} {
		if err := s.PutRaw("k", []byte(cell)); err == nil {
			t.Errorf("PutRaw(%q) = nil, want an error", cell)
		}
	}
	if err := s.PutRaw("bad\xffkey", []byte(`{"nu":0.1}`)); err == nil {
		t.Error("PutRaw under a key that is not UTF-8 = nil, want an error")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after refused writes, want 0", s.Len())
	}
	if err := s.PutRaw("k", []byte(`{"nu":0.1}`+"\n")); err != nil {
		t.Fatal(err)
	}
	if raw, ok, err := s.GetRaw("k"); !ok || err != nil || string(raw) != `{"nu":0.1}` {
		t.Fatalf("GetRaw = %q, %v, %v", raw, ok, err)
	}
}

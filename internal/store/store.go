// Package store is sweepd's durable, content-addressed result store:
// finished sweep cells (sweep.AggregateCell records in their interchange
// wire form) keyed by the content address of the computation that
// produced them (sweep.CellJob.Key — params, ν, per-replicate seeds,
// replicates, engine-semantics version). It is the memoization layer
// behind the sweep service — identical cells requested by many users are
// computed once and served from here — and its append-only Journal is
// the crash-safety primitive sweepd's job journal reuses
// (docs/faults.md states the shared discipline). cmd/sweep -checkpoint
// runs its sweeps over the same store.
//
// # Layout and durability
//
// A store is one directory holding a single append-only log,
// "cells.log". Each record is one line of JSON:
//
//	{"v":1,"key":"<hex sha-256>","sum":"<hex crc32c>","cell":{...}}
//
// where cell is the interchange cell record (docs/interchange.md) and
// sum is the CRC-32C of "<key>\n<cell bytes>" — so a payload spliced
// under the wrong key fails verification just like a flipped bit.
// Appends are single-writer, each record is written in one Write call
// and fsynced before PutRaw returns, and the in-memory key → offset index
// is rebuilt by scanning the log on Open. (All of this is the Journal
// type's contract; Store layers the cell schema and index on top.)
//
// Crash safety: the only partial state a crash can leave is a torn tail
// — a final record missing its newline or cut mid-bytes. Open detects
// it (unparseable final line), truncates the log back to the last clean
// record, and reports the drop via OpenStats; the lost cell is simply
// recomputed. A malformed record *before* the tail is not a torn append
// but corruption, and Open fails loudly. Checksum verification runs on
// every read, so bit rot surfaces as an error, never as a silently wrong
// cell.
//
// # Reads
//
// GetRaw is the one read path: it parses the record, checks its key and
// checksum, and returns the cell's stored bytes — the MarshalCell
// encoding PutRaw wrote, which is what the sweep service serves a cache
// hit as, with no decode and re-encode. A record in the fixed frame
// PutRaw writes for a key JSON leaves unescaped is read by hand: the
// cell is the bytes between `"cell":` and the final `}`, checked by one
// json.Valid scan and the checksum. Any other shape, or a frame that
// fails a check, is decoded by encoding/json, so both accept the same
// records with the same bytes and every error reads as the decode's.
// Get is GetRaw plus the cell decode, for callers that want the
// AggregateCell.
//
// # Concurrency and ownership
//
// One process owns a store directory (sweepd's single-writer
// assumption; nothing here takes file locks). Within the process a
// Store is safe for concurrent use: PutRaw serializes on the writer lock,
// Get reads the immutable committed prefix via ReadAt.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"neatbound/internal/sweep"
)

// recordVersion is the log-record framing version; the add-only rule of
// docs/interchange.md applies to record fields within it.
const recordVersion = 1

// logName is the append-only cell log inside the store directory.
const logName = "cells.log"

// castagnoli is the CRC-32C table every checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// newline separates the key from the cell bytes under the checksum.
var newline = []byte{'\n'}

// record is the on-disk line form.
type record struct {
	V    int             `json:"v"`
	Key  string          `json:"key"`
	Sum  string          `json:"sum"`
	Cell json.RawMessage `json:"cell"`
}

// loc places one committed cell's raw bytes inside the log.
type loc struct {
	off, n int64
}

// OpenStats reports what Open found in an existing log.
type OpenStats struct {
	// Cells is the number of committed cells indexed.
	Cells int
	// TailDropped is set when a torn final record was detected and
	// truncated away (a crash mid-append; the cell will be recomputed).
	TailDropped bool
}

// Store is the content-addressed cell store; see the package comment
// for layout, durability, and ownership.
type Store struct {
	mu    sync.Mutex
	j     *Journal
	index map[string]loc
	stats OpenStats
}

// Open opens (creating if absent) the store in directory dir, scans the
// log to rebuild the index, and truncates a torn tail record if the
// last append was cut by a crash. Malformed records before the tail are
// corruption and fail Open.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	s := &Store{index: make(map[string]loc)}
	j, err := OpenJournal(filepath.Join(dir, logName), func(off int64, line []byte) error {
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Key == "" || len(rec.Cell) == 0 {
			return ErrMalformed
		}
		if rec.V > recordVersion {
			return fmt.Errorf("version %d is newer than this store's %d", rec.V, recordVersion)
		}
		// Keep-first, as PutRaw: a later record under a committed key can
		// only be a duplicate or damage, and must not shadow the first.
		if _, dup := s.index[rec.Key]; !dup {
			s.index[rec.Key] = loc{off: off, n: int64(len(line) + 1)}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.j = j
	s.stats.TailDropped = j.TailDropped()
	return s, nil
}

// Stats returns what Open found (and, via Cells, the live count).
func (s *Store) Stats() OpenStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Cells = len(s.index)
	return st
}

// Len returns the number of committed cells.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Has reports whether key is committed, without reading or verifying
// the payload.
func (s *Store) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[key]
	return ok
}

// checksum is the record's sum field: the lowercase hex CRC-32C of
// "<key>\n<cell bytes>".
func checksum(key, cell []byte) [8]byte {
	c := crc32.Update(0, castagnoli, key)
	c = crc32.Update(c, castagnoli, newline)
	c = crc32.Update(c, castagnoli, cell)
	const digits = "0123456789abcdef"
	var sum [8]byte
	for i := len(sum) - 1; i >= 0; i-- {
		sum[i] = digits[c&0xf]
		c >>= 4
	}
	return sum
}

// Put commits one finished cell under its content address: PutRaw of
// its MarshalCell bytes.
func (s *Store) Put(key string, cell sweep.AggregateCell) error {
	var buf bytes.Buffer
	if err := sweep.MarshalCell(json.NewEncoder(&buf), cell); err != nil {
		return fmt.Errorf("store: encode cell for %s: %w", key, err)
	}
	return s.PutRaw(key, buf.Bytes())
}

// PutRaw commits one finished cell, given as its MarshalCell line (the
// trailing newline is optional), under its content address. The first
// write wins: a key already committed is left untouched (content
// addressing means a duplicate carries the same result, and keep-first
// preserves the exact bytes earlier readers may already have served).
// A record that would not read back as cell is refused before it is
// written: cell bytes that are not compact JSON, which the record
// encoding would rewrite under the checksum, or a key that is not
// UTF-8, which would decode as another key. PutRaw returns only after
// the record is fsynced.
func (s *Store) PutRaw(key string, cell []byte) error {
	cell = bytes.TrimRight(cell, "\n")
	sum := checksum([]byte(key), cell)
	line, err := json.Marshal(record{V: recordVersion, Key: key, Sum: string(sum[:]), Cell: cell})
	if err != nil {
		return fmt.Errorf("store: encode record for %s: %w", key, err)
	}
	if got, err := readRecord(line, key, 0); err != nil || !bytes.Equal(got, cell) {
		return fmt.Errorf("store: record for %s would not read back its cell bytes", key)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.index[key]; dup {
		return nil
	}
	off, n, err := s.j.Append(line)
	if err != nil {
		return fmt.Errorf("store: append %s: %w", key, err)
	}
	s.index[key] = loc{off: off, n: n}
	return nil
}

// GetRaw returns the committed cell for key as its stored interchange
// bytes — one MarshalCell line without the trailing newline, exactly
// what PutRaw stored — after verifying the record: it must parse, hold
// key, and match its checksum. A mismatch (bit rot, a payload spliced
// under the wrong key) is an error, never silently wrong bytes. The
// second return is false when the key has never been committed. The
// returned slice is the caller's.
func (s *Store) GetRaw(key string) ([]byte, bool, error) {
	s.mu.Lock()
	l, ok := s.index[key]
	j := s.j
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	line := make([]byte, l.n)
	if _, err := j.ReadAt(line, l.off); err != nil {
		return nil, false, fmt.Errorf("store: read %s: %w", key, err)
	}
	cell, err := readRecord(bytes.TrimRight(line, "\n"), key, l.off)
	if err != nil {
		return nil, false, err
	}
	return cell, true, nil
}

// The fixed frame PutRaw writes around a key that encoding/json leaves
// unescaped: {"v":1,"key":"<key>","sum":"<8 hex>","cell":<cell>}.
const (
	frameKey  = `{"v":1,"key":"`
	frameSum  = `","sum":"`
	frameCell = `","cell":`
)

// readRecord verifies one record line for key, read at offset off, and
// returns its cell bytes, a sub-slice of line. A record in the fixed
// frame is read with one validity scan of the cell plus the checksum;
// any other shape is decoded by encoding/json. Both accept exactly the
// same records and return the same bytes: the frame's key, sum and cell
// can only decode to themselves, and a frame that does not verify goes
// to the decode, which reports why.
func readRecord(line []byte, key string, off int64) ([]byte, error) {
	if cell, ok := framedCell(line, key); ok {
		return cell, nil
	}
	var rec record
	if err := json.Unmarshal(line, &rec); err != nil {
		return nil, fmt.Errorf("store: decode record for %s: %w", key, err)
	}
	if rec.Key != key {
		return nil, fmt.Errorf("store: record at offset %d holds key %s, wanted %s", off, rec.Key, key)
	}
	if sum := checksum([]byte(rec.Key), rec.Cell); string(sum[:]) != rec.Sum {
		return nil, fmt.Errorf("store: checksum mismatch for %s: record says %s, payload hashes to %s", key, rec.Sum, sum[:])
	}
	return rec.Cell, nil
}

// framedCell returns the cell of a record in the fixed frame for key
// whose cell is one JSON value with no surrounding whitespace and whose
// sum matches; ok is false for anything else.
func framedCell(line []byte, key string) (cell []byte, ok bool) {
	for i := 0; i < len(key); i++ {
		// Printable ASCII that json.Marshal writes verbatim in a string.
		if b := key[i]; b < 0x20 || b > 0x7e || b == '"' || b == '\\' || b == '<' || b == '>' || b == '&' {
			return nil, false
		}
	}
	k := len(frameKey)
	sumAt := k + len(key) + len(frameSum)
	cellAt := sumAt + 8 + len(frameCell)
	if len(line) < cellAt+2 || line[len(line)-1] != '}' ||
		string(line[:k]) != frameKey || string(line[k:k+len(key)]) != key ||
		string(line[k+len(key):sumAt]) != frameSum || string(line[sumAt+8:cellAt]) != frameCell {
		return nil, false
	}
	cell = line[cellAt : len(line)-1]
	if isSpace(cell[0]) || isSpace(cell[len(cell)-1]) || !json.Valid(cell) {
		return nil, false
	}
	if sum := checksum(line[k:k+len(key)], cell); string(sum[:]) != string(line[sumAt:sumAt+8]) {
		return nil, false
	}
	return cell, true
}

// isSpace reports whether b is JSON insignificant whitespace.
func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

// Get is GetRaw decoded: the committed cell for key, verified the same
// way.
func (s *Store) Get(key string) (sweep.AggregateCell, bool, error) {
	raw, ok, err := s.GetRaw(key)
	if !ok || err != nil {
		return sweep.AggregateCell{}, ok, err
	}
	cell, _, err := sweep.UnmarshalCellLine(raw)
	if err != nil {
		return sweep.AggregateCell{}, false, fmt.Errorf("store: %w", err)
	}
	return cell, true, nil
}

// Close releases the log file; the store must not be used after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.j.Close()
}

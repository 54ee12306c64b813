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
// and fsynced before Put returns, and the in-memory key → offset index
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
// encoding Put wrote, which is what the sweep service serves a cache
// hit as, with no decode and re-encode. Get is GetRaw plus the cell
// decode, for callers that want the AggregateCell.
//
// # Concurrency and ownership
//
// One process owns a store directory (sweepd's single-writer
// assumption; nothing here takes file locks). Within the process a
// Store is safe for concurrent use: Put serializes on the writer lock,
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
		// Keep-first, as Put: a later record under a committed key can
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

// checksum is the record checksum: CRC-32C over "<key>\n<cell bytes>".
func checksum(key string, cell []byte) string {
	h := crc32.New(castagnoli)
	h.Write([]byte(key))
	h.Write([]byte{'\n'})
	h.Write(cell)
	return fmt.Sprintf("%08x", h.Sum32())
}

// Put commits one finished cell under its content address. The first
// write wins: a key already committed is left untouched (content
// addressing means a duplicate carries the same result, and keep-first
// preserves the exact bytes earlier readers may already have served).
// Put returns only after the record is fsynced.
func (s *Store) Put(key string, cell sweep.AggregateCell) error {
	var buf bytes.Buffer
	if err := sweep.MarshalCell(json.NewEncoder(&buf), cell); err != nil {
		return fmt.Errorf("store: encode cell for %s: %w", key, err)
	}
	cellBytes := bytes.TrimRight(buf.Bytes(), "\n")
	rec := record{V: recordVersion, Key: key, Sum: checksum(key, cellBytes), Cell: cellBytes}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: encode record for %s: %w", key, err)
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
// what Put encoded — after verifying the record: it must parse, hold
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
	var rec record
	if err := json.Unmarshal(bytes.TrimRight(line, "\n"), &rec); err != nil {
		return nil, false, fmt.Errorf("store: decode record for %s: %w", key, err)
	}
	if rec.Key != key {
		return nil, false, fmt.Errorf("store: record at offset %d holds key %s, wanted %s", l.off, rec.Key, key)
	}
	if got := checksum(rec.Key, rec.Cell); got != rec.Sum {
		return nil, false, fmt.Errorf("store: checksum mismatch for %s: record says %s, payload hashes to %s", key, rec.Sum, got)
	}
	return rec.Cell, true, nil
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

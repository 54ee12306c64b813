package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
)

// ErrMalformed is what a Journal scan callback returns (possibly
// wrapped) to flag a record it cannot parse. Open turns a malformed
// *final* record into a torn-tail truncation — the append was cut by a
// crash and never committed — and a malformed record with records after
// it into a hard corruption error: dropping it silently would hide real
// damage. Any other callback error aborts Open as-is (a record that
// parsed fine but is unacceptable, e.g. a newer version, is not torn —
// it committed, and the reader is too old for it).
var ErrMalformed = errors.New("store: malformed record")

// Journal is a durable append-only line log — the crash-safety
// primitive under both the cell store (cells.log) and sweepd's job
// journal. It owns exactly the store's write discipline:
//
//   - Appends are single-writer (an internal mutex), written in one
//     Write call, and fsynced before Append returns — so a record a
//     caller has announced to anyone is on disk first
//     (fsync-before-announce).
//   - Open scans the whole log, hands every clean record to the
//     caller's callback (which rebuilds whatever index it keeps), and
//     truncates a torn tail — a final line missing its newline, or a
//     final line the callback flags ErrMalformed. A bad record that is
//     not the tail is corruption and fails Open loudly.
//
// Committed bytes are immutable; ReadAt may be used concurrently with
// Append.
type Journal struct {
	mu          sync.Mutex
	f           *os.File
	size        int64
	tailDropped bool
}

// OpenJournal opens (creating if absent) the journal at path and
// replays it: scan is called once per clean record with the record's
// byte offset and its line (without the trailing newline). See
// ErrMalformed for how scan steers torn-tail-vs-corruption handling; a
// nil scan accepts every record.
func OpenJournal(path string, scan func(off int64, line []byte) error) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	j := &Journal{f: f}
	if err := j.replay(scan); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// replay scans the log from the start, truncating a torn tail.
func (j *Journal) replay(scan func(off int64, line []byte) error) error {
	data, err := os.ReadFile(j.f.Name())
	if err != nil {
		return fmt.Errorf("store: scan %s: %w", j.f.Name(), err)
	}
	off := int64(0)
	truncateTail := func() error {
		if err := j.f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncate torn tail at %d: %w", off, err)
		}
		j.tailDropped = true
		j.size = off
		return nil
	}
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			// No newline: the append was cut before the record's
			// terminator, so the record never committed — even if its
			// bytes happen to parse.
			return truncateTail()
		}
		if scan != nil {
			if err := scan(off, data[:nl]); err != nil {
				if !errors.Is(err, ErrMalformed) {
					return fmt.Errorf("store: record at offset %d in %s: %w", off, j.f.Name(), err)
				}
				if len(data) > nl+1 {
					// A malformed record with records after it is not a
					// torn append — it is corruption, and dropping it
					// silently would hide it.
					return fmt.Errorf("store: corrupt record at offset %d in %s: %w", off, j.f.Name(), err)
				}
				return truncateTail()
			}
		}
		off += int64(nl + 1)
		data = data[nl+1:]
	}
	j.size = off
	return nil
}

// TailDropped reports whether Open truncated a torn tail record (a
// crash mid-append; whatever it held was never committed).
func (j *Journal) TailDropped() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tailDropped
}

// Size returns the committed log length in bytes.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Append commits one record: line (which must not contain '\n') plus
// the terminator, written in a single Write call and fsynced before
// Append returns. It returns the record's byte offset and total length
// including the newline — the coordinates ReadAt takes.
func (j *Journal) Append(line []byte) (off, n int64, err error) {
	if bytes.IndexByte(line, '\n') >= 0 {
		return 0, 0, fmt.Errorf("store: journal record contains a newline")
	}
	buf := make([]byte, 0, len(line)+1)
	buf = append(buf, line...)
	buf = append(buf, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	wn, err := j.f.WriteAt(buf, j.size)
	if err != nil {
		return 0, 0, fmt.Errorf("store: append to %s: %w", j.f.Name(), err)
	}
	if err := j.f.Sync(); err != nil {
		return 0, 0, fmt.Errorf("store: sync %s: %w", j.f.Name(), err)
	}
	off = j.size
	j.size += int64(wn)
	return off, int64(wn), nil
}

// ReadAt reads len(p) committed bytes at offset off. Committed records
// are immutable, so reads need no lock against concurrent appends.
func (j *Journal) ReadAt(p []byte, off int64) (int, error) {
	return j.f.ReadAt(p, off)
}

// Close releases the log file; the journal must not be used after.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

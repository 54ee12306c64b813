package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sort"
	"sync"

	"neatbound/internal/stats"
)

// wireCell is the JSON-lines wire form of an AggregateCell: the cell's
// fields plus its error as a string (errors do not round-trip through
// encoding/json). It is the interchange format cmd/sweep -json emits and
// MergeCellStreams merges; docs/interchange.md is the field-by-field
// specification.
type wireCell struct {
	AggregateCell
	// Rep tags a single-replicate record (the ReplicateCell form) with
	// its replicate index; nil on plain aggregates. Only read: the
	// interchange is add-only, so tagged records stay parseable.
	Rep   *int   `json:"rep,omitempty"`
	Error string `json:"error,omitempty"`
	// EngineVersion stamps the producer's engine-semantics version on
	// every record (added under the interchange's add-only rule; absent
	// on pre-stamp streams). It is provenance, not a gate: readers
	// preserve unknown-version records — the sweepd store, which must
	// not pool across semantics, keys on the version instead.
	EngineVersion int `json:"engine_version,omitempty"`
}

// MarshalCells writes one JSON line per cell to w — the streamed
// AggregateCell interchange. Cells with Err set carry it in the "error"
// field.
func MarshalCells(w io.Writer, cells []AggregateCell) error {
	enc := json.NewEncoder(w)
	for _, cell := range cells {
		if err := MarshalCell(enc, cell); err != nil {
			return err
		}
	}
	return nil
}

// MarshalCell encodes a single cell onto enc in the interchange form —
// the streaming building block behind MarshalCells.
func MarshalCell(enc *json.Encoder, cell AggregateCell) error {
	wc := wireCell{AggregateCell: cell, EngineVersion: EngineVersion}
	if cell.Err != nil {
		wc.Error = cell.Err.Error()
	}
	if err := enc.Encode(wc); err != nil {
		return fmt.Errorf("sweep: marshal cell (ν=%g, c=%g): %w", cell.Nu, cell.C, err)
	}
	return nil
}

// UnmarshalCellLine parses one interchange cell record, returning the
// cell and its replicate tag (−1 when the record is a plain aggregate).
func UnmarshalCellLine(line []byte) (AggregateCell, int, error) {
	var wc wireCell
	if err := json.Unmarshal(line, &wc); err != nil {
		return AggregateCell{}, -1, fmt.Errorf("sweep: unmarshal cell record: %w", err)
	}
	cell := wc.AggregateCell
	if wc.Error != "" {
		cell.Err = errors.New(wc.Error)
	}
	rep := -1
	if wc.Rep != nil {
		rep = *wc.Rep
	}
	return cell, rep, nil
}

// UnmarshalCells reads a JSON-lines AggregateCell stream (the
// MarshalCells format), restoring "error" fields into Err. Blank lines
// are skipped, so concatenated per-host outputs parse directly. Replicate
// tags are dropped: a tagged record reads back as a one-replicate
// aggregate, which MergeCells pools like any other duplicate.
//
// Lines are framed as bufio.Scanner's ScanLines frames them (a "\r"
// before the newline is dropped, a final line may lack its newline, a
// line of maxCellLine bytes or more is an error), then decoded in
// contiguous chunks on up to GOMAXPROCS goroutines. The cells keep
// their stream order, and an error names the first failing line — a
// decode error, an over-long line or the read error after the last
// line, whichever comes first in the stream.
func UnmarshalCells(r io.Reader) ([]AggregateCell, error) {
	data, endsWithData, readErr := readCellStream(r)
	lines := make([]cellLine, 0, bytes.Count(data, []byte{'\n'})+1)
	n := 0 // line number, blank lines included
	for len(data) > 0 {
		raw, rest, found := bytes.Cut(data, []byte{'\n'})
		// A Scanner holds a line and its newline in maxCellLine bytes; a
		// final line fills them only when its last Read also ended the
		// stream.
		if len(raw) > maxCellLine || len(raw) == maxCellLine && (found || !endsWithData) {
			readErr = bufio.ErrTooLong
			break
		}
		if !found {
			rest = nil
		}
		data = rest
		n++
		if raw = bytes.TrimSuffix(raw, []byte{'\r'}); len(raw) > 0 {
			lines = append(lines, cellLine{raw: raw, n: n})
		}
	}

	out := make([]AggregateCell, len(lines))
	workers := min(runtime.GOMAXPROCS(0), len(lines)/64+1)
	errs := make([]error, workers) // each chunk's first failing line
	var wg sync.WaitGroup
	for w := range workers {
		lo, hi := w*len(lines)/workers, (w+1)*len(lines)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = decodeCellLines(out[lo:hi], lines[lo:hi])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if readErr != nil {
		return nil, fmt.Errorf("sweep: unmarshal cells: %w", readErr)
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// maxCellLine bounds one interchange line, as the 1 MiB token limit of
// the bufio.Scanner the reader used to frame with did.
const maxCellLine = 1 << 20

// cellLine is one non-blank line of a cell stream and its 1-based line
// number.
type cellLine struct {
	raw []byte
	n   int
}

// decodeCellLines decodes lines into out, stopping at the first line
// that fails.
func decodeCellLines(out []AggregateCell, lines []cellLine) error {
	for i, l := range lines {
		var wc wireCell
		if err := json.Unmarshal(l.raw, &wc); err != nil {
			return fmt.Errorf("sweep: unmarshal cell line %d: %w", l.n, err)
		}
		out[i] = wc.AggregateCell
		if wc.Error != "" {
			out[i].Err = errors.New(wc.Error)
		}
	}
	return nil
}

// readCellStream reads r to its end and returns what it read, whether
// the Read that returned the last bytes also ended the stream, and the
// read error, nil at io.EOF. Like bufio.Scanner it stops at a reader
// that reports an impossible count (bufio.ErrBadReadCount) or returns
// nothing 100 times in a row (io.ErrNoProgress), and once the
// unterminated tail holds maxCellLine bytes, which the stream cannot
// frame as a line unless that Read ended it.
func readCellStream(r io.Reader) (data []byte, endsWithData bool, err error) {
	size := 64 * 1024
	if l, ok := r.(interface{ Len() int }); ok && l.Len() >= 0 {
		size = l.Len() + 1 // an in-memory stream is read in one go
	}
	buf := make([]byte, 0, size)
	tail := 0 // start of the bytes after the last newline
	for empties := 0; len(buf)-tail < maxCellLine; {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, len(buf))
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		if n < 0 || n > cap(buf)-len(buf) {
			return buf, false, bufio.ErrBadReadCount
		}
		if i := bytes.LastIndexByte(buf[len(buf):len(buf)+n], '\n'); i >= 0 {
			tail = len(buf) + i + 1
		}
		buf = buf[:len(buf)+n]
		switch {
		case err == io.EOF:
			return buf, n > 0, nil
		case err != nil:
			return buf, n > 0, err
		case n > 0:
			empties = 0
		default:
			if empties++; empties > 100 {
				return buf, false, io.ErrNoProgress
			}
		}
	}
	return buf, false, nil
}

// MergeCellStreams folds several JSON-lines AggregateCell streams — the
// -json outputs of sweeps run on different hosts, each covering part of
// the grid — into one slice sorted ascending by (ν, c). Cells appearing
// in exactly one stream pass through unchanged; duplicate (ν, c) cells
// (streams that split a cell's replicates) are merged exactly: replicate
// and violation counts add, the Wilson interval is recomputed from the
// pooled counts, and the margin/convergence/fork summaries combine via
// the parallel Welford update (stats.Merge). A duplicate's Err survives
// the merge even when the other side succeeded — a failed or cancelled
// stream must stay visible in the pooled cell.
func MergeCellStreams(streams ...io.Reader) ([]AggregateCell, error) {
	var all []AggregateCell
	for i, r := range streams {
		cells, err := UnmarshalCells(r)
		if err != nil {
			return nil, fmt.Errorf("sweep: merge stream %d: %w", i, err)
		}
		all = append(all, cells...)
	}
	return MergeCells(all)
}

// MergeCells is MergeCellStreams on already-decoded cells.
func MergeCells(cells []AggregateCell) ([]AggregateCell, error) {
	type key struct{ nu, c float64 }
	merged := make(map[key]AggregateCell)
	order := make([]key, 0, len(cells))
	for _, cell := range cells {
		k := key{cell.Nu, cell.C}
		prev, ok := merged[k]
		if !ok {
			merged[k] = cell
			order = append(order, k)
			continue
		}
		m, err := mergePair(prev, cell)
		if err != nil {
			return nil, err
		}
		merged[k] = m
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].nu != order[j].nu {
			return order[i].nu < order[j].nu
		}
		return order[i].c < order[j].c
	})
	out := make([]AggregateCell, len(order))
	for i, k := range order {
		out[i] = merged[k]
	}
	return out, nil
}

// mergePair pools two aggregates of the same (ν, c) cell.
func mergePair(a, b AggregateCell) (AggregateCell, error) {
	out := AggregateCell{
		Nu: a.Nu, C: a.C,
		Replicates:    a.Replicates + b.Replicates,
		ViolationRuns: a.ViolationRuns + b.ViolationRuns,
		Violations:    stats.Merge(a.Violations, b.Violations),
		Margin:        stats.Merge(a.Margin, b.Margin),
		Convergence:   stats.Merge(a.Convergence, b.Convergence),
		Adversary:     stats.Merge(a.Adversary, b.Adversary),
		MaxForkDepth:  stats.Merge(a.MaxForkDepth, b.MaxForkDepth),
	}
	// A side's error always survives the merge: a duplicate that failed
	// wholesale (e.g. a cancelled sweep streaming Replicates = 0 with
	// ctx.Err()) must not silently vanish into the other side's clean
	// aggregate — the driver needs to see that replicates are missing.
	out.Err = a.Err
	if out.Err == nil {
		out.Err = b.Err
	}
	if out.Replicates == 0 {
		return out, nil
	}
	lo, hi, err := stats.WilsonInterval(out.ViolationRuns, out.Replicates)
	if err != nil {
		return out, fmt.Errorf("sweep: merge cell (ν=%g, c=%g): %w", a.Nu, a.C, err)
	}
	out.ViolationRateLo, out.ViolationRateHi = lo, hi
	return out, nil
}

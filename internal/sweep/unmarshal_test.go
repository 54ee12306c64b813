package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"neatbound/internal/adversary"
	"neatbound/internal/engine"
)

// unmarshalCellsSeq is the reference reader: the bufio.Scanner loop
// that decoded one line at a time before the decode went parallel.
func unmarshalCellsSeq(r io.Reader) ([]AggregateCell, error) {
	var out []AggregateCell
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var wc wireCell
		if err := json.Unmarshal(raw, &wc); err != nil {
			return nil, fmt.Errorf("sweep: unmarshal cell line %d: %w", line, err)
		}
		cell := wc.AggregateCell
		if wc.Error != "" {
			cell.Err = errors.New(wc.Error)
		}
		out = append(out, cell)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sweep: unmarshal cells: %w", err)
	}
	return out, nil
}

// sameCells reports how UnmarshalCells and the reference differ on the
// stream newReader yields ("" when they agree): the same error text, or
// the same nil-ness and MarshalCells bytes.
func sameCells(newReader func() io.Reader) string {
	got, gotErr := UnmarshalCells(newReader())
	want, wantErr := unmarshalCellsSeq(newReader())
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
		}
		if got != nil {
			return fmt.Sprintf("%d cells returned with error %v", len(got), gotErr)
		}
		return ""
	}
	if (got == nil) != (want == nil) {
		return fmt.Sprintf("nil result %v, reference %v", got == nil, want == nil)
	}
	var g, w bytes.Buffer
	if err := MarshalCells(&g, got); err != nil {
		return err.Error()
	}
	if err := MarshalCells(&w, want); err != nil {
		return err.Error()
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		return fmt.Sprintf("%d cells, reference %d; bytes differ", len(got), len(want))
	}
	return ""
}

// cellStream is n MarshalCells lines of distinct cells, every seventh
// carrying an error string.
func cellStream(t testing.TB, n int) []byte {
	cells := make([]AggregateCell, n)
	for i := range cells {
		cells[i] = AggregateCell{Nu: 0.01 * float64(i%40), C: float64(1 + i/40), Replicates: i % 5, ViolationRuns: i % 3}
		cells[i].Margin.Mean = float64(i) / 7
		if i%7 == 0 {
			cells[i].Err = fmt.Errorf("cell %d: p ≤ 0 <nil>", i)
		}
	}
	var buf bytes.Buffer
	if err := MarshalCells(&buf, cells); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withLine replaces line i (0-based) of stream with repl.
func withLine(stream []byte, i int, repl string) []byte {
	lines := strings.SplitAfter(string(stream), "\n")
	lines[i] = repl + "\n"
	return []byte(strings.Join(lines, ""))
}

// TestUnmarshalCellsParity pins the parallel decode to the sequential
// Scanner reader it replaced, at GOMAXPROCS 1 and 2: the same cells in
// the same order, or the same error naming the same first failing line,
// over line-ending and blank-line variants, empty input, bad lines at
// either end and across the chunk boundary, the 1 MiB line limit on
// either side of a bad line, and readers that fail, dribble, stall,
// overcount or report EOF with their last bytes. -short decodes 130 lines where the full run
// decodes 1000.
func TestUnmarshalCellsParity(t *testing.T) {
	lines := 1000
	if testing.Short() {
		lines = 130 // still two chunks at GOMAXPROCS 2
	}
	base := cellStream(t, lines)
	// The framing cases need a few chunks, the 1 MiB ones only the limit.
	mid, short := cellStream(t, 130), cellStream(t, 5)
	good := strings.TrimSuffix(strings.SplitAfter(string(base), "\n")[1], "\n")
	// Lines of n bytes: a valid cell padded with spaces, and garbage that
	// fails to decode at its first byte, so a line framed as one names
	// its number and a line over the limit fails as too long.
	pad := func(n int) string { return good + strings.Repeat(" ", n-len(good)) }
	junk := func(n int) string { return strings.Repeat("x", n) }
	long := junk(1 << 20)
	streams := map[string][]byte{
		"canonical":          base,
		"CRLF":               bytes.ReplaceAll(mid, []byte("\n"), []byte("\r\n")),
		"blank lines":        bytes.ReplaceAll(mid, []byte("}\n{"), []byte("}\n\n\r\n{")),
		"no final newline":   bytes.TrimSuffix(mid, []byte("\n")),
		"CRLF, no final LF":  bytes.TrimSuffix(bytes.ReplaceAll(mid, []byte("\n"), []byte("\r\n")), []byte("\n")),
		"empty":              nil,
		"blank only":         []byte("\n\r\n\n"),
		"spaces only":        []byte("  \n"),
		"bare CR":            []byte("\r"),
		"bad first":          withLine(base, 0, "not json"),
		"bad middle":         withLine(base, lines/2, `{"nu":"x"}`),
		"bad last":           withLine(base, lines-1, "{"),
		"bad in each chunk":  withLine(withLine(base, lines*7/10, "null x"), lines/10, "]"),
		"long before bad":    withLine(withLine(short, 3, "{"), 1, long),
		"long after bad":     withLine(withLine(short, 3, long), 1, "{"),
		"long last":          append(append([]byte(nil), short...), long...),
		"longest line":       append(append([]byte(nil), short...), pad(1<<20-1)+"\n"...),
		"longest CRLF line":  append(append([]byte(nil), short...), junk(1<<20-2)+"\r\n"...),
		"long CRLF line":     append(append([]byte(nil), short...), junk(1<<20-1)+"\r\n"...),
		"longest final line": append(append([]byte(nil), short...), junk(1<<20-1)...),
		"long final line":    append(append([]byte(nil), short...), junk(1<<20)...),
		"whitespace line":    withLine(base, 10, "   "),
	}
	readers := map[string]func([]byte) io.Reader{
		"bytes":    func(b []byte) io.Reader { return bytes.NewReader(b) },
		"one byte": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		"fails": func(b []byte) io.Reader {
			return io.MultiReader(bytes.NewReader(b), iotest.ErrReader(errors.New("link down")))
		},
		"half read":  func(b []byte) io.Reader { return iotest.TimeoutReader(iotest.HalfReader(bytes.NewReader(b))) },
		"data+EOF":   func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
		"stalls":     func(b []byte) io.Reader { return io.MultiReader(bytes.NewReader(b), stallReader{}) },
		"overcounts": func(b []byte) io.Reader { return io.MultiReader(bytes.NewReader(b), overcountReader{}) },
	}
	// These readers change only how the stream arrives or ends, which
	// the shorter streams show as well as the long ones.
	framingOnly := map[string]bool{"one byte": true, "stalls": true, "overcounts": true}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for sname, stream := range streams {
			for rname, reader := range readers {
				if framingOnly[rname] && len(stream) > len(mid)+2*lines {
					continue
				}
				if diff := sameCells(func() io.Reader { return reader(stream) }); diff != "" {
					t.Errorf("GOMAXPROCS %d, %s stream, %s reader: %s", procs, sname, rname, diff)
				}
			}
		}
	}
}

// stallReader returns nothing, forever: bufio.Scanner gives up with
// io.ErrNoProgress.
type stallReader struct{}

func (stallReader) Read([]byte) (int, error) { return 0, nil }

// overcountReader claims more bytes than it was given room for:
// bufio.Scanner stops with bufio.ErrBadReadCount.
type overcountReader struct{}

func (overcountReader) Read(p []byte) (int, error) { return len(p) + 1, nil }

// sessionStream is the result stream of a fully cached sweepd-session
// job: the cells of its 10 × 40 grid (ν at 0.02 steps, c log-spaced over
// [0.5, 10]; n = 40, Δ = 4, 2000 rounds, private mining of fork depth 3,
// one replicate each), as MarshalCells writes them.
func sessionStream(b *testing.B) []byte {
	cfg := Config{N: 40, Delta: 4, Rounds: 2000, Seed: 7, T: 4,
		NewAdversary: func() engine.Adversary { return &adversary.PrivateMining{MinForkDepth: 3} }}
	for i := 1; i <= 10; i++ {
		cfg.NuValues = append(cfg.NuValues, math.Round(20*float64(i))/1000)
	}
	for j := 0; j < 40; j++ {
		cfg.CValues = append(cfg.CValues, math.Round(500*math.Pow(20, float64(j)/39))/1000)
	}
	cells, err := RunGrid(context.Background(), cfg, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := MarshalCells(&buf, cells); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkUnmarshalCells decodes one cached sweepd-session result (400
// cells), the client's last step of every Wait.
func BenchmarkUnmarshalCells(b *testing.B) {
	stream := sessionStream(b)
	b.SetBytes(int64(len(stream)))
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		if _, err := UnmarshalCells(bytes.NewReader(stream)); err != nil {
			b.Fatal(err)
		}
	}
}

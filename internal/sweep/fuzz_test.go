package sweep

import (
	"bytes"
	"io"
	"testing"
)

// FuzzUnmarshalCells drives the cell-interchange reader with arbitrary
// byte streams: malformed input must come back as an error, never a
// panic, the result must match the sequential Scanner reference (same
// cells or same error), and any stream that parses must survive
// MergeCells (what MergeCellStreams does next with every decoded
// stream).
func FuzzUnmarshalCells(f *testing.F) {
	var buf bytes.Buffer
	if err := MarshalCells(&buf, []AggregateCell{{Nu: 0.3, C: 2, Replicates: 3, ViolationRuns: 1}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(""))
	f.Add([]byte("\n\n"))
	f.Add([]byte("{\"nu\":0.3,\"c\":"))
	f.Add([]byte("{\"nu\":\"not a number\"}\n"))
	f.Add([]byte("null\n{}\n"))
	f.Add([]byte(`{"nu":0.1,"c":1,"rep":0,"error":"boom"}` + "\n"))
	f.Add([]byte("{}\r\n\r\n{\"nu\":1}\r\n{"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if diff := sameCells(func() io.Reader { return bytes.NewReader(data) }); diff != "" {
			t.Fatalf("UnmarshalCells differs from the reference: %s", diff)
		}
		cells, err := UnmarshalCells(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := MergeCells(cells); err != nil {
			// Decoded-but-unmergeable (e.g. absurd counts) must also be an
			// error, not a panic; nothing further to check.
			return
		}
	})
}

// FuzzMergeCellStreams drives the multi-stream merge with two arbitrary
// streams: no panic on malformed input, and a successful merge must come
// back sorted ascending by (ν, c) — the reassembly contract.
func FuzzMergeCellStreams(f *testing.F) {
	var a, b bytes.Buffer
	if err := MarshalCells(&a, []AggregateCell{{Nu: 0.3, C: 2, Replicates: 1}}); err != nil {
		f.Fatal(err)
	}
	if err := MarshalCells(&b, []AggregateCell{{Nu: 0.3, C: 2, Replicates: 2, ViolationRuns: 1}, {Nu: 0.2, C: 5, Replicates: 1}}); err != nil {
		f.Fatal(err)
	}
	f.Add(a.Bytes(), b.Bytes())
	f.Add([]byte(""), []byte("{"))
	f.Add([]byte("{}\n{}\n"), []byte("null\n"))
	f.Fuzz(func(t *testing.T, sa, sb []byte) {
		merged, err := MergeCellStreams(bytes.NewReader(sa), bytes.NewReader(sb))
		if err != nil {
			return
		}
		for i := 1; i < len(merged); i++ {
			p, q := merged[i-1], merged[i]
			if p.Nu > q.Nu || (p.Nu == q.Nu && p.C >= q.C) {
				t.Fatalf("merged cells out of (ν, c) order at %d: (%g,%g) then (%g,%g)",
					i, p.Nu, p.C, q.Nu, q.C)
			}
		}
	})
}

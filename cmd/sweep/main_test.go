package main

import (
	"bytes"
	"context"
	"io"
	"strings"
	"testing"

	"neatbound"
)

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("0.1, 0.2 ,0.3")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0.1 || got[2] != 0.3 {
		t.Errorf("parsed %v", got)
	}
	if _, err := parseFloats("1,x,3"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestRunSmallGrid(t *testing.T) {
	if err := run([]string{
		"-n", "20", "-delta", "2",
		"-nu", "0.25", "-c", "2,10",
		"-rounds", "1000", "-adversary", "max-delay",
	}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunInfeasibleCellPrinted(t *testing.T) {
	// Infeasible cells are reported inline, not fatal.
	if err := run([]string{
		"-n", "4", "-delta", "1",
		"-nu", "0.3", "-c", "0.01",
		"-rounds", "100", "-adversary", "passive",
	}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownAdversary(t *testing.T) {
	if err := run([]string{"-adversary", "bogus", "-rounds", "100"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown adversary accepted")
	}
}

func TestRunBadNuList(t *testing.T) {
	if err := run([]string{"-nu", "abc", "-rounds", "100"}, io.Discard, io.Discard); err == nil {
		t.Error("bad ν list accepted")
	}
}

func TestRunBadCList(t *testing.T) {
	if err := run([]string{"-c", "1,,2", "-rounds", "100"}, io.Discard, io.Discard); err == nil {
		t.Error("bad c list accepted")
	}
}

// TestRunCheckpointResume drives -checkpoint end to end: a one-row
// checkpointed sweep fills the cell store, and a two-row rerun against
// the same directory serves the whole first row from it, computes only
// the new row, and prints exactly the MarshalCells bytes of a cold
// RunSweep of the two-row grid.
func TestRunCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	args := func(nu string, extra ...string) []string {
		return append([]string{
			"-n", "8", "-delta", "2",
			"-nu", nu, "-c", "2,10",
			"-rounds", "200", "-adversary", "max-delay",
			"-replicates", "2",
			"-checkpoint", dir,
		}, extra...)
	}
	if err := run(args("0.2", "-json"), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run(args("0.2,0.3", "-json"), &stdout, &stderr); err != nil {
		t.Fatalf("rerun: %v", err)
	}
	// Row 0 (two c values) comes from the store; row 1 is computed.
	if want := "2 cells served from the store, 2 computed"; !strings.Contains(stderr.String(), want) {
		t.Errorf("rerun status %q, want %q", stderr.String(), want)
	}

	cold, err := neatbound.RunSweep(context.Background(),
		neatbound.SweepGrid{N: 8, Delta: 2, NuValues: []float64{0.2, 0.3}, CValues: []float64{2, 10}},
		neatbound.WithRounds(200), neatbound.WithSeed(1), neatbound.WithConsistency(4, 0),
		neatbound.WithAdversaryName("max-delay", neatbound.AdversaryOpts{ForkDepth: 4}),
		neatbound.WithReplicates(2))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := neatbound.MarshalCells(&want, cold); err != nil {
		t.Fatal(err)
	}
	if stdout.String() != want.String() {
		t.Errorf("resumed -json output differs from a cold RunSweep\ngot:\n%s\nwant:\n%s", stdout.String(), want.String())
	}

	// The table layout reads the same store: everything is cached, and
	// every cell gets a row under the header.
	stdout.Reset()
	stderr.Reset()
	if err := run(args("0.2,0.3"), &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if want := "4 cells served from the store, 0 computed"; !strings.Contains(stderr.String(), want) {
		t.Errorf("table rerun status %q, want %q", stderr.String(), want)
	}
	if rows := strings.Count(stdout.String(), "\n"); rows != 1+len(cold) {
		t.Errorf("table rerun printed %d lines, want a header and %d rows:\n%s", rows, len(cold), stdout.String())
	}
}

package consistency

import (
	"errors"
	"fmt"
	"testing"

	"neatbound/internal/adversary"
	"neatbound/internal/blockchain"
	"neatbound/internal/engine"
	"neatbound/internal/params"
)

// refViolations is the per-pair reference scan the labelled one
// replaced: one Tree.PrefixHolds call per tip pair, in the same
// lexicographic order, with every error carrying the package prefix.
func refViolations(c *Checker, tree *blockchain.Tree, chop int) ([]Violation, error) {
	var out []Violation
	for ri := range c.snaps {
		for si := ri; si < len(c.snaps); si++ {
			sr, ss := c.snaps[ri], c.snaps[si]
			for _, a := range sr.Tips {
				for _, b := range ss.Tips {
					if sr.Round == ss.Round && a == b {
						continue
					}
					ok, err := tree.PrefixHolds(a, b, chop)
					if err != nil {
						return nil, fmt.Errorf("consistency: %w", err)
					}
					if ok {
						continue
					}
					depth, err := forkDepth(tree, a, b)
					if err != nil {
						return nil, fmt.Errorf("consistency: %w", err)
					}
					out = append(out, Violation{RoundR: sr.Round, RoundS: ss.Round, TipA: a, TipB: b, ForkDepth: depth})
				}
			}
		}
	}
	return out, nil
}

// refMaxForkDepth is the per-pair reference for MaxForkDepth.
func refMaxForkDepth(c *Checker, tree *blockchain.Tree) (int, error) {
	max := 0
	for ri := range c.snaps {
		for si := ri; si < len(c.snaps); si++ {
			for _, a := range c.snaps[ri].Tips {
				for _, b := range c.snaps[si].Tips {
					ok, err := tree.PrefixHolds(a, b, max)
					if err != nil {
						return 0, fmt.Errorf("consistency: %w", err)
					}
					if ok {
						continue
					}
					d, err := forkDepth(tree, a, b)
					if err != nil {
						return 0, fmt.Errorf("consistency: %w", err)
					}
					if d > max {
						max = d
					}
				}
			}
		}
	}
	return max, nil
}

// requireScansMatchRef checks both scans against the references at
// chops 0–7: identical violation lists in order, identical depths, and
// identical error outcomes down to the message. It returns how many
// violations the chops produced.
func requireScansMatchRef(t *testing.T, name string, ck *Checker, tree *blockchain.Tree) int {
	t.Helper()
	sameErr := func(got, want error) bool {
		return (got == nil) == (want == nil) && (got == nil || got.Error() == want.Error())
	}
	total := 0
	for chop := 0; chop <= 7; chop++ {
		want, wantErr := refViolations(ck, tree, chop)
		got, err := ck.ViolationsAtChop(tree, chop)
		if !sameErr(err, wantErr) {
			t.Fatalf("%s chop %d: error %v, reference %v", name, chop, err, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s chop %d: %d violations, reference %d", name, chop, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s chop %d: violation %d is %+v, reference %+v", name, chop, i, got[i], want[i])
			}
		}
		total += len(want)
	}
	wantDepth, wantErr := refMaxForkDepth(ck, tree)
	depth, err := ck.MaxForkDepth(tree)
	if !sameErr(err, wantErr) || depth != wantDepth {
		t.Fatalf("%s: MaxForkDepth %d (%v), reference %d (%v)", name, depth, err, wantDepth, wantErr)
	}
	return total
}

// floorCuts counts the snapshot tips whose Definition-1 cut at chop
// lands in (0, FloorHeight] of a compacted tree — the cuts the labelled
// scan must leave to Tree.PrefixHolds.
func floorCuts(ck *Checker, tree *blockchain.Tree, chop int) int {
	n := 0
	for _, s := range ck.snaps {
		for _, a := range s.Tips {
			h, err := tree.Height(a)
			if err == nil && tree.Base() != blockchain.GenesisID && h-chop > 0 && h-chop <= tree.FloorHeight() {
				n++
			}
		}
	}
	return n
}

// TestScanMatchesPerPairPredicate pins the labelled scans against the
// per-pair PrefixHolds scans they replaced, over attack runs with full
// history and with a bounded window under aggressive compaction, plus a
// hand-built compacted tree whose snapshots name an orphan branch,
// unknown and retired tips — where only the exact PrefixHolds fallback
// reproduces the reference's answers and errors.
func TestScanMatchesPerPairPredicate(t *testing.T) {
	floorHits, violations := 0, 0
	for seed := uint64(1); seed <= 6; seed++ {
		for _, compact := range []bool{false, true} {
			ck, err := NewChecker(3, 8)
			if err != nil {
				t.Fatal(err)
			}
			cfg := engine.Config{
				Params:    params.Params{N: 40, P: 0.005, Delta: 8, Nu: 0.45},
				Rounds:    1200,
				Seed:      seed,
				Adversary: &adversary.PrivateMining{MinForkDepth: 3},
				Observer:  ck,
			}
			if compact {
				ck.SetRetention(4)
				cfg.CompactEvery, cfg.CompactMinRetire = 40, 1
			}
			e, err := engine.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if compact && res.Tree.Base() == blockchain.GenesisID {
				t.Fatalf("seed %d: compaction never retired a block", seed)
			}
			name := fmt.Sprintf("seed %d compact=%v", seed, compact)
			violations += requireScansMatchRef(t, name, ck, res.Tree)
			for chop := 0; chop <= 7; chop++ {
				floorHits += floorCuts(ck, res.Tree, chop)
			}
		}
	}
	if violations == 0 {
		t.Error("no fixture produced a violation — the comparison is vacuous")
	}
	if floorHits == 0 {
		t.Error("no tip's cut reached the compaction floor — the PrefixHolds fallback is untested")
	}

	// Hand-built: main chain 1…10, a fork 11 off the floor block 5, and
	// an orphan branch 12…18 off block 1 that compaction at 5 cuts
	// loose. MaxForkDepth's maximum grows to 5 on (10, 11), which puts
	// the cut of tip 10 on the floor, so the next pair (10, 18) must
	// take the fallback's error, not a label comparison's fork walk.
	tree := blockchain.NewTree()
	add := func(id, parent blockchain.BlockID) {
		t.Helper()
		if err := tree.Add(&blockchain.Block{ID: id, Parent: parent}); err != nil {
			t.Fatal(err)
		}
	}
	for id := blockchain.BlockID(1); id <= 10; id++ {
		add(id, id-1)
	}
	add(11, 5)
	add(12, 1)
	for id := blockchain.BlockID(13); id <= 18; id++ {
		add(id, id-1)
	}
	if _, err := tree.CompactBelow(5); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		snaps [][]blockchain.BlockID
	}{
		{"orphan", [][]blockchain.BlockID{{10}, {11, 18}}},
		{"orphan first", [][]blockchain.BlockID{{18, 10}, {9, 11}}},
		{"floor tips", [][]blockchain.BlockID{{5, 6}, {10, 11}}},
		{"unknown tip", [][]blockchain.BlockID{{10, 11}, {9, 99}}},
		{"retired tip", [][]blockchain.BlockID{{10}, {11}, {3}}},
	} {
		ck := &Checker{T: 0, Every: 1}
		for r, tips := range tc.snaps {
			ck.snaps = append(ck.snaps, Snapshot{Round: r, Tips: tips})
		}
		requireScansMatchRef(t, tc.name, ck, tree)
	}
	ck := &Checker{T: 0, Every: 1, snaps: []Snapshot{{Round: 0, Tips: []blockchain.BlockID{10}}, {Round: 1, Tips: []blockchain.BlockID{11, 18}}}}
	if _, err := ck.MaxForkDepth(tree); !errors.Is(err, blockchain.ErrCompacted) {
		t.Fatalf("orphan fixture MaxForkDepth error %v, want ErrCompacted", err)
	}
}

// BenchmarkCheckerScan times the post-run Definition-1 scans of one
// sweepd-session cell: n = 40, Δ = 4, 2000 rounds, a private attacker
// publishing at fork depth 3, T = 4, a snapshot every 40 rounds (the
// sweep default of rounds/50), at ν = 0.1 and the grid's lowest
// c = 0.5, its most fork-heavy column. One op is Check plus MaxForkDepth,
// what sweep.RunOne runs per cell.
func BenchmarkCheckerScan(b *testing.B) {
	ck, err := NewChecker(4, 40)
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(engine.Config{
		Params:    params.MustFromC(40, 4, 0.1, 0.5),
		Rounds:    2000,
		Seed:      1,
		Adversary: &adversary.PrivateMining{MinForkDepth: 3},
		Observer:  ck,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ck.Check(res.Tree); err != nil {
			b.Fatal(err)
		}
		if _, err := ck.MaxForkDepth(res.Tree); err != nil {
			b.Fatal(err)
		}
	}
}

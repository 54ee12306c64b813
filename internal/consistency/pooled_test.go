package consistency

import (
	"errors"
	"strings"
	"testing"

	"neatbound/internal/adversary"
	"neatbound/internal/blockchain"
	"neatbound/internal/engine"
	"neatbound/internal/params"
	"neatbound/internal/pool"
)

// attackedChecker runs a seeded, violation-rich execution (private
// mining in the attack regime) with a densely sampling checker attached
// and returns the checker plus the final tree.
func attackedChecker(t *testing.T, seed uint64, rounds, every int) (*Checker, *blockchain.Tree) {
	t.Helper()
	ck, err := NewChecker(3, every)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(engine.Config{
		Params:    params.Params{N: 40, P: 0.005, Delta: 8, Nu: 0.45},
		Rounds:    rounds,
		Seed:      seed,
		Adversary: &adversary.PrivateMining{MinForkDepth: 3},
		Observer:  ck,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return ck, res.Tree
}

// TestPooledViolationsViaUsePool pins that the ignored UsePool stays
// result-neutral: a checker handed pool.Default() reproduces the plain
// checker's violations and fork depth, on a fixture that has violations.
func TestPooledViolationsViaUsePool(t *testing.T) {
	ck, tree := attackedChecker(t, 3, 2000, 8)
	want, err := ck.Check(tree)
	if err != nil {
		t.Fatal(err)
	}
	wantDepth, err := ck.MaxForkDepth(tree)
	if err != nil {
		t.Fatal(err)
	}
	ck.UsePool(pool.Default())
	got, err := ck.Check(tree)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("with UsePool %d violations, without %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("violation %d diverged: with UsePool %+v, without %+v", i, got[i], want[i])
		}
	}
	if len(want) == 0 {
		t.Fatal("fixture produced no violations — the comparison is vacuous")
	}
	if gotDepth, err := ck.MaxForkDepth(tree); err != nil || gotDepth != wantDepth {
		t.Fatalf("MaxForkDepth with UsePool %d (%v), without %d", gotDepth, err, wantDepth)
	}
}

// TestPooledViolationsErrorMatchesSerial pins the error contract: a
// snapshot referencing an unknown block makes Check and MaxForkDepth
// fail, with or without the ignored UsePool, Check returns no partial
// violation list, and both errors carry the package prefix while still
// matching the tree's sentinel under errors.Is.
func TestPooledViolationsErrorMatchesSerial(t *testing.T) {
	ck, tree := attackedChecker(t, 3, 1000, 8)
	// Corrupt a mid-sequence snapshot with a tip the tree never saw.
	ck.snaps[len(ck.snaps)/2].Tips = []blockchain.BlockID{987654}
	serialViols, serialErr := violationsAt(ck, tree, 0)
	if serialErr == nil {
		t.Fatal("scan accepted an unknown tip")
	}
	_, depthErr := ck.MaxForkDepth(tree)
	if depthErr == nil {
		t.Fatal("depth scan accepted an unknown tip")
	}
	for _, err := range []error{serialErr, depthErr} {
		if !strings.HasPrefix(err.Error(), "consistency: ") || !errors.Is(err, blockchain.ErrUnknownBlock) {
			t.Fatalf("scan error %q: want the consistency: prefix wrapping ErrUnknownBlock", err)
		}
	}
	ck.UsePool(pool.Default())
	pooledViols, pooledErr := violationsAt(ck, tree, 0)
	if pooledErr == nil {
		t.Fatal("scan with UsePool accepted an unknown tip")
	}
	if pooledErr.Error() != serialErr.Error() {
		t.Fatalf("errors diverged:\nwith UsePool %v\nwithout %v", pooledErr, serialErr)
	}
	if serialViols != nil || pooledViols != nil {
		t.Fatalf("violations returned alongside error: without UsePool %d, with %d", len(serialViols), len(pooledViols))
	}
}

// TestMaxForkDepthIsSmallestConsistentChop pins MaxForkDepth's
// definition against the violation lists at other chops on attack runs:
// with d the depth, the run is consistent at chop d but not at d−1, and
// the violations at chop 0 have fork depths in [1, d] with d attained.
// Depth and violations come out of the same scan, so this checks the
// scan's two outputs against each other across chops; the per-pair
// references in scan_test.go check each against the tree predicate.
func TestMaxForkDepthIsSmallestConsistentChop(t *testing.T) {
	for _, seed := range []uint64{3, 17, 29} {
		ck, tree := attackedChecker(t, seed, 2000, 8)
		d, err := ck.MaxForkDepth(tree)
		if err != nil {
			t.Fatal(err)
		}
		if d < 1 {
			t.Fatalf("seed=%d: fixture produced no forks (depth %d) — the checks are vacuous", seed, d)
		}
		if viols, err := violationsAt(ck, tree, d); err != nil || len(viols) != 0 {
			t.Fatalf("seed=%d: %d violations (%v) at chop %d = MaxForkDepth, want none", seed, len(viols), err, d)
		}
		if viols, err := violationsAt(ck, tree, d-1); err != nil || len(viols) == 0 {
			t.Fatalf("seed=%d: no violations (%v) at chop %d = MaxForkDepth−1", seed, err, d-1)
		}
		viols, err := violationsAt(ck, tree, 0)
		if err != nil {
			t.Fatal(err)
		}
		deepest := 0
		for _, v := range viols {
			if v.ForkDepth < 1 {
				t.Fatalf("seed=%d: violation at chop 0 with fork depth %d: %+v", seed, v.ForkDepth, v)
			}
			if v.ForkDepth > deepest {
				deepest = v.ForkDepth
			}
		}
		if deepest != d {
			t.Fatalf("seed=%d: deepest violation at chop 0 is %d, MaxForkDepth %d", seed, deepest, d)
		}
	}
}

// TestCheckerArenaSnapshotsStable pins the snapshot copies: snapshots
// taken early must keep their tips intact while the engine reuses its
// tip buffers for later rounds, and every snapshot must match a fresh
// DistinctTips-style read taken at sampling time.
func TestCheckerArenaSnapshotsStable(t *testing.T) {
	ck, err := NewChecker(3, 1) // sample every round: maximal buffer reuse
	if err != nil {
		t.Fatal(err)
	}
	var live [][]blockchain.BlockID // DistinctTips copies taken per round
	probe := engine.ObserverFunc(func(e *engine.Engine, _ engine.RoundRecord) {
		live = append(live, append([]blockchain.BlockID(nil), e.DistinctTips()...))
	})
	e, err := engine.New(engine.Config{
		Params:    params.Params{N: 40, P: 0.005, Delta: 8, Nu: 0.45},
		Rounds:    800,
		Seed:      9,
		Adversary: &adversary.PrivateMining{MinForkDepth: 3},
		Observer:  engine.Observers(ck, probe),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ck.snaps) != len(live) {
		t.Fatalf("%d snapshots, %d probe reads", len(ck.snaps), len(live))
	}
	for i, s := range ck.snaps {
		if len(s.Tips) != len(live[i]) {
			t.Fatalf("snapshot %d (round %d): %d tips, probe saw %d", i, s.Round, len(s.Tips), len(live[i]))
		}
		for j := range s.Tips {
			if s.Tips[j] != live[i][j] {
				t.Fatalf("snapshot %d (round %d) tip %d: copy %d, probe %d — a later sample clobbered the copy",
					i, s.Round, j, s.Tips[j], live[i][j])
			}
		}
	}
}

package consistency

import (
	"slices"
	"testing"

	"neatbound/internal/blockchain"
	"neatbound/internal/engine"
	"neatbound/internal/params"
)

// runWithCompaction executes a run with aggressive compaction (every 100
// rounds, no minimum-retire gate) and the checker attached as a real
// Observer, so the engine sees its Retainer.
func runWithCompaction(t *testing.T, ck *Checker, rounds int) *engine.Result {
	t.Helper()
	pr := params.Params{N: 20, P: 0.01, Delta: 3, Nu: 0.25}
	e, err := engine.New(engine.Config{
		Params: pr, Rounds: rounds, Seed: 11, Observer: ck,
		CompactEvery: 100, CompactMinRetire: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireSnapshotsLive asserts the retention contract: every tip of
// every retained snapshot survived compaction, and the pairwise
// Definition-1 scan over the retained window completes without hitting
// retired blocks.
func requireSnapshotsLive(t *testing.T, ck *Checker, tree *blockchain.Tree) {
	t.Helper()
	for _, s := range ck.Snapshots() {
		for _, tip := range s.Tips {
			if !tree.Has(tip) {
				t.Fatalf("snapshot round %d tip %d was retired (base %d)", s.Round, tip, tree.Base())
			}
		}
	}
	if _, err := ck.Check(tree); err != nil {
		t.Fatalf("retained-window scan failed: %v", err)
	}
	if _, err := ck.MaxForkDepth(tree); err != nil {
		t.Fatalf("retained-window fork depth failed: %v", err)
	}
}

// TestCheckerFullHistoryPinsWatermark: with the default full-history
// retention, the checker's pin is the common ancestor of every snapshot
// ever taken, so the watermark cannot climb past the run's earliest
// fork point — the arena effectively never shrinks, and every snapshot
// stays scannable.
func TestCheckerFullHistoryPinsWatermark(t *testing.T) {
	ck, err := NewChecker(6, 50)
	if err != nil {
		t.Fatal(err)
	}
	res := runWithCompaction(t, ck, 2000)
	if !ck.pinOK {
		t.Fatal("pin never established despite snapshots")
	}
	if res.Tree.Base() > ck.pin {
		t.Errorf("base %d climbed past the pin %d", res.Tree.Base(), ck.pin)
	}
	requireSnapshotsLive(t, ck, res.Tree)
}

// TestCheckerRetentionUnpinsWatermark: a bounded snapshot window lets
// the pin — and with it the compaction watermark — follow the live
// suffix, so the arena genuinely shrinks while the retained window
// still scans cleanly.
func TestCheckerRetentionUnpinsWatermark(t *testing.T) {
	ck, err := NewChecker(6, 50)
	if err != nil {
		t.Fatal(err)
	}
	ck.SetRetention(4)
	res := runWithCompaction(t, ck, 2000)
	if got := len(ck.Snapshots()); got != 4 {
		t.Fatalf("retained %d snapshots, want 4", got)
	}
	if res.Tree.Base() == blockchain.GenesisID {
		t.Fatal("compaction never fired despite bounded retention — the test proves nothing")
	}
	if res.Tree.LiveBlocks() >= res.Tree.Len() {
		t.Errorf("no blocks retired: live %d of %d", res.Tree.LiveBlocks(), res.Tree.Len())
	}
	if res.Tree.Base() > ck.pin {
		t.Errorf("base %d climbed past the pin %d", res.Tree.Base(), ck.pin)
	}
	requireSnapshotsLive(t, ck, res.Tree)
}

// TestCheckerAppendRetained pins the Retainer surface directly.
func TestCheckerAppendRetained(t *testing.T) {
	ck, err := NewChecker(6, 50)
	if err != nil {
		t.Fatal(err)
	}
	// No snapshots yet: nothing retained, compaction allowed.
	buf, ok := ck.AppendRetained(nil)
	if !ok || len(buf) != 0 {
		t.Errorf("empty checker retained %v ok=%v, want nothing", buf, ok)
	}
	ck.SetRetention(2)
	res := runWithCompaction(t, ck, 1000)
	buf, ok = ck.AppendRetained(buf[:0])
	if !ok || len(buf) != 1 || buf[0] != ck.pin {
		t.Fatalf("AppendRetained = %v ok=%v, want the pin %d", buf, ok, ck.pin)
	}
	// The pin is a live common ancestor of every retained tip.
	if !res.Tree.Has(ck.pin) {
		t.Fatal("pin itself was retired")
	}
	for _, s := range ck.Snapshots() {
		for _, tip := range s.Tips {
			anc, err := res.Tree.IsAncestor(ck.pin, tip)
			if err != nil || !anc {
				t.Fatalf("pin %d not an ancestor of retained tip %d: %v", ck.pin, tip, err)
			}
		}
	}
	// A broken pin fold vetoes compaction forever after.
	ck.pinBroken = true
	if _, ok := ck.AppendRetained(nil); ok {
		t.Error("broken pin still permits compaction")
	}
}

// TestSetRetentionShrinkDropsSnapshots: shrinking the window mid-run
// must keep exactly the newest snapshots, intact, and drop the rest at
// once — no slot of the snapshot slice's backing array past the window
// may still reference a dropped snapshot's tips.
func TestSetRetentionShrinkDropsSnapshots(t *testing.T) {
	ck, err := NewChecker(6, 50)
	if err != nil {
		t.Fatal(err)
	}
	tips := make([]blockchain.BlockID, 8)
	appendSnaps := func(from, to int) {
		for i := from; i < to; i++ {
			for j := range tips {
				tips[j] = blockchain.BlockID(i*len(tips) + j + 1)
			}
			ck.snaps = append(ck.snaps, Snapshot{Round: i * ck.Every, Tips: slices.Clone(tips)})
		}
	}
	appendSnaps(0, 600)
	first := ck.snaps[0].Tips

	// What the retained window must still hold after the shrink.
	const keep = 4
	want := make([]Snapshot, keep)
	for i, s := range ck.snaps[len(ck.snaps)-keep:] {
		want[i] = Snapshot{Round: s.Round, Tips: slices.Clone(s.Tips)}
	}
	requireWindow := func(stage string) {
		t.Helper()
		for i := range want {
			s := ck.snaps[i]
			if s.Round != want[i].Round || !slices.Equal(s.Tips, want[i].Tips) {
				t.Fatalf("%s: snapshot %d is %+v, want %+v", stage, i, s, want[i])
			}
		}
	}

	ck.SetRetention(keep)

	if got := len(ck.Snapshots()); got != keep {
		t.Fatalf("retained %d snapshots after shrink, want %d", got, keep)
	}
	requireWindow("after shrink")
	for i, s := range ck.snaps[keep:cap(ck.snaps)] {
		if s.Tips != nil {
			t.Fatalf("slot %d past the window still references round %d's tips", keep+i, s.Round)
		}
	}
	if first[0] != 1 {
		t.Fatal("dropped snapshot's tips were rewritten")
	}

	// Later samples leave the survivors intact.
	appendSnaps(600, 610)
	requireWindow("after later samples")

	// Loosening the window afterwards must not trim anything.
	before := len(ck.snaps)
	ck.SetRetention(100)
	if len(ck.snaps) != before {
		t.Errorf("loosening retention trimmed snapshots: %d -> %d", before, len(ck.snaps))
	}
}

// TestSetRetentionShrinkMidRun is the end-to-end variant: shrink a
// live full-history checker between two engine runs and confirm the
// retained window keeps its size and still scans cleanly.
func TestSetRetentionShrinkMidRun(t *testing.T) {
	ck, err := NewChecker(6, 50)
	if err != nil {
		t.Fatal(err)
	}
	runWithCompaction(t, ck, 2000)
	grown := len(ck.Snapshots())
	if grown < 10 {
		t.Fatalf("full-history run retained only %d snapshots", grown)
	}
	ck.SetRetention(4)
	if got := len(ck.Snapshots()); got != 4 {
		t.Fatalf("retained %d snapshots after shrink, want 4", got)
	}
	res := runWithCompaction(t, ck, 2000)
	if got := len(ck.Snapshots()); got != 4 {
		t.Fatalf("retained %d snapshots after second run, want 4", got)
	}
	requireSnapshotsLive(t, ck, res.Tree)
}

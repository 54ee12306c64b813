package engine

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"neatbound/internal/blockchain"
	"neatbound/internal/network"
	"neatbound/internal/params"
)

// testParams returns a small, fast parameterization: 20 players, ν = 0.25,
// Δ = 3, with p high enough that blocks appear every few rounds.
func testParams() params.Params {
	return params.Params{N: 20, P: 0.01, Delta: 3, Nu: 0.25}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Params: params.Params{}, Rounds: 10}); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := New(Config{Params: testParams(), Rounds: 0}); err == nil {
		t.Error("0 rounds accepted")
	}
	if _, err := New(Config{Params: testParams(), Rounds: 5}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestRunProducesRecords(t *testing.T) {
	e, err := New(Config{Params: testParams(), Rounds: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 500 {
		t.Fatalf("got %d records", len(res.Records))
	}
	for i, rec := range res.Records {
		if rec.Round != i+1 {
			t.Fatalf("record %d has round %d", i, rec.Round)
		}
		if rec.HonestMined < 0 || rec.AdversaryMined < 0 {
			t.Fatalf("negative mined counts: %+v", rec)
		}
		if rec.MinHonestHeight > rec.MaxHonestHeight {
			t.Fatalf("min height > max height: %+v", rec)
		}
		if rec.DistinctTips < 1 {
			t.Fatalf("no tips: %+v", rec)
		}
	}
	if len(res.FinalTips()) != e.HonestCount() {
		t.Fatalf("final tips %d, honest %d", len(res.FinalTips()), e.HonestCount())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() *Result {
		e, err := New(Config{Params: testParams(), Rounds: 300, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.HonestBlocks != b.HonestBlocks || a.AdversaryBlocks != b.AdversaryBlocks {
		t.Fatal("replay diverged in block counts")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("replay diverged at round %d: %+v vs %+v", i+1, a.Records[i], b.Records[i])
		}
	}
	for i := range a.FinalTips() {
		if a.FinalTips()[i] != b.FinalTips()[i] {
			t.Fatalf("replay diverged in tip %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	mk := func(seed uint64) int {
		e, err := New(Config{Params: testParams(), Rounds: 400, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.HonestBlocks
	}
	same := 0
	base := mk(0)
	for s := uint64(1); s <= 5; s++ {
		if mk(s) == base {
			same++
		}
	}
	if same == 5 {
		t.Error("5 different seeds all produced identical block counts")
	}
}

func TestHonestMiningRate(t *testing.T) {
	pr := testParams()
	e, err := New(Config{Params: pr, Rounds: 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	perRound := float64(res.HonestBlocks) / 20000
	want := pr.P * pr.HonestN() // E[binom(µn, p)] per round
	if math.Abs(perRound-want)/want > 0.1 {
		t.Errorf("honest block rate %g, want %g", perRound, want)
	}
}

func TestAdversaryMiningRateMatchesEq27(t *testing.T) {
	pr := testParams()
	e, err := New(Config{Params: pr, Rounds: 20000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	perRound := float64(res.AdversaryBlocks) / 20000
	want := pr.P * float64(pr.AdversaryCount())
	if math.Abs(perRound-want)/want > 0.15 {
		t.Errorf("adversary block rate %g, want p·νn = %g (Eq. 27)", perRound, want)
	}
}

func TestTreeConsistentWithRecords(t *testing.T) {
	e, err := New(Config{Params: testParams(), Rounds: 2000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tree.Len(); got != 1+res.HonestBlocks+res.AdversaryBlocks {
		t.Errorf("tree has %d blocks, want 1+%d+%d", got, res.HonestBlocks, res.AdversaryBlocks)
	}
	// Honest flags must partition the non-genesis blocks per the counters.
	honest, adv := 0, 0
	for id := 1; id < res.Tree.ArenaLen(); id++ {
		b, ok := res.Tree.Get(blockchain.BlockID(id))
		if !ok {
			t.Fatalf("block %d missing from an uncompacted tree", id)
		}
		if b.Honest {
			honest++
		} else {
			adv++
		}
	}
	if honest != res.HonestBlocks || adv != res.AdversaryBlocks {
		t.Errorf("tree flags honest=%d adv=%d, counters %d/%d", honest, adv, res.HonestBlocks, res.AdversaryBlocks)
	}
}

func TestHonestViewsOnlyGrow(t *testing.T) {
	prevMax, prevMin := 0, 0
	cfg := Config{Params: testParams(), Rounds: 3000, Seed: 10}
	cfg.Observer = ObserverFunc(func(e *Engine, rec RoundRecord) {
		if rec.MaxHonestHeight < prevMax {
			t.Fatalf("round %d: max honest height decreased %d→%d", rec.Round, prevMax, rec.MaxHonestHeight)
		}
		if rec.MinHonestHeight < prevMin {
			t.Fatalf("round %d: min honest height decreased %d→%d", rec.Round, prevMin, rec.MinHonestHeight)
		}
		prevMax, prevMin = rec.MaxHonestHeight, rec.MinHonestHeight
	})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestHonestViewsWithinDeltaOfEachOther checks the Δ-delay model's core
// implication: an honest block at height h broadcast in round t is known
// to all honest players by t+Δ, so honest view heights can lag the honest
// maximum only by what was mined in the last Δ rounds.
func TestHonestViewsConvergeAfterQuietPeriod(t *testing.T) {
	pr := testParams()
	lastConverged := 0
	quiet := 0
	cfg := Config{Params: pr, Rounds: 5000, Seed: 11}
	cfg.Observer = ObserverFunc(func(e *Engine, rec RoundRecord) {
		if rec.HonestMined == 0 && rec.AdversaryMined == 0 {
			quiet++
		} else {
			quiet = 0
		}
		// After Δ block-free rounds every broadcast has landed: all honest
		// players must agree on chain height.
		if quiet >= pr.Delta && rec.MinHonestHeight != rec.MaxHonestHeight {
			t.Fatalf("round %d: %d quiet rounds but heights %d..%d",
				rec.Round, quiet, rec.MinHonestHeight, rec.MaxHonestHeight)
		}
		if rec.DistinctTips == 1 {
			lastConverged = rec.Round
		}
	})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if lastConverged == 0 {
		t.Error("honest players never agreed on a single tip in 5000 rounds")
	}
}

func TestPlayerTipValidation(t *testing.T) {
	e, err := New(Config{Params: testParams(), Rounds: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.PlayerTip(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := e.PlayerTip(e.HonestCount()); err == nil {
		t.Error("out-of-range index accepted")
	}
	if tip, err := e.PlayerTip(0); err != nil || tip != blockchain.GenesisID {
		t.Errorf("initial tip = %d, %v", tip, err)
	}
}

// recordingAdversary checks the Context API surface from a strategy's
// perspective.
type recordingAdversary struct {
	minedTotal int
	rounds     int
	released   blockchain.BlockID
}

func (a *recordingAdversary) Name() string { return "recording" }

func (a *recordingAdversary) HonestDelayPolicy(ctx *Context) network.DelayPolicy {
	return network.MaxDelay{Delta: ctx.Params().Delta}
}

func (a *recordingAdversary) Mine(ctx *Context, mined int) {
	a.rounds++
	a.minedTotal += mined
	if mined > 0 && a.released == 0 {
		b, err := ctx.MineBlock(blockchain.GenesisID)
		if err != nil {
			panic(err)
		}
		a.released = b.ID
		if err := ctx.SendToAll(b, ctx.Round()+5); err != nil {
			panic(err)
		}
	}
}

func TestCustomAdversaryDrivesContext(t *testing.T) {
	adv := &recordingAdversary{}
	e, err := New(Config{Params: testParams(), Rounds: 4000, Seed: 12, Adversary: adv})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if adv.rounds != 4000 {
		t.Errorf("Mine called %d times", adv.rounds)
	}
	if adv.minedTotal != res.AdversaryBlocks {
		t.Errorf("strategy saw %d mined, engine counted %d", adv.minedTotal, res.AdversaryBlocks)
	}
	if adv.released == 0 {
		t.Fatal("adversary never mined in 4000 rounds — p too low?")
	}
	if b, ok := res.Tree.Get(adv.released); !ok || b.Honest {
		t.Error("adversary block missing from tree or mis-flagged")
	}
}

func TestMineBlockRejectsUnknownParent(t *testing.T) {
	e, err := New(Config{Params: testParams(), Rounds: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Context{e: e}
	if _, err := ctx.MineBlock(blockchain.BlockID(9999)); err == nil {
		t.Error("unknown parent accepted")
	}
}

func TestPassiveAdversaryKeepsSingleChain(t *testing.T) {
	// With no delays and everyone honest-behaved, forks can only come from
	// simultaneous mining; the chain should stay nearly linear and all
	// blocks should end up on one chain most of the time.
	pr := params.Params{N: 20, P: 0.002, Delta: 1, Nu: 0.25}
	e, err := New(Config{Params: pr, Rounds: 30000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := res.HonestBlocks + res.AdversaryBlocks
	if total < 100 {
		t.Fatalf("only %d blocks mined — test underpowered", total)
	}
	maxH := res.Tree.MaxHeight()
	// Nearly all blocks land on the main chain when mining is slow and
	// delivery immediate.
	if float64(maxH) < 0.95*float64(total) {
		t.Errorf("main chain %d of %d blocks — too many forks for Δ=1 slow mining", maxH, total)
	}
}

func BenchmarkEngineRound(b *testing.B) {
	pr := params.Params{N: 1000, P: 1e-4, Delta: 8, Nu: 0.3}
	e, err := New(Config{Params: pr, Rounds: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.step(); err != nil {
			b.Fatal(err)
		}
	}
}

// rogueAnnouncer announces a block that was never added to the tree on
// its first Mine call, for delivery in the following round — through
// SendToAll, or through Send to one recipient. Embedding the passive
// strategy keeps it skip-safe, so fast-forward stays armed.
type rogueAnnouncer struct {
	PassiveAdversary
	toAll     bool
	recipient int
	sentAt    int
}

func (a *rogueAnnouncer) Name() string { return "rogue-announcer" }

func (a *rogueAnnouncer) Mine(ctx *Context, _ int) {
	if a.sentAt != 0 {
		return
	}
	a.sentAt = ctx.Round()
	rogue := blockchain.Block{ID: 900000, Parent: blockchain.GenesisID, Height: 50}
	var err error
	if a.toAll {
		err = ctx.SendToAll(rogue, a.sentAt+1)
	} else {
		err = ctx.Send(rogue, a.recipient, a.sentAt+1)
	}
	if err != nil {
		panic(err)
	}
}

// TestUnknownBlockDeliveryError pins the engine's refusal to deliver a
// block missing from the tree: the run fails in the delivery round with
// ErrUnknownBlock, is marked Partial, and keeps exactly the records of
// the rounds before it — on the delivery walk (with the ignored Shards
// field unset and set), and with fast-forward on, where a SendToAll
// round is delivered by the flash fold.
func TestUnknownBlockDeliveryError(t *testing.T) {
	for _, toAll := range []bool{false, true} {
		for _, shards := range []int{1, 3} {
			for _, ff := range []bool{false, true} {
				adv := &rogueAnnouncer{toAll: toAll, recipient: 13}
				e, err := New(Config{Params: testParams(), Rounds: 400, Seed: 3, Shards: shards, FastForward: ff, Adversary: adv})
				if err != nil {
					t.Fatal(err)
				}
				res, err := e.Run()
				name := fmt.Sprintf("toAll=%v shards=%d fastForward=%v", toAll, shards, ff)
				if !errors.Is(err, blockchain.ErrUnknownBlock) {
					t.Fatalf("%s: err = %v, want ErrUnknownBlock", name, err)
				}
				if !strings.Contains(err.Error(), "900000") {
					t.Errorf("%s: error %q does not name the unknown block", name, err)
				}
				if !res.Partial {
					t.Errorf("%s: failed run not marked Partial", name)
				}
				if adv.sentAt == 0 {
					t.Fatalf("%s: adversary never ran", name)
				}
				if got, want := len(res.Records), adv.sentAt; got != want {
					t.Errorf("%s: %d records, want %d (the rounds before the failing round %d)", name, got, want, adv.sentAt+1)
				}
				if ff && !e.ff.armed {
					t.Errorf("%s: fast-forward not armed", name)
				}
			}
		}
	}
}

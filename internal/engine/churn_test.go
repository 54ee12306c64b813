package engine

import (
	"reflect"
	"testing"
	"testing/quick"

	"neatbound/internal/blockchain"
	"neatbound/internal/params"
)

// churnTestSeed seeds every scenario-mining test here; failures print it
// so a red run replays exactly.
const churnTestSeed uint64 = 0xc0ffee12

func scenarioRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatalf("seed=%#x: New: %v", cfg.Seed, err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("seed=%#x: Run: %v", cfg.Seed, err)
	}
	return res
}

// TestWeightedMiningAllOnesMatchesUnweighted pins the scenario layer's
// central equivalence: with every weight 1 the unit list is the
// identity, so the weighted path consumes the same draws and produces a
// bit-identical execution to the default path.
func TestWeightedMiningAllOnesMatchesUnweighted(t *testing.T) {
	pr := params.Params{N: 30, P: 0.02, Delta: 4, Nu: 0.3}
	base := Config{Params: pr, Rounds: 400, Seed: churnTestSeed}
	weighted := base
	weighted.MiningWeights = make([]int, pr.HonestCount())
	for i := range weighted.MiningWeights {
		weighted.MiningWeights[i] = 1
	}
	a, b := scenarioRun(t, base), scenarioRun(t, weighted)
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Fatalf("seed=%#x: all-ones weighted records diverge from unweighted", churnTestSeed)
	}
	if !reflect.DeepEqual(a.FinalTips(), b.FinalTips()) {
		t.Fatalf("seed=%#x: all-ones weighted final tips diverge from unweighted", churnTestSeed)
	}
}

// TestWeightedMiningSkewDeterministic pins that a skewed weight vector
// is deterministic across shard counts (the scenario golden contract at
// engine level) and that zero-weight players never mine.
func TestWeightedMiningSkewDeterministic(t *testing.T) {
	pr := params.Params{N: 30, P: 0.02, Delta: 4, Nu: 0.3}
	honest := pr.HonestCount()
	w := make([]int, honest)
	for i := range w {
		w[i] = 1
	}
	w[0] = honest / 2 // one heavy hitter
	w[1] = 0          // one player that never mines
	var ref *Result
	for _, shards := range []int{1, 2, 7} {
		res := scenarioRun(t, Config{Params: pr, Rounds: 400, Seed: churnTestSeed,
			MiningWeights: w, Shards: shards})
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref.Records, res.Records) {
			t.Fatalf("seed=%#x: weighted run diverges at shards=%d", churnTestSeed, shards)
		}
	}
	for id := 1; id <= ref.Tree.ArenaLen(); id++ {
		if b, ok := ref.Tree.Get(blockchain.BlockID(id)); ok && b.Honest && b.Miner == 1 {
			t.Fatalf("seed=%#x: zero-weight player 1 mined block %d", churnTestSeed, b.ID)
		}
	}
}

// TestChurnSelection is the churn schedule property: every epoch puts
// exactly Leave players on leave, inside the honest range, and the
// selection is a pure function of (seed, epoch) — identical when
// rebuilt, rotating across epochs.
func TestChurnSelection(t *testing.T) {
	pr := params.Params{N: 40, P: 0.01, Delta: 3, Nu: 0.25}
	honest := pr.HonestCount()
	mk := func(seed uint64) *Engine {
		e, err := New(Config{Params: pr, Rounds: 10, Seed: 1,
			Churn: &ChurnPlan{Period: 25, Leave: honest / 3, Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	prop := func(seed uint64, epochRaw uint8) bool {
		epoch := int(epochRaw)
		round := epoch*25 + 1
		a := mk(seed).miningUnits(round)
		b := mk(seed).miningUnits(round)
		if len(a) != honest-honest/3 || !reflect.DeepEqual(a, b) {
			return false
		}
		for _, u := range a {
			if int(u) < 0 || int(u) >= honest {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatalf("churn selection property failed: %v", err)
	}
	// The on-leave subset rotates: across 8 epochs at least two differ.
	e := mk(churnTestSeed)
	first := append([]int32(nil), e.miningUnits(1)...)
	rotated := false
	for ep := 1; ep < 8 && !rotated; ep++ {
		e2 := mk(churnTestSeed)
		if !reflect.DeepEqual(first, e2.miningUnits(ep*25+1)) {
			rotated = true
		}
	}
	if !rotated {
		t.Fatalf("seed=%#x: churn subset never rotated across 8 epochs", churnTestSeed)
	}
}

// TestChurnRunDeterministicAcrossShards runs a churned execution over
// several shard counts and requires one trace.
func TestChurnRunDeterministicAcrossShards(t *testing.T) {
	pr := params.Params{N: 40, P: 0.01, Delta: 3, Nu: 0.25}
	honest := pr.HonestCount()
	var ref *Result
	for _, shards := range []int{1, 2, 7} {
		res := scenarioRun(t, Config{Params: pr, Rounds: 500, Seed: churnTestSeed,
			Churn:  &ChurnPlan{Period: 40, Leave: honest / 4, Seed: churnTestSeed + 1},
			Shards: shards})
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref.Records, res.Records) {
			t.Fatalf("seed=%#x: churn run diverges at shards=%d", churnTestSeed, shards)
		}
	}
}

// TestScenarioMiningValidation pins the configuration guards: bad
// plans/weights are rejected, and the knobs refuse NuSchedule and
// oracle mining instead of silently diverging.
func TestScenarioMiningValidation(t *testing.T) {
	pr := params.Params{N: 20, P: 0.01, Delta: 3, Nu: 0.25}
	honest := pr.HonestCount()
	bad := []Config{
		{Params: pr, Rounds: 10, Churn: &ChurnPlan{Period: 0, Leave: 1}},
		{Params: pr, Rounds: 10, Churn: &ChurnPlan{Period: 5, Leave: honest}},
		{Params: pr, Rounds: 10, Churn: &ChurnPlan{Period: 5, Leave: -1}},
		{Params: pr, Rounds: 10, MiningWeights: make([]int, honest-1)},
		{Params: pr, Rounds: 10, MiningWeights: append(make([]int, honest-1), -2)},
		{Params: pr, Rounds: 10, MiningWeights: make([]int, honest)}, // all-zero
		{Params: pr, Rounds: 10, Churn: &ChurnPlan{Period: 5, Leave: 1},
			NuSchedule: func(int) float64 { return 0.25 }},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid scenario-mining config accepted", i)
		}
	}
	ones := make([]int, honest)
	for i := range ones {
		ones[i] = 1
	}
	e, err := New(Config{Params: pr, Rounds: 10, MiningWeights: ones})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WithOracleMining(1); err == nil {
		t.Error("oracle mining accepted on a weighted engine")
	}
}

// TestScenarioMiningDisarmsFastForward pins the FastForward gate: a
// churned or weighted config with FastForward set must fall back to
// stepping (ff.armed stays false) and still produce the identical trace
// to the same config without the flag.
func TestScenarioMiningDisarmsFastForward(t *testing.T) {
	pr := params.Params{N: 30, P: 0.001, Delta: 4, Nu: 0.3}
	honest := pr.HonestCount()
	w := make([]int, honest)
	for i := range w {
		w[i] = 1
	}
	w[0] = 5
	for name, mod := range map[string]func(*Config){
		"weights": func(c *Config) { c.MiningWeights = w },
		"churn":   func(c *Config) { c.Churn = &ChurnPlan{Period: 30, Leave: honest / 4, Seed: 7} },
	} {
		base := Config{Params: pr, Rounds: 600, Seed: churnTestSeed}
		mod(&base)
		ff := base
		ff.FastForward = true
		e, err := New(ff)
		if err != nil {
			t.Fatal(err)
		}
		e.armFastForward()
		if e.ff.armed {
			t.Fatalf("%s seed=%#x: FastForward armed despite scenario mining", name, churnTestSeed)
		}
		a, b := scenarioRun(t, base), scenarioRun(t, ff)
		if !reflect.DeepEqual(a.Records, b.Records) {
			t.Fatalf("%s seed=%#x: FastForward fallback diverges from stepping", name, churnTestSeed)
		}
	}
}

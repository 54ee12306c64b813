package neatbound

import (
	"fmt"
	"testing"

	"neatbound/internal/adversary"
	"neatbound/internal/engine"
	"neatbound/internal/params"
	"neatbound/internal/scenario"
)

// These golden hashes pin the scenario layer's observable behavior —
// stochastic delay schedules, the healing partition, player churn and
// skewed mining power — exactly like golden_trace_test.go pins the base
// engine: the same trace hash must come out of every (ignored) shard
// count, concurrent runs with consistency checkers attached, and the
// FastForward configuration (scenarios disarm the fast path, so the
// flag must be a byte-for-byte no-op, never a silent divergence).

// scenarioGoldenCase compiles a scenario spec onto an engine config; the
// base adversary (nil = passive) is wrapped with the scenario's delay
// policy exactly as the sweep pipeline does it.
func scenarioGoldenCase(t *testing.T, spec *scenario.Spec, seed uint64, base engine.Adversary) goldenCase {
	t.Helper()
	pr := params.Params{N: 40, P: 0.005, Delta: 4, Nu: 0.3}
	comp, err := spec.Compile(pr)
	if err != nil {
		t.Fatal(err)
	}
	adv := base
	if comp.Policy != nil {
		if adv == nil {
			adv = engine.PassiveAdversary{}
		}
		adv = scenario.Wrap(adv, comp.Policy)
	}
	return goldenCase{cfg: engine.Config{
		Params:        pr,
		Rounds:        3000,
		Seed:          seed,
		Adversary:     adv,
		Churn:         comp.Churn,
		MiningWeights: comp.Weights,
	}}
}

// scenarioGoldenCases covers every scenario axis alone plus one
// composition (stochastic delay + churn + skewed power) and one
// scenario-over-adversary case (partition with the max-delay strategy
// underneath).
func scenarioGoldenCases(t *testing.T) map[string]goldenCase {
	t.Helper()
	mustByName := func(name string) *scenario.Spec {
		s, err := scenario.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	composed := &scenario.Spec{
		Name:  "composed",
		Delay: &scenario.DelaySpec{Kind: "iid", Seed: 0x10d},
		Churn: &scenario.ChurnSpec{Period: 50, LeaveFrac: 0.25, Seed: 0xc4},
		Power: &scenario.PowerSpec{Heavy: 3},
	}
	return map[string]goldenCase{
		"stochastic-delay": scenarioGoldenCase(t, mustByName("stochastic-delay"), 11, nil),
		"bursty-delay":     scenarioGoldenCase(t, mustByName("bursty-delay"), 12, nil),
		"partition-heal": scenarioGoldenCase(t, mustByName("partition-heal"), 13,
			adversary.MaxDelay{}),
		"churn":        scenarioGoldenCase(t, mustByName("churn"), 14, nil),
		"skewed-power": scenarioGoldenCase(t, mustByName("skewed-power"), 15, nil),
		"composed":     scenarioGoldenCase(t, composed, 16, nil),
	}
}

// scenarioGoldenTraces holds the expected hash per scenario case,
// captured at the scenario layer's introduction. Regenerate by running
// TestScenarioGoldenTraces with -v and copying the logged values — but
// only after convincing yourself the semantic change is intended.
var scenarioGoldenTraces = map[string]uint64{
	"stochastic-delay": 0x4d5d3f835306635e,
	"bursty-delay":     0x79a2a77c07c917f7,
	"partition-heal":   0xc08112a6f6a7c50f,
	"churn":            0xf2fc431c8049683c,
	"skewed-power":     0x26777b27150d8bf5,
	"composed":         0x9899960695d0312b,
}

func TestScenarioGoldenTraces(t *testing.T) {
	for name, gc := range scenarioGoldenCases(t) {
		t.Run(name, func(t *testing.T) {
			got := traceHash(t, gc)
			t.Logf("%-18s %#x", name, got)
			if want := scenarioGoldenTraces[name]; got != want {
				t.Errorf("scenario golden trace %q: hash %#x, want %#x", name, got, want)
			}
		})
	}
}

// TestScenarioGoldenTracesSharded pins that every scenario case is
// bit-identical across delivery shard counts.
func TestScenarioGoldenTracesSharded(t *testing.T) {
	for name, gc := range scenarioGoldenCases(t) {
		for _, shards := range []int{2, 7} {
			gc := gc
			gc.cfg.Shards = shards
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				got := traceHash(t, gc)
				if want := scenarioGoldenTraces[name]; got != want {
					t.Errorf("scenario golden trace %q at shards=%d: hash %#x, want %#x",
						name, shards, got, want)
				}
			})
		}
	}
}

// TestScenarioGoldenTracesFastForward pins the disarm contract: the
// FastForward flag must be a byte-for-byte no-op under every scenario
// (the engine falls back to stepping), at every shard count.
func TestScenarioGoldenTracesFastForward(t *testing.T) {
	for name, gc := range scenarioGoldenCases(t) {
		for _, shards := range []int{0, 2, 7} {
			gc := gc
			gc.cfg.Shards = shards
			gc.cfg.FastForward = true
			t.Run(fmt.Sprintf("%s/ff-shards=%d", name, shards), func(t *testing.T) {
				got := traceHash(t, gc)
				if want := scenarioGoldenTraces[name]; got != want {
					t.Errorf("scenario golden trace %q with FastForward at shards=%d: hash %#x, want %#x",
						name, shards, got, want)
				}
			})
		}
	}
}

// TestScenarioGoldenTracesPooled pins that running the scenario cases
// as parallel subtests, each carrying a plain consistency checker and
// one handed the ignored UsePool, changes nothing: every trace keeps its
// golden hash and both checkers agree (see TestGoldenTracesPooledShared,
// which also explains the kept pool-size labels).
func TestScenarioGoldenTracesPooled(t *testing.T) {
	for _, workers := range []int{2, 7} {
		for name, gc := range scenarioGoldenCases(t) {
			gc := withCheckerParity(t, gc)
			t.Run(fmt.Sprintf("%s/pool-shards=%d", name, workers), func(t *testing.T) {
				t.Parallel()
				got := traceHash(t, gc)
				if want := scenarioGoldenTraces[name]; got != want {
					t.Errorf("scenario golden trace %q with checkers attached: hash %#x, want %#x",
						name, got, want)
				}
			})
		}
	}
}

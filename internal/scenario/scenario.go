// Package scenario is the simulator's scenario layer: declarative,
// JSON-portable descriptions of richer network and adversary models —
// stochastic delay schedules, healing partitions, player churn, and
// skewed mining power — compiled onto the engine's knobs. The paper's
// theorems quantify over *any* delay schedule bounded by Δ, any honest
// participation, and any power distribution summing to the honest rate;
// scenarios let sweeps exercise that envelope instead of only the
// min/max/hashed corners, and every scenario doubles as a theory
// cross-check (package scenario/xval).
//
// A Spec travels on the wire inside the sweepd job request and the
// sweep configuration; its fields are add-only (docs/interchange.md),
// and a nil Spec marshals to nothing, so pre-scenario streams are
// byte-identical. Compilation is deterministic: the same Spec and
// parameters produce the same policies and schedules in every process.
package scenario

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"neatbound/internal/blockchain"
	"neatbound/internal/engine"
	"neatbound/internal/network"
	"neatbound/internal/params"
)

// Spec declares one scenario. All fields are optional and compose,
// except Delay and Partition, which both claim the honest broadcast
// delay schedule and are mutually exclusive. The zero Spec is the
// default model (no overrides).
type Spec struct {
	// Name labels the scenario in logs and wire records; ByName presets
	// fill it in. Informational only.
	Name string `json:"name,omitempty"`
	// Delay, when non-nil, replaces the adversary's honest-broadcast
	// delay schedule with a stochastic policy (all provably ≤ Δ).
	Delay *DelaySpec `json:"delay,omitempty"`
	// Partition, when non-nil, replaces the delay schedule with the
	// healing two-group partition model.
	Partition *PartitionSpec `json:"partition,omitempty"`
	// Churn, when non-nil, schedules honest mining participation churn.
	Churn *ChurnSpec `json:"churn,omitempty"`
	// Power, when non-nil, skews per-player mining power while keeping
	// the honest total fixed.
	Power *PowerSpec `json:"power,omitempty"`
}

// DelaySpec selects a stochastic delay policy. Kind is one of "iid"
// (independent uniform per edge and round), "bursty" (regime-switching
// epochs between sent+1 and sent+Δ), or "recipient" (fixed seeded
// per-recipient latency).
type DelaySpec struct {
	Kind string `json:"kind"`
	// RegimeLen is the bursty epoch length in rounds (bursty only;
	// 0 means 50).
	RegimeLen int `json:"regime_len,omitempty"`
	// BurstEveryN marks 1-in-N epochs congested (bursty only; 0 means 4).
	BurstEveryN int `json:"burst_every_n,omitempty"`
	// Seed selects the schedule; 0 is a valid (and the default) seed.
	Seed uint64 `json:"seed,omitempty"`
}

// PartitionSpec is the healing partition: each Period-round cycle opens
// with Length rounds during which cross-group traffic is held until the
// heal round (Δ-truncated — see network.PartitionDelay).
type PartitionSpec struct {
	// SplitFrac is the fraction of players in group A (0 means 0.5).
	SplitFrac float64 `json:"split_frac,omitempty"`
	// Period is the cycle length in rounds (0 means 8·Length).
	Period int `json:"period,omitempty"`
	// Length is the active-partition span per cycle (0 means Δ).
	Length int `json:"length,omitempty"`
}

// ChurnSpec schedules honest mining participation churn (engine
// semantics: leavers keep receiving and adopting, they only stop
// querying — see engine.ChurnPlan).
type ChurnSpec struct {
	// Period is the epoch length in rounds (0 means 50).
	Period int `json:"period,omitempty"`
	// LeaveFrac is the fraction of honest players on leave per epoch,
	// in [0, 1); the compiled plan always keeps ≥ 1 active.
	LeaveFrac float64 `json:"leave_frac"`
	// Seed selects which players leave each epoch.
	Seed uint64 `json:"seed,omitempty"`
}

// PowerSpec skews honest mining power: Heavy players receive
// geometrically decreasing extra weight drawn from a pool of tail
// players whose weight drops to zero, keeping the total weight equal to
// the honest count — so the aggregate honest mining rate (and every
// rate-based prediction) is unchanged, only the identity distribution
// skews.
type PowerSpec struct {
	// Heavy is the number of heavy hitters (0 means 3).
	Heavy int `json:"heavy,omitempty"`
}

// Validate checks internal consistency; a nil Spec is valid.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if s.Delay != nil && s.Partition != nil {
		return fmt.Errorf("scenario: Delay and Partition both set; they are mutually exclusive")
	}
	if d := s.Delay; d != nil {
		switch d.Kind {
		case "iid", "bursty", "recipient":
		default:
			return fmt.Errorf("scenario: unknown delay kind %q (want iid|bursty|recipient)", d.Kind)
		}
		if d.RegimeLen < 0 || d.BurstEveryN < 0 {
			return fmt.Errorf("scenario: negative bursty parameters")
		}
	}
	if p := s.Partition; p != nil {
		if p.SplitFrac < 0 || p.SplitFrac >= 1 {
			return fmt.Errorf("scenario: partition split fraction %g outside [0, 1)", p.SplitFrac)
		}
		if p.Period < 0 || p.Length < 0 {
			return fmt.Errorf("scenario: negative partition parameters")
		}
		if p.Period > 0 && p.Length > p.Period {
			return fmt.Errorf("scenario: partition length %d exceeds period %d", p.Length, p.Period)
		}
		if p.Period == 0 && p.Length > math.MaxInt/8 {
			// The default period 8·Length would overflow int.
			return fmt.Errorf("scenario: partition length %d too large for the default period 8·length", p.Length)
		}
	}
	if c := s.Churn; c != nil {
		if c.Period < 0 {
			return fmt.Errorf("scenario: negative churn period")
		}
		if c.LeaveFrac < 0 || c.LeaveFrac >= 1 {
			return fmt.Errorf("scenario: churn leave fraction %g outside [0, 1)", c.LeaveFrac)
		}
	}
	if p := s.Power; p != nil && p.Heavy < 0 {
		return fmt.Errorf("scenario: negative heavy-hitter count")
	}
	return nil
}

// Compiled is a Spec resolved against concrete parameters: the
// engine-ready knobs.
type Compiled struct {
	// Policy, when non-nil, is the honest-broadcast delay schedule the
	// scenario imposes (wrap the adversary with Wrap to install it).
	Policy network.DelayPolicy
	// Churn is the engine churn plan, or nil.
	Churn *engine.ChurnPlan
	// Weights is the honest mining-weight vector, or nil.
	Weights []int
}

// Compile resolves s against pr, filling every defaulted field. The
// result is a pure function of (s, pr).
func (s *Spec) Compile(pr params.Params) (Compiled, error) {
	if err := s.Validate(); err != nil {
		return Compiled{}, err
	}
	var c Compiled
	if s == nil {
		return c, nil
	}
	honest := pr.HonestCount()
	if d := s.Delay; d != nil {
		switch d.Kind {
		case "iid":
			c.Policy = network.IIDDelay{Delta: pr.Delta, Seed: d.Seed}
		case "bursty":
			rl := d.RegimeLen
			if rl == 0 {
				rl = 50
			}
			c.Policy = network.BurstyDelay{Delta: pr.Delta, RegimeLen: rl, BurstEveryN: d.BurstEveryN, Seed: d.Seed}
		case "recipient":
			c.Policy = network.RecipientDelay{Delta: pr.Delta, Seed: d.Seed}
		}
	}
	if p := s.Partition; p != nil {
		length := p.Length
		if length == 0 {
			length = pr.Delta
		}
		period := p.Period
		if period == 0 {
			period = 8 * length
		}
		if length > period {
			length = period
		}
		frac := p.SplitFrac
		if frac == 0 {
			frac = 0.5
		}
		split := int(frac * float64(honest))
		if split < 1 {
			split = 1
		}
		if split > honest-1 {
			split = honest - 1
		}
		c.Policy = network.PartitionDelay{Delta: pr.Delta, Split: split, Period: period, Length: length}
	}
	if ch := s.Churn; ch != nil {
		period := ch.Period
		if period == 0 {
			period = 50
		}
		leave := int(ch.LeaveFrac * float64(honest))
		if leave > honest-1 {
			leave = honest - 1
		}
		if leave > 0 {
			c.Churn = &engine.ChurnPlan{Period: period, Leave: leave, Seed: ch.Seed}
		}
	}
	if p := s.Power; p != nil {
		heavy := p.Heavy
		if heavy == 0 {
			heavy = 3
		}
		c.Weights = SkewedWeights(honest, heavy)
	}
	return c, nil
}

// SkewedWeights builds a deterministic skewed weight vector for honest
// players: all weights start at 1, a pool of honest/2 units is taken
// from the tail players (whose weight drops to 0), and the pool is
// redistributed geometrically over the first heavy players. The total
// always equals honest, so the aggregate honest mining rate matches the
// uniform model exactly.
func SkewedWeights(honest, heavy int) []int {
	w := make([]int, honest)
	for i := range w {
		w[i] = 1
	}
	if honest <= 1 {
		return w
	}
	if heavy < 1 {
		heavy = 1
	}
	if heavy > honest/2 {
		heavy = honest / 2
	}
	pool := honest / 2
	if pool > honest-heavy-1 {
		pool = honest - heavy - 1
	}
	if pool < 1 {
		return w
	}
	for i := honest - pool; i < honest; i++ {
		w[i] = 0
	}
	rem := pool
	for i := 0; i < heavy && rem > 0; i++ {
		give := (rem + 1) / 2
		if i == heavy-1 {
			give = rem
		}
		w[i] += give
		rem -= give
	}
	return w
}

// Adversary wraps a base strategy, replacing its honest-broadcast delay
// schedule with the scenario's policy. Everything else — mining,
// withholding, retention — delegates to the base. It deliberately does
// NOT implement engine.SpanQuiescent: a scenario schedule is
// round-dependent, so FastForward must cleanly disarm (the engine falls
// back to stepping) rather than silently diverge.
type Adversary struct {
	Base   engine.Adversary
	Policy network.DelayPolicy
}

// Wrap installs policy as adv's honest delay schedule; a nil policy
// returns adv unchanged.
func Wrap(adv engine.Adversary, policy network.DelayPolicy) engine.Adversary {
	if policy == nil {
		return adv
	}
	return &Adversary{Base: adv, Policy: policy}
}

// Name implements engine.Adversary.
func (a *Adversary) Name() string { return a.Base.Name() + "+scenario" }

// HonestDelayPolicy implements engine.Adversary with the scenario's
// schedule.
func (a *Adversary) HonestDelayPolicy(*engine.Context) network.DelayPolicy { return a.Policy }

// Mine implements engine.Adversary by delegation.
func (a *Adversary) Mine(ctx *engine.Context, mined int) { a.Base.Mine(ctx, mined) }

// AppendRetained implements engine.Retainer by delegation, so arena
// compaction keeps working under a scenario wrapper when the base
// strategy supports it.
func (a *Adversary) AppendRetained(buf []blockchain.BlockID) ([]blockchain.BlockID, bool) {
	if r, ok := a.Base.(engine.Retainer); ok {
		return r.AppendRetained(buf)
	}
	return buf, false
}

// Names lists the built-in scenario presets ByName accepts, sorted.
func Names() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// presets are the named scenarios of docs/scenarios.md — one per new
// model axis, each also exercised by the golden traces and the xval
// cross-checks.
var presets = map[string]func() *Spec{
	"stochastic-delay": func() *Spec {
		return &Spec{Name: "stochastic-delay", Delay: &DelaySpec{Kind: "iid", Seed: 0x10d}}
	},
	"bursty-delay": func() *Spec {
		return &Spec{Name: "bursty-delay", Delay: &DelaySpec{Kind: "bursty", RegimeLen: 40, BurstEveryN: 3, Seed: 0xb1}}
	},
	"partition-heal": func() *Spec {
		return &Spec{Name: "partition-heal", Partition: &PartitionSpec{}}
	},
	"churn": func() *Spec {
		return &Spec{Name: "churn", Churn: &ChurnSpec{Period: 50, LeaveFrac: 0.25, Seed: 0xc4}}
	},
	"skewed-power": func() *Spec {
		return &Spec{Name: "skewed-power", Power: &PowerSpec{Heavy: 3}}
	},
}

// ByName returns a fresh copy of the named preset.
func ByName(name string) (*Spec, error) {
	mk, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown preset %q (have %s)", name, strings.Join(Names(), "|"))
	}
	return mk(), nil
}

// Parse resolves a CLI scenario argument: a preset name, or an inline
// JSON Spec (anything starting with '{'). The empty string is no
// scenario.
func Parse(arg string) (*Spec, error) {
	arg = strings.TrimSpace(arg)
	if arg == "" {
		return nil, nil
	}
	if strings.HasPrefix(arg, "{") {
		var s Spec
		dec := json.NewDecoder(strings.NewReader(arg))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("scenario: parsing inline spec: %w", err)
		}
		if err := s.Validate(); err != nil {
			return nil, err
		}
		return &s, nil
	}
	return ByName(arg)
}

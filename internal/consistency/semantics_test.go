package consistency

import (
	"testing"

	"neatbound/internal/engine"
	"neatbound/internal/network"
	"neatbound/internal/params"
)

// muteAdversary delays every honest message the full Δ but never
// publishes a block of its own (withholding everything is within the
// model's adversarial powers). With no adversarial blocks in circulation,
// the paper's semantic claim about convergence opportunities is exact.
type muteAdversary struct{}

func (muteAdversary) Name() string { return "mute" }

func (muteAdversary) HonestDelayPolicy(ctx *engine.Context) network.DelayPolicy {
	return network.MaxDelay{Delta: ctx.Params().Delta}
}

func (muteAdversary) Mine(*engine.Context, int) {}

// TestConvergenceOpportunityForcesAgreement validates the semantic claim
// of Section V-A: the pattern HN^{≥Δ}‖H₁N^Δ — one honest block flanked by
// ≥Δ and Δ quiet rounds — leaves every honest player agreeing on the same
// single longest chain, even under worst-case Δ-delays, provided no
// adversarial blocks interfere.
func TestConvergenceOpportunityForcesAgreement(t *testing.T) {
	pr := params.Params{N: 40, P: 0.004, Delta: 4, Nu: 0.25}
	counter, err := NewConvergenceCounter(pr.Delta)
	if err != nil {
		t.Fatal(err)
	}
	opportunities, agreed := 0, 0
	cfg := engine.Config{
		Params: pr, Rounds: 60000, Seed: 101, Adversary: muteAdversary{},
		Observer: engine.ObserverFunc(func(e *engine.Engine, rec engine.RoundRecord) {
			if counter.Observe(rec.HonestMined) {
				opportunities++
				if rec.DistinctTips == 1 {
					agreed++
				} else {
					t.Errorf("round %d: convergence opportunity but %d distinct honest tips",
						rec.Round, rec.DistinctTips)
				}
			}
		}),
	}
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if opportunities < 30 {
		t.Fatalf("only %d opportunities observed — test underpowered", opportunities)
	}
	if agreed != opportunities {
		t.Errorf("agreement at %d/%d opportunities", agreed, opportunities)
	}
}

// TestConvergenceAgreementMaxHeight strengthens the check: at an
// opportunity, the agreed chain must also be the globally longest honest
// chain (all honest blocks delivered).
func TestConvergenceAgreementMaxHeight(t *testing.T) {
	pr := params.Params{N: 30, P: 0.005, Delta: 3, Nu: 0.3}
	counter, err := NewConvergenceCounter(pr.Delta)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	cfg := engine.Config{
		Params: pr, Rounds: 40000, Seed: 102, Adversary: muteAdversary{},
		Observer: engine.ObserverFunc(func(e *engine.Engine, rec engine.RoundRecord) {
			if !counter.Observe(rec.HonestMined) {
				return
			}
			checked++
			if rec.MinHonestHeight != rec.MaxHonestHeight {
				t.Errorf("round %d: opportunity with height spread %d..%d",
					rec.Round, rec.MinHonestHeight, rec.MaxHonestHeight)
			}
		}),
	}
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if checked < 20 {
		t.Fatalf("only %d opportunities — underpowered", checked)
	}
}

// TestOpportunityAgreementSurvivesHashedDelays repeats the semantic check
// under heterogeneous (per-recipient pseudo-random) delays instead of the
// uniform max delay.
func TestOpportunityAgreementSurvivesHashedDelays(t *testing.T) {
	pr := params.Params{N: 40, P: 0.004, Delta: 4, Nu: 0.25}
	counter, err := NewConvergenceCounter(pr.Delta)
	if err != nil {
		t.Fatal(err)
	}
	adv := hashedDelayAdversary{}
	opportunities := 0
	cfg := engine.Config{
		Params: pr, Rounds: 40000, Seed: 103, Adversary: adv,
		Observer: engine.ObserverFunc(func(e *engine.Engine, rec engine.RoundRecord) {
			if counter.Observe(rec.HonestMined) {
				opportunities++
				if rec.DistinctTips != 1 {
					t.Errorf("round %d: %d tips under hashed delays", rec.Round, rec.DistinctTips)
				}
			}
		}),
	}
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if opportunities < 20 {
		t.Fatalf("only %d opportunities — underpowered", opportunities)
	}
}

type hashedDelayAdversary struct{}

func (hashedDelayAdversary) Name() string { return "hashed-mute" }

func (hashedDelayAdversary) HonestDelayPolicy(ctx *engine.Context) network.DelayPolicy {
	return network.HashedDelay{Delta: ctx.Params().Delta, Seed: 7}
}

func (hashedDelayAdversary) Mine(*engine.Context, int) {}

package scenario

import (
	"math/rand/v2"
	"testing"

	"neatbound/internal/blockchain"
	"neatbound/internal/network"
	"neatbound/internal/params"
)

// FuzzScenarioSpec feeds arbitrary CLI scenario arguments — preset names
// and inline JSON — through Parse → Validate → Compile against a few
// parameter sets. Nothing may panic, a spec Parse accepts must validate
// and compile, and the compiled knobs must keep the model's contract:
// every policy's raw DeliveryRound (before the network's clamp) lies in
// [sent+1, sent+Δ] for every recipient of sampled messages, a
// RecipientInvariant policy gives every recipient the round of the −1
// probe, and Weights has one entry per honest player summing to the
// honest count. seed picks the sampled messages.
func FuzzScenarioSpec(f *testing.F) {
	for _, name := range Names() {
		f.Add(name, uint64(1))
	}
	f.Add(``, uint64(2))
	f.Add(`{"delay":{"kind":"iid","seed":5}}`, uint64(3))
	f.Add(`{"delay":{"kind":"bursty","regime_len":3,"burst_every_n":2,"seed":7}}`, uint64(4))
	f.Add(`{"delay":{"kind":"recipient","seed":9}}`, uint64(5))
	f.Add(`{"partition":{"split_frac":0.1,"period":5,"length":5}}`, uint64(6))
	f.Add(`{"partition":{"length":2305843009213693953}}`, uint64(7)) // 8·length overflows int
	f.Add(`{"churn":{"leave_frac":0.9,"period":1},"power":{"heavy":1000}}`, uint64(8))
	f.Add(`{"delay":{"kind":"iid"},"partition":{}}`, uint64(9))
	f.Add(`{"bogus":1}`, uint64(10))
	var prs []params.Params
	for _, c := range []struct {
		n, delta int
		nu, c    float64
	}{{40, 4, 0.3, 2}, {4, 1, 0.1, 4}, {5, 1, 0.45, 2}, {1000, 100, 0.45, 5}} {
		pr, err := params.FromC(c.n, c.delta, c.nu, c.c)
		if err != nil {
			f.Fatal(err)
		}
		prs = append(prs, pr)
	}
	f.Fuzz(func(t *testing.T, arg string, seed uint64) {
		spec, err := Parse(arg)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("Parse accepted %q, Validate refuses it: %v", arg, err)
		}
		rg := rand.New(rand.NewPCG(seed, 0))
		for _, pr := range prs {
			c, err := spec.Compile(pr)
			if err != nil {
				t.Fatalf("%q against %+v: %v", arg, pr, err)
			}
			honest := pr.HonestCount()
			if c.Weights != nil {
				sum := 0
				for _, w := range c.Weights {
					if w < 0 {
						t.Fatalf("%q against %+v: negative weight in %v", arg, pr, c.Weights)
					}
					sum += w
				}
				if len(c.Weights) != honest || sum != honest {
					t.Fatalf("%q against %+v: %d weights summing to %d, want %d and %d", arg, pr, len(c.Weights), sum, honest, honest)
				}
			}
			if spec != nil && spec.Partition != nil {
				checkPartition(t, arg, pr, spec.Partition, c.Policy)
			}
			if c.Policy != nil {
				checkPolicy(t, arg, pr, c.Policy, rg)
			}
		}
	})
}

// checkPartition checks the compiled partition against its spec: the
// spec's period when set, else 8 times the length; the spec's length
// (Δ when unset), capped at the period; and 1 ≤ Length ≤ Period. An
// overflowing 8·length breaks the multiple.
func checkPartition(t *testing.T, arg string, pr params.Params, p *PartitionSpec, policy network.DelayPolicy) {
	t.Helper()
	pd, ok := policy.(network.PartitionDelay)
	if !ok {
		t.Fatalf("%q against %+v: partition compiled to %T", arg, pr, policy)
	}
	length := p.Length
	if length == 0 {
		length = pr.Delta
	}
	if p.Period > 0 && pd.Period != p.Period {
		t.Fatalf("%q against %+v: period %d, want the spec's %d", arg, pr, pd.Period, p.Period)
	}
	if p.Period == 0 && (pd.Period/8 != length || pd.Period%8 != 0) {
		t.Fatalf("%q against %+v: default period %d, want 8·%d", arg, pr, pd.Period, length)
	}
	if want := min(length, pd.Period); pd.Length != want || pd.Length < 1 {
		t.Fatalf("%q against %+v: length %d, want %d (≥ 1)", arg, pr, pd.Length, want)
	}
}

// checkPolicy samples messages, sent by any player or the adversary
// (−1), and checks the delivery window and recipient invariance over
// every recipient.
func checkPolicy(t *testing.T, arg string, pr params.Params, policy network.DelayPolicy, rg *rand.Rand) {
	t.Helper()
	_, invariant := policy.(network.RecipientInvariant)
	for k := 0; k < 16; k++ {
		sent := rg.IntN(1 << 30)
		if k%2 == 0 {
			sent = rg.IntN(64)
		}
		m := network.Message{
			Block:     network.Announce{ID: blockchain.BlockID(1 + rg.IntN(1<<20)), Height: 1},
			From:      int32(rg.IntN(pr.N+1) - 1),
			SentRound: int32(sent),
		}
		probe := policy.DeliveryRound(m, -1)
		for r := 0; r < pr.N; r++ {
			got := policy.DeliveryRound(m, r)
			if got < sent+1 || got > sent+pr.Delta {
				t.Fatalf("%q (Δ=%d): %T delivers %+v to %d at %d, outside [%d, %d]",
					arg, pr.Delta, policy, m, r, got, sent+1, sent+pr.Delta)
			}
			if invariant && got != probe {
				t.Fatalf("%q: recipient-invariant %T delivers %+v to %d at %d, the probe at %d",
					arg, policy, m, r, got, probe)
			}
		}
	}
}

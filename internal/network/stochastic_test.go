package network

import (
	"testing"
	"testing/quick"

	"neatbound/internal/blockchain"
)

// scenarioPolicySeed is the base seed of every property test in this
// file; failure messages print it (plus the sampled inputs) so a red
// run replays exactly.
const scenarioPolicySeed uint64 = 0x5ce7a410

// mkMsg builds a message from quick's raw draws, normalized into the
// ranges the engine produces (non-genesis block, player sender or the
// adversary's -1, non-negative sent round).
func mkMsg(id uint64, from int16, sent uint16) Message {
	return Message{
		Block:     Announce{ID: blockchain.BlockID(id%1_000_000 + 1), Height: 1},
		From:      int32(int(from) % 256),
		SentRound: int32(sent),
	}
}

// TestScenarioPoliciesDeliveryWindow is the core DelayPolicy property:
// for every sampled (message, recipient), each scenario policy's chosen
// round satisfies sent+1 ≤ r ≤ sent+Δ — before the network's clamp ever
// sees it.
func TestScenarioPoliciesDeliveryWindow(t *testing.T) {
	for _, delta := range []int{1, 2, 4, 8} {
		policies := map[string]DelayPolicy{
			"iid":       IIDDelay{Delta: delta, Seed: scenarioPolicySeed},
			"bursty":    BurstyDelay{Delta: delta, RegimeLen: 50, BurstEveryN: 3, Seed: scenarioPolicySeed},
			"recipient": RecipientDelay{Delta: delta, Seed: scenarioPolicySeed},
			"partition": PartitionDelay{Delta: delta, Split: 20, Period: 100, Length: delta},
		}
		for name, p := range policies {
			prop := func(id uint64, from int16, sent uint16, recipient uint8) bool {
				m := mkMsg(id, from, sent)
				r := p.DeliveryRound(m, int(recipient))
				return r >= int(m.SentRound)+1 && r <= int(m.SentRound)+delta
			}
			if err := quick.Check(prop, nil); err != nil {
				t.Errorf("policy %s Δ=%d seed=%#x: delivery round outside [sent+1, sent+Δ]: %v",
					name, delta, scenarioPolicySeed, err)
			}
		}
	}
}

// TestBurstyDelayRecipientInvariant pins the RecipientInvariant
// obligation: the chosen round ignores the recipient, including the -1
// probe Broadcast uses.
func TestBurstyDelayRecipientInvariant(t *testing.T) {
	d := BurstyDelay{Delta: 6, RegimeLen: 25, BurstEveryN: 4, Seed: scenarioPolicySeed}
	prop := func(id uint64, from int16, sent uint16, a, b uint8) bool {
		m := mkMsg(id, from, sent)
		ra := d.DeliveryRound(m, int(a))
		return ra == d.DeliveryRound(m, int(b)) && ra == d.DeliveryRound(m, -1)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatalf("bursty seed=%#x: delivery round depends on recipient: %v", scenarioPolicySeed, err)
	}
}

// TestPartitionDelayHeal pins the partition semantics: within-group
// traffic (and cross traffic outside the window) delivers at sent+1;
// cross traffic sent during an active window is held until
// min(heal, sent+Δ) — so every withheld message arrives within Δ of the
// heal round, and the heal round releases all of them at once.
func TestPartitionDelayHeal(t *testing.T) {
	const split, period, length = 20, 64, 8
	for _, delta := range []int{2, 8, 16} {
		d := PartitionDelay{Delta: delta, Split: split, Period: period, Length: length}
		prop := func(id uint64, sent uint16, fromRaw, toRaw uint8) bool {
			from := int(fromRaw) % 40
			to := int(toRaw) % 40
			m := mkMsg(id, int16(from), sent)
			m.From = int32(from)
			r := d.DeliveryRound(m, to)
			s := int(m.SentRound)
			heal, active := d.HealRound(s)
			cross := (from >= split) != (to >= split)
			if !active || !cross {
				return r == s+1
			}
			want := heal
			if want > s+delta {
				want = s + delta
			}
			// Held exactly until the heal round (Δ-truncated), hence
			// within Δ of it and never before the window closes early.
			return r == want && r <= heal+delta && r >= s+1
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("partition Δ=%d split=%d period=%d length=%d: heal contract broken: %v",
				delta, split, period, length, err)
		}
	}
}

// TestScenarioPoliciesThroughBroadcast runs each policy through the
// real Broadcast/Deliver fabric and checks every delivered message
// obeyed the window — the integration form of the window property, and
// the bursty policy's nil-list entries in particular.
func TestScenarioPoliciesThroughBroadcast(t *testing.T) {
	const players, delta, rounds = 30, 5, 120
	policies := map[string]DelayPolicy{
		"iid":       IIDDelay{Delta: delta, Seed: scenarioPolicySeed},
		"bursty":    BurstyDelay{Delta: delta, RegimeLen: 10, BurstEveryN: 3, Seed: scenarioPolicySeed},
		"recipient": RecipientDelay{Delta: delta, Seed: scenarioPolicySeed},
		"partition": PartitionDelay{Delta: delta, Split: players / 2, Period: 30, Length: 5},
	}
	for name, p := range policies {
		n, err := New(players, delta)
		if err != nil {
			t.Fatal(err)
		}
		sentAt := map[blockchain.BlockID]int{}
		next := blockchain.BlockID(1)
		for r := 0; r < rounds; r++ {
			for _, msgs := range drain(n, r, 1) {
				for _, m := range msgs {
					if got := r - int(m.SentRound); got < 1 || got > delta {
						t.Fatalf("policy %s seed=%#x: block %d sent round %d delivered round %d (delay %d outside [1, %d])",
							name, scenarioPolicySeed, m.Block.ID, m.SentRound, r, got, delta)
					}
				}
			}
			m := Message{Block: Announce{ID: next, Height: 1}, From: int32(r % players), SentRound: int32(r)}
			sentAt[next] = r
			next++
			if err := n.Broadcast(m, r, p); err != nil {
				t.Fatal(err)
			}
		}
		// Everything broadcast before rounds-Δ must have fully drained.
		if first, ok := n.OldestPendingRound(); ok && first < rounds {
			t.Errorf("policy %s seed=%#x: messages still pending for past round %d", name, scenarioPolicySeed, first)
		}
	}
}

package network

// This file holds the scenario-layer delay policies: stochastic
// per-edge/per-round schedules and a healing partition, all pure
// functions of (message, recipient) and therefore reproducible. Every policy returns rounds inside the legal window
// [sent+1, sent+Δ] by construction — the paper's theorems quantify over
// *any* delay schedule bounded by Δ, and these policies let the
// simulator exercise that envelope instead of only the min/max/hashed
// corners. docs/scenarios.md states the full contract.

// stochMix is the SplitMix64 finalizer used by every policy hash here —
// the same bit mixer HashedDelay and the mining oracle use, so delay
// schedules are decorrelated from block IDs and player indices.
func stochMix(h uint64) uint64 {
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// IIDDelay draws an independent uniform delay in [1, Delta] for every
// (block, sender, sent round, recipient) tuple — the iid per-edge,
// per-round stochastic schedule. It is not recipient-invariant (two
// recipients of one broadcast usually hear it in different rounds).
type IIDDelay struct {
	// Delta is the network delay bound; delays are uniform on [1, Delta].
	Delta int
	// Seed selects the schedule; different seeds draw independent ones.
	Seed uint64
}

// DeliveryRound implements DelayPolicy.
func (d IIDDelay) DeliveryRound(m Message, recipient int) int {
	h := uint64(m.Block.ID)*0x9e3779b97f4a7c15 ^
		uint64(recipient+1)*0xbf58476d1ce4e5b9 ^
		uint64(m.SentRound+1)*0x94d049bb133111eb ^
		uint64(m.From+2)*0xd6e8feb86659fd93 ^ d.Seed
	span := uint64(d.Delta)
	if span == 0 {
		span = 1
	}
	return int(m.SentRound) + 1 + int(stochMix(h)%span)
}

// BurstyDelay is a regime-switching schedule: rounds are grouped into
// epochs of RegimeLen rounds, and a seeded hash marks each epoch as
// calm or congested. Calm epochs deliver at sent+1; congested epochs
// deliver at the full sent+Delta. The delivery round depends only on
// the message (its sent round picks the epoch), never on the recipient,
// so the policy is recipient-invariant: a broadcast is one O(1)
// nil-list entry, scheduled with a recipient = -1 probe.
type BurstyDelay struct {
	// Delta is the network delay bound; congested epochs delay by it.
	Delta int
	// RegimeLen is the epoch length in rounds (values < 1 mean 1).
	RegimeLen int
	// BurstEveryN marks every 1-in-N epoch congested on average
	// (values < 1 mean 4, i.e. 25% of epochs are bursts).
	BurstEveryN int
	// Seed selects which epochs burst.
	Seed uint64
}

// burst reports whether the epoch containing round is congested.
func (d BurstyDelay) burst(round int) bool {
	rl := d.RegimeLen
	if rl < 1 {
		rl = 1
	}
	n := d.BurstEveryN
	if n < 1 {
		n = 4
	}
	epoch := uint64(round) / uint64(rl)
	return stochMix(epoch*0x9e3779b97f4a7c15^d.Seed)%uint64(n) == 0
}

// DeliveryRound implements DelayPolicy. The recipient is ignored
// (including Broadcast's -1 probe).
func (d BurstyDelay) DeliveryRound(m Message, _ int) int {
	if d.burst(int(m.SentRound)) {
		delta := d.Delta
		if delta < 1 {
			delta = 1
		}
		return int(m.SentRound) + delta
	}
	return int(m.SentRound) + 1
}

// RecipientInvariant implements the marker interface: every recipient
// of a broadcast hears it in the same (epoch-chosen) round.
func (BurstyDelay) RecipientInvariant() {}

// RecipientDelay models heterogeneous links: each recipient has a fixed
// seeded latency in [1, Delta] applied to every message it receives —
// some players are simply farther from the gossip core than others.
// Not recipient-invariant.
type RecipientDelay struct {
	// Delta is the network delay bound; per-recipient latencies are
	// uniform on [1, Delta].
	Delta int
	// Seed selects the latency assignment.
	Seed uint64
}

// Latency returns recipient's fixed delay in [1, Delta].
func (d RecipientDelay) Latency(recipient int) int {
	span := uint64(d.Delta)
	if span == 0 {
		span = 1
	}
	return 1 + int(stochMix(uint64(recipient+1)*0x9e3779b97f4a7c15^d.Seed)%span)
}

// DeliveryRound implements DelayPolicy.
func (d RecipientDelay) DeliveryRound(m Message, recipient int) int {
	return int(m.SentRound) + d.Latency(recipient)
}

// PartitionDelay models a periodically partitioned network that heals:
// players are split into group A = [0, Split) and group B = [Split, n).
// Each Period-round cycle starts with Length rounds of active
// partition, during which cross-group traffic is held until the heal
// round (the first round after the window); within-group traffic and
// cross-group traffic outside the window deliver at sent+1. Because the
// model guarantees delivery within Δ, a held message whose heal round
// lies beyond sent+Δ is released at sent+Δ instead — partitions longer
// than Δ are Δ-truncated, which is exactly the envelope the theorems
// quantify over (docs/scenarios.md discusses the truncation).
//
// Not recipient-invariant, since the two sides of the cut hear a broadcast
// in different rounds during the window.
type PartitionDelay struct {
	// Delta is the network delay bound.
	Delta int
	// Split is the first index of group B; players < Split are group A.
	Split int
	// Period is the cycle length in rounds (values < 1 mean 1).
	Period int
	// Length is how many rounds at the start of each cycle the partition
	// is active; clamped into [0, Period].
	Length int
}

// HealRound returns the heal round of the cycle containing round and
// whether the partition is active at round.
func (d PartitionDelay) HealRound(round int) (int, bool) {
	period := d.Period
	if period < 1 {
		period = 1
	}
	length := d.Length
	if length > period {
		length = period
	}
	q := round % period
	cycleStart := round - q
	return cycleStart + length, q < length
}

// DeliveryRound implements DelayPolicy.
func (d PartitionDelay) DeliveryRound(m Message, recipient int) int {
	sent := int(m.SentRound)
	heal, active := d.HealRound(sent)
	if !active || d.sideOf(int(m.From)) == d.sideOf(recipient) {
		return sent + 1
	}
	delta := d.Delta
	if delta < 1 {
		delta = 1
	}
	if heal > sent+delta {
		return sent + delta
	}
	return heal
}

// sideOf maps a player index to its group; out-of-range senders (the
// adversary's -1) count as group A.
func (d PartitionDelay) sideOf(player int) bool { return player >= d.Split }

// Package network implements the asynchronous Δ-delay message model of
// Pass–Seeman–Shelat that the paper adopts (Section III): the adversary
// may delay and reorder every message, per recipient, by up to Δ rounds,
// but cannot modify honest messages and cannot prevent delivery beyond the
// Δ-th round after sending.
//
// Honest broadcasts go through Broadcast, which consults a DelayPolicy
// (the adversary's scheduling power) and clamps every chosen delivery
// round into the legal window [sent+1, sent+Δ]. The adversary's own block
// announcements go through Send, which is unconstrained in time — the
// adversary controls its corrupted players outright, so withholding a
// block is modeled as simply not sending it yet.
//
// The fabric is a ring of Δ+1 round slots (indexed round mod Δ+1), each
// holding one reusable message slice per recipient: in the engine's
// steady state — every slot fully drained each round — enqueue and
// delivery are append/reset operations on retained buffers, with no map
// churn and no per-delivery sort (messages are appended in delivery
// order and re-sorted only if an out-of-order arrival is detected). Far
// future adversarial sends that outrun the ring (beyond Δ+1 rounds
// ahead, i.e. withheld blocks) spill into an overflow map and are merged
// back at delivery.
package network

import (
	"fmt"

	"neatbound/internal/blockchain"
	"neatbound/internal/pool"
)

// Announce is the on-wire form of a block announcement. Delivery and
// longest-chain adoption only ever read the ID and the height — the
// block body lives in the shared tree — so the ring carries 16 bytes
// per message instead of a full Block record (the uniform-broadcast
// expansion at large n copies one Message per recipient, so wire size
// is a first-order memory cost).
type Announce struct {
	// ID identifies the announced block. The zero ID (GenesisID) is
	// invalid: genesis is never announced.
	ID blockchain.BlockID
	// Height is the announced block's height, which is all adoption
	// needs to compare chains. int32 (like the arena's height column)
	// packs Message to 24 bytes.
	Height int32
}

// AnnounceBlock is the Announce for a mined block.
func AnnounceBlock(b blockchain.Block) Announce {
	return Announce{ID: b.ID, Height: int32(b.Height)}
}

// Message is a block announcement in transit.
type Message struct {
	// Block is the announced block's wire form.
	Block Announce
	// From is the index of the sending player. int32 keeps the wire
	// struct at 24 bytes; player counts are bounded well below 2³¹.
	From int32
	// SentRound is the round the message entered the network, int32 for
	// the same packing reason (round columns are int32 throughout).
	SentRound int32
}

// messageLess orders messages by (sent round, block ID, sender) — the
// deterministic delivery order DeliverTo guarantees.
func messageLess(a, b Message) bool {
	if a.SentRound != b.SentRound {
		return a.SentRound < b.SentRound
	}
	if a.Block.ID != b.Block.ID {
		return a.Block.ID < b.Block.ID
	}
	return a.From < b.From
}

// sortDeliveryOrder establishes the deterministic delivery order in
// place. It is THE ordering step of every drain path — DeliverTo and
// ShardCursor.Deliver both call it, so serial and sharded delivery
// cannot drift apart. Appends arrive pre-sorted on the engine's path,
// so the insertion re-sort only pays when an out-of-order adversarial
// schedule is detected; stability preserves arrival order on full ties
// (the same block sent twice to one recipient).
func sortDeliveryOrder(msgs []Message) {
	for i := 1; i < len(msgs); i++ {
		if messageLess(msgs[i], msgs[i-1]) {
			for j := i; j > 0 && messageLess(msgs[j], msgs[j-1]); j-- {
				msgs[j], msgs[j-1] = msgs[j-1], msgs[j]
			}
		}
	}
}

// DelayPolicy is the adversary's scheduling interface for honest
// broadcasts: it picks the delivery round for a message to a specific
// recipient. Returned values outside [SentRound+1, SentRound+Δ] are
// clamped by the network — the model guarantees delivery within Δ no
// matter what the policy asks for.
type DelayPolicy interface {
	// DeliveryRound returns the round in which recipient should receive m.
	DeliveryRound(m Message, recipient int) int
}

// ParallelSafe marks a DelayPolicy whose DeliveryRound is safe to call
// concurrently. Broadcast fans out across the persistent worker pool for
// such policies when the recipient set is large (the ablation of
// BenchmarkNetworkFanout).
type ParallelSafe interface {
	ParallelSafe()
}

// RecipientInvariant marks a DelayPolicy whose DeliveryRound ignores the
// recipient — every recipient of a broadcast receives it in the same
// round. Broadcast exploits the marker with a single O(1) uniform slot
// entry instead of O(players) per-recipient appends; the drain paths
// expand the entry per recipient (minus the sender) in the usual
// deterministic order, so results are identical to the per-recipient
// path. Implementations must tolerate DeliveryRound being called with
// recipient = -1 (the probe Broadcast uses).
type RecipientInvariant interface {
	RecipientInvariant()
}

// MinDelay delivers every honest message at the earliest legal round,
// sent+1. It models a benign scheduler.
type MinDelay struct{}

// DeliveryRound implements DelayPolicy.
func (MinDelay) DeliveryRound(m Message, _ int) int { return int(m.SentRound) + 1 }

// ParallelSafe implements the marker interface.
func (MinDelay) ParallelSafe() {}

// RecipientInvariant implements the marker interface: the delivery round
// is sent+1 for every recipient.
func (MinDelay) RecipientInvariant() {}

// MaxDelay delays every honest message by the full Δ. It is the adversary
// scheduling that the paper's convergence-opportunity analysis must (and
// does) survive.
type MaxDelay struct {
	// Delta is the network delay bound.
	Delta int
}

// DeliveryRound implements DelayPolicy.
func (d MaxDelay) DeliveryRound(m Message, _ int) int { return int(m.SentRound) + d.Delta }

// ParallelSafe implements the marker interface.
func (MaxDelay) ParallelSafe() {}

// RecipientInvariant implements the marker interface: the delivery round
// is sent+Δ for every recipient.
func (MaxDelay) RecipientInvariant() {}

// HashedDelay assigns each (block, recipient) pair a deterministic
// pseudo-random delay in [1, Delta]. Being a pure function of its inputs,
// it is parallel-safe and reproducible.
type HashedDelay struct {
	// Delta is the network delay bound.
	Delta int
	// Seed perturbs the hash so different executions draw different
	// schedules.
	Seed uint64
}

// DeliveryRound implements DelayPolicy.
func (d HashedDelay) DeliveryRound(m Message, recipient int) int {
	h := uint64(m.Block.ID)*0x9e3779b97f4a7c15 ^ uint64(recipient)*0xbf58476d1ce4e5b9 ^ d.Seed
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	span := uint64(d.Delta)
	if span == 0 {
		span = 1
	}
	return int(m.SentRound) + 1 + int(h%span)
}

// ParallelSafe implements the marker interface.
func (HashedDelay) ParallelSafe() {}

// slot is one ring entry: the undelivered messages of a single round.
type slot struct {
	// round is the absolute round this slot currently represents; -1
	// until first used. A slot is recycled to a new round only when it
	// has no pending messages.
	round int
	// pending counts undelivered messages across all recipients,
	// including the per-recipient expansion of the uniform entries.
	pending int
	// byRecipient[i] holds recipient i's messages for this round. The
	// slices are retained across recycles (reset to length 0), so the
	// steady state allocates nothing.
	byRecipient [][]Message
	// uniform holds broadcasts destined for every player but their
	// sender in this round — one entry per broadcast instead of one per
	// (message, recipient) pair (see Network.enqueueUniform).
	// uniformPending is the number of undelivered (message, recipient)
	// pairs the entries stand for; it is always ≤ pending.
	uniform        []Message
	uniformPending int
	// drainedStamp[i] == round marks recipient i as having drained the
	// uniform entries this round, so repeated drains never deliver a
	// uniform message twice. Only the per-recipient drains (DeliverTo,
	// ShardCursor.Deliver) of uniform entries read or write it, so
	// ensureByRecipient allocates it lazily, serially, and only for a
	// slot holding uniform entries; it stays nil for a slot only ever
	// drained whole through DrainUniform. A fresh array's
	// zero stamps and, on recycle, stale ones are both safe: delivery
	// rounds are ≥ 1 and distinct per slot generation, so they never
	// equal the new round. Entries are written by at most one delivery
	// cursor per round (disjoint recipient ranges), so the sharded
	// drain stays race-free.
	drainedStamp []int
}

// pendingBlock records one block that entered the fabric and may still
// be undelivered at rounds ≤ until. The engine's compaction watermark
// folds over these so no in-flight announcement ever names a retired ID.
type pendingBlock struct {
	id    blockchain.BlockID
	until int
}

// Network is the round-based Δ-delay message fabric. It is not safe for
// concurrent use; the engine drives it from the round loop.
type Network struct {
	players int
	delta   int
	// ring holds the Δ+1 in-window round slots (honest deliveries always
	// land within [sent+1, sent+Δ], so a drained-every-round caller never
	// leaves the ring).
	ring []slot
	// overflow holds messages whose delivery round could not claim a ring
	// slot — adversarial sends scheduled beyond the ring horizon. Keyed
	// by round, then recipient.
	overflow map[int]map[int][]Message
	// staged is the sharded-delivery window's per-recipient view of the
	// current round's overflow spill (see shard.go); stagedActive marks a
	// window opened by BeginRound with spill present.
	staged       [][]Message
	stagedActive bool
	// bcastClaim, bcastCounts and bcastSpill are reusable scratch for
	// broadcastParallel (slot claims, per-task pending tallies,
	// per-task overflow fallbacks).
	bcastClaim  []bool
	bcastCounts []int
	bcastSpill  [][]spillRef
	// pool runs the parallel fan-out's tasks on persistent workers;
	// lazily the process-wide shared pool unless UsePool injected one.
	// bcastFn is the persistent task closure handed to pool.Run — it
	// reads the in-flight broadcast from the bcastMsg/bcastPolicy/
	// bcastPer fields, so the steady state allocates no closures.
	pool        *pool.Pool
	bcastFn     func(task int)
	bcastMsg    Message
	bcastPolicy DelayPolicy
	bcastPer    int
	// pending counts undelivered messages, for invariant checks.
	pending int
	// pendingBlocks tracks the distinct blocks recently handed to the
	// fabric, with a conservative last-delivery round each; see
	// AppendInFlight. Self-pruning (notePending) bounds its growth even
	// when no one ever drains it.
	pendingBlocks []pendingBlock
	// stats
	sent      int
	delivered int
}

// New returns a network connecting players nodes with delay bound delta.
func New(players, delta int) (*Network, error) {
	if players < 1 {
		return nil, fmt.Errorf("network: players = %d must be ≥ 1", players)
	}
	if delta < 1 {
		return nil, fmt.Errorf("network: Δ = %d must be ≥ 1", delta)
	}
	n := &Network{
		players:  players,
		delta:    delta,
		ring:     make([]slot, delta+1),
		overflow: map[int]map[int][]Message{},
	}
	for i := range n.ring {
		n.ring[i].round = -1
	}
	n.bcastFn = n.broadcastTask
	return n, nil
}

// UsePool sets the persistent worker pool the parallel broadcast fan-out
// runs on. Without it, the first parallel broadcast adopts the
// process-wide shared pool (pool.Default()).
func (n *Network) UsePool(p *pool.Pool) { n.pool = p }

// Players returns the number of connected nodes.
func (n *Network) Players() int { return n.players }

// Delta returns the delay bound Δ.
func (n *Network) Delta() int { return n.delta }

// Pending returns the number of enqueued, undelivered messages.
func (n *Network) Pending() int { return n.pending }

// Sent returns the total number of (message, recipient) deliveries
// scheduled so far.
func (n *Network) Sent() int { return n.sent }

// Delivered returns the total number of messages handed to recipients.
func (n *Network) Delivered() int { return n.delivered }

// clampDelivery forces round into the legal window for a message sent at
// sent.
func (n *Network) clampDelivery(sent, round int) int {
	if round < sent+1 {
		return sent + 1
	}
	if round > sent+n.delta {
		return sent + n.delta
	}
	return round
}

// recycleSlot repurposes a fully drained slot for round r, keeping its
// buffers. The caller has checked s.pending == 0. Per-recipient state
// stays lazy: a slot that only ever carries uniform entries (the large-n
// fast-forward regime) never pays the O(players) byRecipient and
// drainedStamp arrays — the dominant allocations of large-n runs.
func (n *Network) recycleSlot(s *slot, r int) {
	s.round = r
	s.uniform = s.uniform[:0]
	s.uniformPending = 0
}

// ensureByRecipient allocates the slot's per-recipient buffers on first
// per-recipient use, and its uniform drain stamps once it also carries
// uniform entries (a per-recipient-only slot never reads them). Serial
// call sites only — the sharded window allocates in BeginRound, never
// from a worker.
func (n *Network) ensureByRecipient(s *slot) {
	if s.byRecipient == nil {
		s.byRecipient = make([][]Message, n.players)
	}
	if s.uniformPending > 0 && s.drainedStamp == nil {
		s.drainedStamp = make([]int, n.players)
	}
}

// enqueue schedules m for recipient at round r.
func (n *Network) enqueue(m Message, recipient, r int) {
	s := &n.ring[r%len(n.ring)]
	if s.round != r {
		if s.pending == 0 {
			n.recycleSlot(s, r)
		} else {
			// The slot still holds an undelivered earlier (or later)
			// round: spill to the overflow map instead of evicting.
			byRecipient, ok := n.overflow[r]
			if !ok {
				byRecipient = map[int][]Message{}
				n.overflow[r] = byRecipient
			}
			byRecipient[recipient] = append(byRecipient[recipient], m)
			n.pending++
			n.sent++
			return
		}
	}
	n.ensureByRecipient(s)
	s.byRecipient[recipient] = append(s.byRecipient[recipient], m)
	s.pending++
	n.pending++
	n.sent++
}

// notePending records that block id may be undelivered through round
// until (now is the sending round). Consecutive sends of the same block
// merge; at capacity the expired prefix is pruned in place, so the
// tracker stays bounded even when compaction never drains it.
func (n *Network) notePending(id blockchain.BlockID, until, now int) {
	if k := len(n.pendingBlocks); k > 0 && n.pendingBlocks[k-1].id == id {
		if until > n.pendingBlocks[k-1].until {
			n.pendingBlocks[k-1].until = until
		}
		return
	}
	if len(n.pendingBlocks) >= 1024 && len(n.pendingBlocks) == cap(n.pendingBlocks) {
		kept := n.pendingBlocks[:0]
		for _, pb := range n.pendingBlocks {
			if pb.until >= now {
				kept = append(kept, pb)
			}
		}
		n.pendingBlocks = kept
	}
	n.pendingBlocks = append(n.pendingBlocks, pendingBlock{id: id, until: until})
}

// AppendInFlight appends the ID of every block that may still be
// undelivered at round to buf and returns it, pruning expired entries as
// a side effect. The engine folds these into the compaction watermark so
// a rebase can never strand a message naming a retired block.
func (n *Network) AppendInFlight(buf []blockchain.BlockID, round int) []blockchain.BlockID {
	kept := n.pendingBlocks[:0]
	for _, pb := range n.pendingBlocks {
		if pb.until >= round {
			kept = append(kept, pb)
			buf = append(buf, pb.id)
		}
	}
	n.pendingBlocks = kept
	return buf
}

// enqueueUniform schedules m for every player — except m.From when it
// names one — at round r with a single slot entry, O(1) regardless of
// the player count. It reports false when the target ring slot is held
// by an undrained other round; the caller then falls back to the
// per-recipient path (whose enqueue spills to the overflow map).
func (n *Network) enqueueUniform(m Message, r int) bool {
	s := &n.ring[r%len(n.ring)]
	if s.round != r {
		if s.pending != 0 {
			return false
		}
		n.recycleSlot(s, r)
	}
	fanout := n.players
	if m.From >= 0 && int(m.From) < n.players {
		fanout--
	}
	if fanout > 0 {
		s.uniform = append(s.uniform, m)
		s.uniformPending += fanout
		s.pending += fanout
		n.pending += fanout
	}
	n.sent += fanout
	return true
}

// Broadcast schedules m for every player except the sender, at the rounds
// chosen by policy (clamped into [sent+1, sent+Δ]). m.SentRound must equal
// the current round, enforced by the caller passing round.
func (n *Network) Broadcast(m Message, round int, policy DelayPolicy) error {
	if m.Block.ID == blockchain.GenesisID {
		return fmt.Errorf("network: broadcast of empty block")
	}
	if int(m.SentRound) != round {
		return fmt.Errorf("network: message stamped round %d broadcast at round %d", m.SentRound, round)
	}
	// Honest deliveries land within [sent+1, sent+Δ] no matter the policy.
	n.notePending(m.Block.ID, int(m.SentRound)+n.delta, int(m.SentRound))
	if _, ok := policy.(RecipientInvariant); ok {
		// One delivery round for every recipient: a single uniform slot
		// entry replaces the per-recipient fan-out, with identical drain
		// results (same messages, same deterministic order, same
		// counters).
		r := n.clampDelivery(int(m.SentRound), policy.DeliveryRound(m, -1))
		if n.enqueueUniform(m, r) {
			return nil
		}
	}
	const parallelThreshold = 4096
	if _, ok := policy.(ParallelSafe); ok && n.players >= parallelThreshold {
		n.broadcastParallel(m, policy)
		return nil
	}
	for r := 0; r < n.players; r++ {
		if r == int(m.From) {
			continue
		}
		n.enqueue(m, r, n.clampDelivery(int(m.SentRound), policy.DeliveryRound(m, r)))
	}
	return nil
}

// spillRef records a recipient whose delivery round could not claim a
// ring slot during a parallel broadcast; it is enqueued serially (the
// overflow map is not concurrent).
type spillRef struct {
	recipient, round int
}

// broadcastParallel fans one honest broadcast's per-recipient enqueue
// across the worker pool's persistent workers (zero goroutine spawns in
// steady state). The result is bit-identical to the sequential loop:
// every legal delivery round's ring slot is claimed serially up front,
// tasks then append into disjoint per-recipient slot buffers (each
// recipient is owned by exactly one task, and a broadcast adds at most
// one message per recipient, so per-recipient message order is
// untouched), and the pending counters are merged from per-task tallies
// afterwards. Recipients whose slot could not be claimed — the target
// ring position still holds an undrained far-future round — fall back to
// the serial enqueue path and its overflow map.
func (n *Network) broadcastParallel(m Message, policy DelayPolicy) {
	sent := int(m.SentRound)
	nslots := len(n.ring)
	// Claim the ring slot of every legal delivery round (serial): a slot
	// is claimable when it already represents the round or is drained.
	if cap(n.bcastClaim) < n.delta {
		n.bcastClaim = make([]bool, n.delta)
	}
	claimed := n.bcastClaim[:n.delta]
	for d := 0; d < n.delta; d++ {
		r := sent + 1 + d
		s := &n.ring[r%nslots]
		switch {
		case s.round == r:
			claimed[d] = true
		case s.pending == 0:
			n.recycleSlot(s, r)
			claimed[d] = true
		default:
			claimed[d] = false
		}
		if claimed[d] {
			// Workers append into per-recipient buffers; allocate them here
			// on the serial side of the fan-out.
			n.ensureByRecipient(s)
		}
	}
	if n.pool == nil {
		n.pool = pool.Default()
	}
	tasks := n.pool.Workers() + 1 // the Run caller executes tasks too
	if tasks > 8 {
		tasks = 8
	}
	if cap(n.bcastCounts) < tasks*n.delta {
		n.bcastCounts = make([]int, tasks*n.delta)
	}
	counts := n.bcastCounts[:tasks*n.delta]
	for i := range counts {
		counts[i] = 0
	}
	for len(n.bcastSpill) < tasks {
		n.bcastSpill = append(n.bcastSpill, nil)
	}
	n.bcastMsg, n.bcastPolicy = m, policy
	n.bcastPer = (n.players + tasks - 1) / tasks
	n.pool.Run(tasks, n.bcastFn)
	n.bcastPolicy = nil
	total := 0
	for d := 0; d < n.delta; d++ {
		sum := 0
		for w := 0; w < tasks; w++ {
			sum += counts[w*n.delta+d]
		}
		if sum > 0 {
			n.ring[(sent+1+d)%nslots].pending += sum
			total += sum
		}
	}
	n.pending += total
	n.sent += total
	for w := 0; w < tasks; w++ {
		for _, sp := range n.bcastSpill[w] {
			n.enqueue(m, sp.recipient, sp.round)
		}
		n.bcastSpill[w] = n.bcastSpill[w][:0]
	}
}

// broadcastTask is the persistent pool closure of broadcastParallel: it
// enqueues the in-flight broadcast (the bcastMsg/bcastPolicy/bcastPer
// fields, published before pool.Run) for the recipients of one
// contiguous chunk of the player range.
func (n *Network) broadcastTask(task int) {
	m, policy := n.bcastMsg, n.bcastPolicy
	sent := int(m.SentRound)
	nslots := len(n.ring)
	claimed := n.bcastClaim[:n.delta]
	lo, hi := task*n.bcastPer, (task+1)*n.bcastPer
	if hi > n.players {
		hi = n.players
	}
	myCounts := n.bcastCounts[task*n.delta : (task+1)*n.delta]
	spill := n.bcastSpill[task][:0]
	for r := lo; r < hi; r++ {
		if r == int(m.From) {
			continue
		}
		dr := n.clampDelivery(sent, policy.DeliveryRound(m, r))
		d := dr - sent - 1
		if claimed[d] {
			s := &n.ring[dr%nslots]
			s.byRecipient[r] = append(s.byRecipient[r], m)
			myCounts[d]++
		} else {
			spill = append(spill, spillRef{recipient: r, round: dr})
		}
	}
	n.bcastSpill[task] = spill
}

// Send schedules m for a single recipient at deliverRound. It is the
// adversary's unconstrained channel: the only restriction is that delivery
// cannot happen before the next round.
func (n *Network) Send(m Message, recipient, deliverRound int) error {
	if m.Block.ID == blockchain.GenesisID {
		return fmt.Errorf("network: send of empty block")
	}
	if recipient < 0 || recipient >= n.players {
		return fmt.Errorf("network: recipient %d outside [0, %d)", recipient, n.players)
	}
	if deliverRound <= int(m.SentRound) {
		deliverRound = int(m.SentRound) + 1
	}
	n.notePending(m.Block.ID, deliverRound, int(m.SentRound))
	n.enqueue(m, recipient, deliverRound)
	return nil
}

// SendAll schedules m for every player — including the index m.From
// names, if any, matching a Send loop over the whole player range — at
// deliverRound (clamped to at least SentRound+1). When m.From is
// outside the player range (the adversary's -1) the schedule is a
// single O(1) uniform slot entry; otherwise, or when the target slot is
// held by an undrained other round, it falls back to per-recipient
// sends.
func (n *Network) SendAll(m Message, deliverRound int) error {
	if m.Block.ID == blockchain.GenesisID {
		return fmt.Errorf("network: send of empty block")
	}
	if deliverRound <= int(m.SentRound) {
		deliverRound = int(m.SentRound) + 1
	}
	n.notePending(m.Block.ID, deliverRound, int(m.SentRound))
	if m.From < 0 || int(m.From) >= n.players {
		if n.enqueueUniform(m, deliverRound) {
			return nil
		}
	}
	for r := 0; r < n.players; r++ {
		if err := n.Send(m, r, deliverRound); err != nil {
			return err
		}
	}
	return nil
}

// DeliverTo removes and returns the messages due for recipient at round,
// in a deterministic order (by sent round, then block ID, then sender).
//
// The returned slice aliases an internal buffer that is reused once the
// same ring slot cycles to a later round (≥ Δ+1 rounds on): consume it
// before enqueueing into that future round, as the engine's
// deliver-then-mine round structure does, or copy it out.
func (n *Network) DeliverTo(recipient, round int) []Message {
	var msgs []Message
	ringCount, uniCount := 0, 0
	s := &n.ring[round%len(n.ring)]
	if s.round == round {
		if s.pending > 0 {
			// Lazy per-recipient buffers: first per-recipient drain of a
			// slot that was filled through the uniform path allocates them
			// here (serial), so the buffer hand-back below keeps working.
			n.ensureByRecipient(s)
		}
		if s.byRecipient != nil {
			msgs = s.byRecipient[recipient]
			ringCount = len(msgs)
		}
		if s.uniformPending > 0 && s.drainedStamp[recipient] != round {
			s.drainedStamp[recipient] = round
			for _, um := range s.uniform {
				if int(um.From) == recipient {
					continue
				}
				msgs = append(msgs, um)
				uniCount++
			}
		}
	}
	// Merge any overflow spill for this (round, recipient).
	if byRecipient, ok := n.overflow[round]; ok {
		if extra, ok := byRecipient[recipient]; ok {
			msgs = append(msgs, extra...)
			delete(byRecipient, recipient)
			if len(byRecipient) == 0 {
				delete(n.overflow, round)
			}
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	sortDeliveryOrder(msgs)
	if s.round == round {
		if s.byRecipient != nil {
			// Hand the (possibly grown) buffer back to the slot for reuse.
			s.byRecipient[recipient] = msgs[:0]
		}
		s.pending -= ringCount + uniCount
		s.uniformPending -= uniCount
	}
	n.pending -= len(msgs)
	n.delivered += len(msgs)
	return msgs
}

// HasDue reports whether any message is due for delivery at round. A
// false answer proves the round's delivery phase is a no-op, so the
// engine can skip the per-recipient walk entirely.
func (n *Network) HasDue(round int) bool {
	if n.pending == 0 {
		return false
	}
	s := &n.ring[round%len(n.ring)]
	if s.round == round && s.pending > 0 {
		return true
	}
	_, ok := n.overflow[round]
	return ok
}

// UniformPendingAt reports whether round has deliveries due and every
// one of them sits in its ring slot's uniform list — no per-recipient
// entries, no overflow spill, no open sharded window. Only then may the
// caller replace the per-recipient drain with one DrainUniform call.
// The answer is only meaningful before any of the round's messages have
// been drained.
func (n *Network) UniformPendingAt(round int) bool {
	if n.stagedActive {
		return false
	}
	if _, ok := n.overflow[round]; ok {
		return false
	}
	s := &n.ring[round%len(n.ring)]
	return s.round == round && s.pending > 0 && s.pending == s.uniformPending
}

// DrainUniform removes and returns round's uniform messages in the
// deterministic delivery order, marking the whole round delivered in
// O(1) per message: every recipient (except each message's sender) is
// accounted as having received every entry. The caller must have
// established UniformPendingAt(round) and not drained any recipient
// this round; it must also apply the per-recipient sender exclusion
// itself (entries with From == recipient were never addressed to that
// recipient). The returned slice aliases the slot's buffer, with the
// same lifetime caveat as DeliverTo's.
func (n *Network) DrainUniform(round int) []Message {
	s := &n.ring[round%len(n.ring)]
	if s.round != round || s.uniformPending == 0 {
		return nil
	}
	msgs := s.uniform
	sortDeliveryOrder(msgs)
	n.pending -= s.uniformPending
	n.delivered += s.uniformPending
	s.pending -= s.uniformPending
	s.uniformPending = 0
	s.uniform = s.uniform[:0]
	return msgs
}

// OldestPendingRound returns the earliest round with undelivered messages
// and true, or 0 and false when nothing is pending. It supports the
// delivery-guarantee invariant tests.
func (n *Network) OldestPendingRound() (int, bool) {
	if n.pending == 0 {
		return 0, false
	}
	first := int(^uint(0) >> 1)
	for i := range n.ring {
		if s := &n.ring[i]; s.pending > 0 && s.round < first {
			first = s.round
		}
	}
	for r, byRecipient := range n.overflow {
		if len(byRecipient) > 0 && r < first {
			first = r
		}
	}
	return first, true
}

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
// In-flight state is one list of delivery rounds in ascending order.
// Each round holds a list of entries, and an entry is one message
// together with the recipients it is due to in that round: an ascending
// recipient list, or nil for every player except the sender. So an
// honest broadcast is one block plus one delay per recipient, as in the
// model, and costs 4 bytes per recipient at most:
//
//   - under a RecipientInvariant policy it is a single nil-list entry,
//     O(1) at any player count;
//   - under any other policy it is at most Δ entries, one per distinct
//     delivery round, whose lists come from one pass that buckets the
//     recipients by their clamped delay;
//   - a Send extends the round's last entry when that entry carries the
//     same message to a lower recipient, so a per-recipient send loop is
//     one entry too.
//
// Deliver hands a round over whole, in the deterministic delivery order;
// the caller expands each entry over the recipients it owns. The
// Network is not safe for concurrent use, but the entries Deliver
// returns are read-only and may be read from several goroutines at once.
package network

import (
	"cmp"
	"fmt"
	"slices"

	"neatbound/internal/blockchain"
)

// Announce is the on-wire form of a block announcement. Delivery and
// longest-chain adoption only ever read the ID and the height — the
// block body lives in the shared tree — so an entry carries 16 bytes of
// block instead of a full Block record.
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

// compareMessages orders messages by (sent round, block ID, sender) —
// the deterministic delivery order Deliver guarantees.
func compareMessages(a, b Message) int {
	if c := cmp.Compare(a.SentRound, b.SentRound); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Block.ID, b.Block.ID); c != 0 {
		return c
	}
	return cmp.Compare(a.From, b.From)
}

// Entry is one in-flight message and the recipients it is due to in its
// delivery round.
type Entry struct {
	// Msg is the message.
	Msg Message
	// To lists the recipients in strictly ascending order. Nil means
	// every player except Msg.From.
	To []int32
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

// RecipientInvariant marks a DelayPolicy whose DeliveryRound ignores the
// recipient — every recipient of a broadcast receives it in the same
// round. Broadcast then schedules a single nil-list entry instead of
// computing one delay per recipient. Implementations must tolerate
// DeliveryRound being called with recipient = -1 (the probe Broadcast
// uses).
type RecipientInvariant interface {
	RecipientInvariant()
}

// MinDelay delivers every honest message at the earliest legal round,
// sent+1. It models a benign scheduler.
type MinDelay struct{}

// DeliveryRound implements DelayPolicy.
func (MinDelay) DeliveryRound(m Message, _ int) int { return int(m.SentRound) + 1 }

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

// RecipientInvariant implements the marker interface: the delivery round
// is sent+Δ for every recipient.
func (MaxDelay) RecipientInvariant() {}

// HashedDelay assigns each (block, recipient) pair a deterministic
// pseudo-random delay in [1, Delta]. Being a pure function of its inputs,
// it is reproducible.
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

// dueRound is one delivery round's entries, in arrival order.
type dueRound struct {
	round int
	es    []Entry
}

// Network is the round-based Δ-delay message fabric. It is not safe for
// concurrent use; the engine drives it from the round loop.
type Network struct {
	players int
	delta   int
	// due holds every round with entries in flight, ascending by round,
	// so the oldest is due[0]. Honest delays are ≤ Δ, so it rarely holds
	// more than Δ rounds, and a binary search finds any of them.
	due []dueRound
	// taken is the round Deliver last handed out. Its entry slice and
	// recipient lists go back to freeEntries and freeLists on the next
	// Deliver, so the steady state reuses buffers instead of allocating.
	taken       []Entry
	freeEntries [][]Entry
	freeLists   [][]int32
	// buckets is Broadcast's per-delay scratch: buckets[d] collects the
	// recipients whose delivery round is sent+1+d.
	buckets [][]int32
	// pending counts undelivered (message, recipient) pairs, for
	// invariant checks.
	pending int
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
	return &Network{players: players, delta: delta}, nil
}

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

// recipients returns the number of (message, recipient) pairs en stands
// for.
func (n *Network) recipients(en *Entry) int {
	if en.To != nil {
		return len(en.To)
	}
	if en.Msg.From >= 0 && int(en.Msg.From) < n.players {
		return n.players - 1
	}
	return n.players
}

// newList returns an empty recipient list, reusing a delivered one's
// buffer when there is one.
func (n *Network) newList() []int32 {
	k := len(n.freeLists)
	if k == 0 {
		return nil
	}
	l := n.freeLists[k-1]
	n.freeLists = n.freeLists[:k-1]
	return l
}

// find returns the index of round in due and whether it is there;
// otherwise the index where it belongs.
func (n *Network) find(round int) (int, bool) {
	return slices.BinarySearchFunc(n.due, round, func(d dueRound, r int) int { return cmp.Compare(d.round, r) })
}

// add schedules en for delivery at round. An entry that addresses no one
// (a nil-list broadcast by the only player) is dropped.
func (n *Network) add(round int, en Entry) {
	c := n.recipients(&en)
	if c == 0 {
		return
	}
	i, ok := n.find(round)
	if !ok {
		var es []Entry
		if k := len(n.freeEntries); k > 0 {
			es = n.freeEntries[k-1]
			n.freeEntries = n.freeEntries[:k-1]
		}
		n.due = slices.Insert(n.due, i, dueRound{round: round, es: es})
	}
	n.due[i].es = append(n.due[i].es, en)
	n.pending += c
	n.sent += c
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
	sent := int(m.SentRound)
	if _, ok := policy.(RecipientInvariant); ok {
		n.add(n.clampDelivery(sent, policy.DeliveryRound(m, -1)), Entry{Msg: m})
		return nil
	}
	if n.buckets == nil {
		n.buckets = make([][]int32, n.delta)
	}
	// Recipients are visited in ascending order, so every bucket comes
	// out sorted.
	for r := 0; r < n.players; r++ {
		if r == int(m.From) {
			continue
		}
		d := n.clampDelivery(sent, policy.DeliveryRound(m, r)) - sent - 1
		if n.buckets[d] == nil {
			n.buckets[d] = n.newList()
		}
		n.buckets[d] = append(n.buckets[d], int32(r))
	}
	for d, l := range n.buckets {
		if l != nil {
			n.add(sent+1+d, Entry{Msg: m, To: l})
			n.buckets[d] = nil
		}
	}
	return nil
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
	if i, ok := n.find(deliverRound); ok {
		es := n.due[i].es
		if last := &es[len(es)-1]; last.Msg == m && last.To != nil && last.To[len(last.To)-1] < int32(recipient) {
			last.To = append(last.To, int32(recipient))
			n.pending++
			n.sent++
			return nil
		}
	}
	n.add(deliverRound, Entry{Msg: m, To: append(n.newList(), int32(recipient))})
	return nil
}

// SendAll schedules m for every player — including the index m.From
// names, if any, matching a Send loop over the whole player range — at
// deliverRound (clamped to at least SentRound+1). When m.From is
// outside the player range (the adversary's -1) the schedule is a
// single O(1) nil-list entry; otherwise it is the Send loop.
func (n *Network) SendAll(m Message, deliverRound int) error {
	if m.Block.ID == blockchain.GenesisID {
		return fmt.Errorf("network: send of empty block")
	}
	if deliverRound <= int(m.SentRound) {
		deliverRound = int(m.SentRound) + 1
	}
	if m.From < 0 || int(m.From) >= n.players {
		n.add(deliverRound, Entry{Msg: m})
		return nil
	}
	for r := 0; r < n.players; r++ {
		if err := n.Send(m, r, deliverRound); err != nil {
			return err
		}
	}
	return nil
}

// Deliver removes and returns every entry due at round, sorted stably
// by (sent round, block ID, sender), so each recipient meets its
// messages in that order; all their pairs count as delivered. It
// returns nil when nothing is due.
//
// The entries and their recipient lists stay valid until the next
// Deliver call, which recycles their buffers.
func (n *Network) Deliver(round int) []Entry {
	for i := range n.taken {
		if l := n.taken[i].To; l != nil {
			n.freeLists = append(n.freeLists, l[:0])
		}
		n.taken[i] = Entry{}
	}
	if n.taken != nil {
		n.freeEntries = append(n.freeEntries, n.taken[:0])
	}
	i, ok := n.find(round)
	if !ok {
		n.taken = nil
		return nil
	}
	es := n.due[i].es
	n.taken = es
	n.due = slices.Delete(n.due, i, i+1)
	slices.SortStableFunc(es, func(a, b Entry) int { return compareMessages(a.Msg, b.Msg) })
	for i := range es {
		c := n.recipients(&es[i])
		n.pending -= c
		n.delivered += c
	}
	return es
}

// AppendInFlight appends the block ID of every undelivered entry to buf
// and returns it. The engine folds these into the compaction watermark
// so a rebase can never strand a message naming a retired block.
func (n *Network) AppendInFlight(buf []blockchain.BlockID) []blockchain.BlockID {
	for _, d := range n.due {
		for i := range d.es {
			buf = append(buf, d.es[i].Msg.Block.ID)
		}
	}
	return buf
}

// OldestPendingRound returns the earliest round with undelivered messages
// and true, or 0 and false when nothing is pending. It costs O(1).
func (n *Network) OldestPendingRound() (int, bool) {
	if len(n.due) == 0 {
		return 0, false
	}
	return n.due[0].round, true
}

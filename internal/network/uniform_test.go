package network

import (
	"testing"

	"neatbound/internal/blockchain"
)

func blkAt(id blockchain.BlockID, h int) Announce {
	return Announce{ID: id, Height: int32(h)}
}

// TestSendAllMatchesSendLoop pins SendAll's contract: identical
// per-recipient deliveries, order, and counters to a Send loop over the
// player range — whether the schedule landed in the uniform slot or not.
func TestSendAllMatchesSendLoop(t *testing.T) {
	nUni, _ := New(5, 3)
	nRef, _ := New(5, 3)
	// Two adversarial sends to the same round, plus one per-recipient
	// message on the reference only when mirrored on both.
	for i, id := range []blockchain.BlockID{7, 3} {
		m := Message{Block: blkAt(id, i+1), From: -1, SentRound: 1}
		if err := nUni.SendAll(m, 4); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 5; r++ {
			if err := nRef.Send(m, r, 4); err != nil {
				t.Fatal(err)
			}
		}
	}
	if nUni.Pending() != nRef.Pending() || nUni.Sent() != nRef.Sent() {
		t.Fatalf("counters diverge: uniform (%d, %d), reference (%d, %d)",
			nUni.Pending(), nUni.Sent(), nRef.Pending(), nRef.Sent())
	}
	for r := 0; r < 5; r++ {
		got := append([]Message(nil), nUni.DeliverTo(r, 4)...)
		want := nRef.DeliverTo(r, 4)
		if len(got) != len(want) {
			t.Fatalf("recipient %d: %d messages, want %d", r, len(got), len(want))
		}
		for i := range got {
			if got[i].Block.ID != want[i].Block.ID || got[i].From != want[i].From {
				t.Fatalf("recipient %d message %d: got %v, want %v", r, i, got[i], want[i])
			}
		}
	}
	if nUni.Pending() != 0 || nUni.Delivered() != nRef.Delivered() {
		t.Fatalf("post-drain counters diverge: pending %d, delivered %d vs %d",
			nUni.Pending(), nUni.Delivered(), nRef.Delivered())
	}
}

// TestSendAllInRangeSender: a From inside the player range cannot use
// the uniform slot (uniform entries are excluded per recipient by
// From), so SendAll must fall back to per-recipient sends that include
// the sender itself, matching a literal Send loop.
func TestSendAllInRangeSender(t *testing.T) {
	n, _ := New(4, 2)
	m := Message{Block: blkAt(9, 1), From: 2, SentRound: 0}
	if err := n.SendAll(m, 2); err != nil {
		t.Fatal(err)
	}
	if n.Pending() != 4 {
		t.Fatalf("pending = %d, want 4 (sender included, per Send-loop semantics)", n.Pending())
	}
	if got := n.DeliverTo(2, 2); len(got) != 1 {
		t.Errorf("sender did not receive its own SendAll: %v", got)
	}
}

// TestUniformPendingAt covers the flash-delivery gate: true only when
// every due message for the round is a uniform entry.
func TestUniformPendingAt(t *testing.T) {
	n, _ := New(4, 3)
	if n.UniformPendingAt(2) {
		t.Error("empty round reported uniform-pending")
	}
	if err := n.SendAll(Message{Block: blkAt(5, 1), From: -1, SentRound: 1}, 2); err != nil {
		t.Fatal(err)
	}
	if !n.HasDue(2) || !n.UniformPendingAt(2) {
		t.Error("uniform-only round not detected")
	}
	// A per-recipient send to the same round breaks pure uniformity.
	if err := n.Send(Message{Block: blkAt(6, 1), From: -1, SentRound: 1}, 0, 2); err != nil {
		t.Fatal(err)
	}
	if n.UniformPendingAt(2) {
		t.Error("mixed round reported uniform-pending")
	}
	if !n.HasDue(2) {
		t.Error("mixed round lost HasDue")
	}
}

// TestDrainUniform: draining marks the whole round delivered with exact
// counters and deterministic (sent round, block ID, sender) order.
func TestDrainUniform(t *testing.T) {
	n, _ := New(3, 4)
	// Enqueue out of ID order to exercise the sort.
	for _, id := range []blockchain.BlockID{8, 2, 5} {
		if err := n.SendAll(Message{Block: blkAt(id, 1), From: -1, SentRound: 1}, 3); err != nil {
			t.Fatal(err)
		}
	}
	if !n.UniformPendingAt(3) {
		t.Fatal("uniform slot not engaged")
	}
	msgs := n.DrainUniform(3)
	if len(msgs) != 3 {
		t.Fatalf("drained %d entries, want 3", len(msgs))
	}
	for i, want := range []blockchain.BlockID{2, 5, 8} {
		if msgs[i].Block.ID != want {
			t.Errorf("entry %d: ID %d, want %d (delivery order)", i, msgs[i].Block.ID, want)
		}
	}
	// 3 entries × 3 recipients were pending; all settle at once.
	if n.Pending() != 0 || n.Delivered() != 9 {
		t.Errorf("counters after drain: pending %d, delivered %d; want 0, 9", n.Pending(), n.Delivered())
	}
	if n.HasDue(3) || n.UniformPendingAt(3) {
		t.Error("round still due after drain")
	}
}

// TestUniformSlotOccupiedFallsBack: a SendAll targeting a round whose
// ring slot is held by a different pending round must fall back to
// per-recipient enqueueing (overflow), never corrupt the held slot.
func TestUniformSlotOccupiedFallsBack(t *testing.T) {
	n, _ := New(3, 4)
	ring := len(n.ring)
	// Occupy the slot for round 2.
	if err := n.SendAll(Message{Block: blkAt(1, 1), From: -1, SentRound: 1}, 2); err != nil {
		t.Fatal(err)
	}
	// Same slot, different round (2 + ring length) → must not take the
	// uniform path while round 2 is undrained.
	far := 2 + ring
	if err := n.SendAll(Message{Block: blkAt(2, 2), From: -1, SentRound: 1}, far); err != nil {
		t.Fatal(err)
	}
	if n.UniformPendingAt(far) {
		t.Error("occupied slot accepted a second round's uniform entry")
	}
	if got := n.DeliverTo(0, 2); len(got) != 1 || got[0].Block.ID != 1 {
		t.Fatalf("held round corrupted: %v", got)
	}
	if got := n.DeliverTo(0, far); len(got) != 1 || got[0].Block.ID != 2 {
		t.Fatalf("fallback round lost its message: %v", got)
	}
}

// TestUniformShardedDrainMatchesDeliverTo: the sharded cursor drain
// must expand uniform entries exactly like DeliverTo — sender excluded,
// merged in delivery order with ring-slot messages, counters settled at
// EndRound.
func TestUniformShardedDrainMatchesDeliverTo(t *testing.T) {
	mk := func() *Network {
		n, _ := New(6, 3)
		if err := n.SendAll(Message{Block: blkAt(4, 1), From: -1, SentRound: 1}, 2); err != nil {
			t.Fatal(err)
		}
		// A broadcast from player 1 lands per-recipient or uniform
		// depending on policy; MinDelay is recipient-invariant, so it
		// shares the uniform slot.
		if err := n.Broadcast(Message{Block: blkAt(7, 1), From: 1, SentRound: 1}, 1, MinDelay{}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	nRef, nCur := mk(), mk()
	var want [][]Message
	for r := 0; r < 6; r++ {
		want = append(want, append([]Message(nil), nRef.DeliverTo(r, 2)...))
	}
	nCur.BeginRound(2)
	c0, c1 := nCur.Cursor(2), nCur.Cursor(2)
	for r := 0; r < 3; r++ {
		got := c0.Deliver(r)
		if len(got) != len(want[r]) {
			t.Fatalf("recipient %d: %d messages, want %d", r, len(got), len(want[r]))
		}
		for i := range got {
			if got[i].Block.ID != want[r][i].Block.ID {
				t.Fatalf("recipient %d order differs", r)
			}
		}
	}
	for r := 3; r < 6; r++ {
		got := c1.Deliver(r)
		if len(got) != len(want[r]) {
			t.Fatalf("recipient %d: %d messages, want %d", r, len(got), len(want[r]))
		}
	}
	nCur.EndRound(2, []ShardCursor{c0, c1})
	if nCur.Pending() != nRef.Pending() || nCur.Delivered() != nRef.Delivered() {
		t.Fatalf("counters diverge after sharded drain: (%d, %d) vs (%d, %d)",
			nCur.Pending(), nCur.Delivered(), nRef.Pending(), nRef.Delivered())
	}
}

// TestDrainUniformLeavesStampsNil: a slot only ever drained whole
// through DrainUniform — the fast-forward flash path — never needs the
// per-recipient drain stamps or buffers, so neither is allocated; nor
// does a slot drained per recipient that never held a uniform entry
// allocate stamps.
func TestDrainUniformLeavesStampsNil(t *testing.T) {
	n, _ := New(1000, 3)
	for round := 2; round <= 8; round++ {
		if err := n.Broadcast(Message{Block: blkAt(blockchain.BlockID(round), 1), From: 4, SentRound: int32(round - 1)}, round-1, MinDelay{}); err != nil {
			t.Fatal(err)
		}
		if !n.UniformPendingAt(round) {
			t.Fatalf("round %d: uniform slot not engaged", round)
		}
		if got := n.DrainUniform(round); len(got) != 1 {
			t.Fatalf("round %d: drained %d entries, want 1", round, len(got))
		}
	}
	for i := range n.ring {
		if s := &n.ring[i]; s.drainedStamp != nil || s.byRecipient != nil {
			t.Errorf("slot %d (round %d): per-recipient state allocated by a DrainUniform-only drain", i, s.round)
		}
	}
	if n.Pending() != 0 || n.Delivered() != 7*999 {
		t.Errorf("counters: pending %d, delivered %d; want 0, %d", n.Pending(), n.Delivered(), 7*999)
	}
	if err := n.Send(Message{Block: blkAt(99, 2), From: -1, SentRound: 8}, 3, 9); err != nil {
		t.Fatal(err)
	}
	if got := n.DeliverTo(3, 9); len(got) != 1 {
		t.Fatalf("per-recipient send: delivered %d messages, want 1", len(got))
	}
	if s := &n.ring[9%len(n.ring)]; s.byRecipient == nil || s.drainedStamp != nil {
		t.Errorf("per-recipient-only slot: buffers allocated %v, stamps allocated %v; want true, false",
			s.byRecipient != nil, s.drainedStamp != nil)
	}
}

// TestUniformPerRecipientDrainExactlyOnce: uniform entries drained per
// recipient — through DeliverTo, and through BeginRound with sharded
// cursors — reach every recipient but their sender exactly once, even
// when each recipient drains twice and the slot is reused across
// generations: one drained whole (no stamps yet), then ones drained per
// recipient (stamps allocated on first use, then stale).
func TestUniformPerRecipientDrainExactlyOnce(t *testing.T) {
	const players = 6
	for _, sharded := range []bool{false, true} {
		n, _ := New(players, 2)
		ring := len(n.ring)
		for gen := 0; gen < 4; gen++ {
			round := 2 + gen*ring // same ring slot every generation
			id := blockchain.BlockID(10 * (gen + 1))
			if err := n.SendAll(Message{Block: blkAt(id, 1), From: -1, SentRound: int32(round - 1)}, round); err != nil {
				t.Fatal(err)
			}
			if err := n.Broadcast(Message{Block: blkAt(id+1, 1), From: 1, SentRound: int32(round - 1)}, round-1, MinDelay{}); err != nil {
				t.Fatal(err)
			}
			if !n.UniformPendingAt(round) {
				t.Fatalf("sharded=%v gen %d: uniform slot not engaged", sharded, gen)
			}
			if gen == 0 {
				n.DrainUniform(round)
				continue
			}
			got := make([]map[blockchain.BlockID]int, players)
			for r := range got {
				got[r] = map[blockchain.BlockID]int{}
			}
			drain := func(deliver func(r int) []Message, lo, hi int) {
				// Each recipient drains twice in a row, while the others'
				// uniform expansions are still pending.
				for r := lo; r < hi; r++ {
					for pass := 0; pass < 2; pass++ {
						for _, m := range deliver(r) {
							got[r][m.Block.ID]++
						}
					}
				}
			}
			if sharded {
				n.BeginRound(round)
				c0, c1 := n.Cursor(round), n.Cursor(round)
				drain(c0.Deliver, 0, players/2)
				drain(c1.Deliver, players/2, players)
				n.EndRound(round, []ShardCursor{c0, c1})
			} else {
				drain(func(r int) []Message { return n.DeliverTo(r, round) }, 0, players)
			}
			for r := 0; r < players; r++ {
				wantBcast := 1
				if r == 1 {
					wantBcast = 0 // the sender is excluded
				}
				if got[r][id] != 1 || got[r][id+1] != wantBcast || len(got[r]) != 1+wantBcast {
					t.Errorf("sharded=%v gen %d recipient %d: deliveries %v, want %d×%d and %d×%d",
						sharded, gen, r, got[r], 1, id, wantBcast, id+1)
				}
			}
			if n.Pending() != 0 {
				t.Fatalf("sharded=%v gen %d: %d messages still pending", sharded, gen, n.Pending())
			}
		}
	}
}

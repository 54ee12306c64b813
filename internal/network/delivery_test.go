package network

import (
	"math/rand"
	"slices"
	"testing"

	"neatbound/internal/blockchain"
)

func blkAt(id blockchain.BlockID, h int) Announce {
	return Announce{ID: id, Height: int32(h)}
}

// TestSendAllMatchesSendLoop pins SendAll's contract: identical
// per-recipient deliveries, order, and counters to a Send loop over the
// player range.
func TestSendAllMatchesSendLoop(t *testing.T) {
	nUni, _ := New(5, 3)
	nRef, _ := New(5, 3)
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
		t.Fatalf("counters diverge: SendAll (%d, %d), Send loop (%d, %d)",
			nUni.Pending(), nUni.Sent(), nRef.Pending(), nRef.Sent())
	}
	got, want := drain(nUni, 4, 1), drain(nRef, 4, 1)
	for r := range want {
		if !slices.Equal(got[r], want[r]) {
			t.Fatalf("recipient %d: got %v, want %v", r, got[r], want[r])
		}
	}
	if nUni.Pending() != 0 || nUni.Delivered() != nRef.Delivered() {
		t.Fatalf("post-drain counters diverge: pending %d, delivered %d vs %d",
			nUni.Pending(), nUni.Delivered(), nRef.Delivered())
	}
}

// TestSendAllInRangeSender: a nil-list entry excludes its sender, so a
// SendAll whose From is inside the player range becomes the Send loop —
// one explicit entry that includes the sender itself.
func TestSendAllInRangeSender(t *testing.T) {
	n, _ := New(4, 2)
	m := Message{Block: blkAt(9, 1), From: 2, SentRound: 0}
	if err := n.SendAll(m, 2); err != nil {
		t.Fatal(err)
	}
	if n.Pending() != 4 {
		t.Fatalf("pending = %d, want 4 (sender included, per Send-loop semantics)", n.Pending())
	}
	due := n.Deliver(2)
	if len(due) != 1 || !slices.Equal(due[0].To, []int32{0, 1, 2, 3}) {
		t.Fatalf("SendAll with an in-range sender scheduled %v, want one entry to [0 1 2 3]", due)
	}
}

// TestUniformPendingAt covers what the flash-delivery gate reads: a
// round scheduled only through SendAll and recipient-invariant
// broadcasts is all nil-list entries, and a per-recipient send to the
// same round adds an explicit one.
func TestUniformPendingAt(t *testing.T) {
	for _, mixed := range []bool{false, true} {
		n, _ := New(4, 3)
		if err := n.SendAll(Message{Block: blkAt(5, 1), From: -1, SentRound: 1}, 2); err != nil {
			t.Fatal(err)
		}
		if err := n.Broadcast(Message{Block: blkAt(6, 1), From: 1, SentRound: 1}, 1, MinDelay{}); err != nil {
			t.Fatal(err)
		}
		if mixed {
			if err := n.Send(Message{Block: blkAt(7, 1), From: -1, SentRound: 1}, 0, 2); err != nil {
				t.Fatal(err)
			}
		}
		explicit := 0
		for _, en := range n.Deliver(2) {
			if en.To != nil {
				explicit++
			}
		}
		want := 0
		if mixed {
			want = 1
		}
		if explicit != want {
			t.Errorf("mixed=%v: %d explicit-list entries, want %d", mixed, explicit, want)
		}
	}
}

// TestDrainUniform: delivering a round of nil-list entries settles every
// pair at once, in the deterministic (sent round, block ID, sender)
// order, and leaves nothing due.
func TestDrainUniform(t *testing.T) {
	n, _ := New(3, 4)
	for _, id := range []blockchain.BlockID{8, 2, 5} {
		if err := n.SendAll(Message{Block: blkAt(id, 1), From: -1, SentRound: 1}, 3); err != nil {
			t.Fatal(err)
		}
	}
	due := n.Deliver(3)
	if len(due) != 3 {
		t.Fatalf("delivered %d entries, want 3", len(due))
	}
	for i, want := range []blockchain.BlockID{2, 5, 8} {
		if due[i].Msg.Block.ID != want || due[i].To != nil {
			t.Errorf("entry %d: ID %d (nil list %v), want %d as a nil-list entry", i, due[i].Msg.Block.ID, due[i].To == nil, want)
		}
	}
	// 3 entries × 3 recipients were pending; all settle at once.
	if n.Pending() != 0 || n.Delivered() != 9 {
		t.Errorf("counters after drain: pending %d, delivered %d; want 0, 9", n.Pending(), n.Delivered())
	}
	if got := n.Deliver(3); got != nil {
		t.Errorf("round still due after drain: %v", got)
	}
}

// TestUniformPerRecipientDrainExactlyOnce: nil-list and explicit-list
// entries reach each of their recipients exactly once, serially and
// over two shards, across generations that reuse the recycled entry and
// recipient buffers of earlier rounds.
func TestUniformPerRecipientDrainExactlyOnce(t *testing.T) {
	const players = 6
	for _, shards := range []int{1, 2} {
		n, _ := New(players, 2)
		for gen := 0; gen < 4; gen++ {
			round := 2 + 3*gen
			id := blockchain.BlockID(10 * (gen + 1))
			sent := int32(round - 1)
			if err := n.SendAll(Message{Block: blkAt(id, 1), From: -1, SentRound: sent}, round); err != nil {
				t.Fatal(err)
			}
			if err := n.Broadcast(Message{Block: blkAt(id+1, 1), From: 1, SentRound: sent}, round-1, MinDelay{}); err != nil {
				t.Fatal(err)
			}
			// Out of order: 5 opens an entry, 3 cannot extend it and opens
			// another, which 4 then extends.
			for _, r := range []int{5, 3, 4} {
				if err := n.Send(Message{Block: blkAt(id+2, 1), From: -1, SentRound: sent}, r, round); err != nil {
					t.Fatal(err)
				}
			}
			for r, msgs := range drain(n, round, shards) {
				got := map[blockchain.BlockID]int{}
				for _, m := range msgs {
					got[m.Block.ID]++
				}
				want := map[blockchain.BlockID]int{id: 1}
				if r != 1 { // the sender is excluded
					want[id+1] = 1
				}
				if r >= 3 && r <= 5 {
					want[id+2] = 1
				}
				if len(got) != len(want) || got[id] != want[id] || got[id+1] != want[id+1] || got[id+2] != want[id+2] {
					t.Errorf("shards=%d gen %d recipient %d: deliveries %v, want %v", shards, gen, r, got, want)
				}
			}
			if n.Pending() != 0 {
				t.Fatalf("shards=%d gen %d: %d messages still pending", shards, gen, n.Pending())
			}
		}
	}
}

// twinNetworks builds two identically loaded networks: honest
// broadcasts under a per-recipient policy for several rounds plus
// adversarial sends far beyond Δ+1 rounds ahead, in descending
// recipient order.
func twinNetworks(t *testing.T, players, delta int) (*Network, *Network) {
	t.Helper()
	load := func() *Network {
		n, err := New(players, delta)
		if err != nil {
			t.Fatal(err)
		}
		id := blockchain.BlockID(1)
		for round := 1; round <= 3; round++ {
			for from := 0; from < players; from += 3 {
				m := Message{Block: blkAt(id, round), From: int32(from), SentRound: int32(round)}
				if err := n.Broadcast(m, round, HashedDelay{Delta: delta, Seed: 7}); err != nil {
					t.Fatal(err)
				}
				id++
			}
			m := Message{Block: blkAt(id, round), From: -1, SentRound: int32(round)}
			for r := players - 1; r >= 0; r -= 2 {
				if err := n.Send(m, r, round+delta+5); err != nil {
					t.Fatal(err)
				}
			}
			id++
		}
		return n
	}
	return load(), load()
}

// TestShardCursorMatchesDeliverTo walks one network's rounds serially
// and its twin's over three uneven concurrent shards, asserting
// identical per-recipient message sequences and identical counters at
// every round.
func TestShardCursorMatchesDeliverTo(t *testing.T) {
	const players, delta = 23, 3
	serial, sharded := twinNetworks(t, players, delta)
	bounds := [][2]int{{0, 7}, {7, 8}, {8, players}}
	// Enough rounds to cover the far-future sends.
	for round := 1; round <= 3+delta+6; round++ {
		want := drain(serial, round, 1)
		got := drainShards(sharded, round, bounds)
		for r := range want {
			if !slices.Equal(got[r], want[r]) {
				t.Fatalf("round %d recipient %d: sharded %v, serial %v", round, r, got[r], want[r])
			}
		}
		if serial.Pending() != sharded.Pending() || serial.Delivered() != sharded.Delivered() {
			t.Fatalf("round %d: counters diverged: pending %d vs %d, delivered %d vs %d",
				round, serial.Pending(), sharded.Pending(), serial.Delivered(), sharded.Delivered())
		}
	}
	if sharded.Pending() != 0 {
		t.Fatalf("undrained messages: %d", sharded.Pending())
	}
}

// TestUniformShardedDrainMatchesDeliverTo: nil-list entries — a
// SendAll from the adversary and a recipient-invariant broadcast —
// reach the same recipients in the same order over two shards as
// serially, with the sender split from its neighbours by the shard
// boundary.
func TestUniformShardedDrainMatchesDeliverTo(t *testing.T) {
	mk := func() *Network {
		n, _ := New(6, 3)
		if err := n.SendAll(Message{Block: blkAt(4, 1), From: -1, SentRound: 1}, 2); err != nil {
			t.Fatal(err)
		}
		if err := n.Broadcast(Message{Block: blkAt(7, 1), From: 2, SentRound: 1}, 1, MinDelay{}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	nRef, nShard := mk(), mk()
	want := drain(nRef, 2, 1)
	got := drainShards(nShard, 2, [][2]int{{0, 3}, {3, 6}})
	for r := range want {
		if !slices.Equal(got[r], want[r]) {
			t.Fatalf("recipient %d: sharded %v, serial %v", r, got[r], want[r])
		}
		wantLen := 2
		if r == 2 { // the broadcast's sender
			wantLen = 1
		}
		if len(got[r]) != wantLen {
			t.Fatalf("recipient %d: %d messages, want %d", r, len(got[r]), wantLen)
		}
	}
	if nShard.Pending() != nRef.Pending() || nShard.Delivered() != nRef.Delivered() {
		t.Fatalf("counters diverge after sharded drain: (%d, %d) vs (%d, %d)",
			nShard.Pending(), nShard.Delivered(), nRef.Pending(), nRef.Delivered())
	}
}

// TestShardCursorEmptyRound: a round with nothing due, walked by
// shards right after a delivered round whose buffers it recycles,
// gives every recipient nothing and moves no counter.
func TestShardCursorEmptyRound(t *testing.T) {
	n, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Send(Message{Block: blkAt(5, 1), From: -1, SentRound: 3}, 1, 4); err != nil {
		t.Fatal(err)
	}
	drain(n, 4, 2)
	pending, delivered := n.Pending(), n.Delivered()
	for r, msgs := range drainShards(n, 5, [][2]int{{0, 1}, {1, 3}}) {
		if msgs != nil {
			t.Fatalf("recipient %d: messages from empty round: %v", r, msgs)
		}
	}
	if n.Pending() != pending || n.Delivered() != delivered {
		t.Fatalf("counters moved on empty round: pending %d → %d, delivered %d → %d",
			pending, n.Pending(), delivered, n.Delivered())
	}
}

// pair is one (message, recipient) delivery in the reference model.
type pair struct {
	msg Message
	to  int
}

// FuzzDeliverySchedule drives the network and a naive per-recipient
// model with the same schedule — Broadcast under every policy, Send
// (beyond Δ+1 rounds ahead, into the past, in any recipient order) and
// SendAll — and drains every round with 1 and 3 shards. Each recipient
// must receive exactly the model's messages, once each, in
// (sent round, block ID, sender) order; honest ones within [sent+1,
// sent+Δ]; AppendInFlight must name every undelivered block; and the
// network must end empty.
//
// ops is read three bytes at a time: an op kind, then two arguments. It
// is cut at 128 ops, which keeps every input fast: the model checks are
// quadratic in the schedule's length.
func FuzzDeliverySchedule(f *testing.F) {
	f.Add(uint8(5), uint8(2), []byte{1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 2, 2, 1, 3, 3, 0, 0, 0})
	f.Add(uint8(7), uint8(3), []byte{2, 4, 9, 2, 1, 9, 2, 6, 9, 3, 0, 1, 3, 1, 12, 0, 0, 0, 1, 5, 4, 1, 2, 5, 1, 3, 6})
	f.Add(uint8(1), uint8(1), []byte{1, 0, 0, 3, 0, 1, 3, 1, 2, 0, 0, 0, 2, 0, 200})
	rg := rand.New(rand.NewSource(0x5ce7a410))
	for k := 0; k < 6; k++ {
		ops := make([]byte, 3*(20+rg.Intn(40)))
		rg.Read(ops)
		f.Add(uint8(rg.Intn(256)), uint8(rg.Intn(256)), ops)
	}
	f.Fuzz(func(t *testing.T, playersRaw, deltaRaw uint8, ops []byte) {
		players, delta := int(playersRaw%12)+1, int(deltaRaw%5)+1
		if len(ops) > 3*128 {
			ops = ops[:3*128]
		}
		for _, shards := range []int{1, 3} {
			checkSchedule(t, players, delta, shards, ops)
		}
	})
}

func checkSchedule(t *testing.T, players, delta, shards int, ops []byte) {
	n, err := New(players, delta)
	if err != nil {
		t.Fatal(err)
	}
	policies := func(seed byte) []DelayPolicy {
		s := uint64(seed)
		return []DelayPolicy{
			MinDelay{},
			MaxDelay{Delta: delta},
			HashedDelay{Delta: delta, Seed: s},
			IIDDelay{Delta: delta, Seed: s},
			BurstyDelay{Delta: delta, RegimeLen: 2, BurstEveryN: 2, Seed: s},
			RecipientDelay{Delta: delta, Seed: s},
			PartitionDelay{Delta: delta, Split: players / 2, Period: 4, Length: 2},
			adversarialPolicy{offset: int(seed%40) - 20},
		}
	}
	model := map[int][]pair{} // delivery round → pairs, in scheduling order
	honest := map[blockchain.BlockID]bool{}
	round, id := 0, blockchain.BlockID(0)
	var adv Message // the adversary's current announcement
	newMsg := func(from int32, h byte) Message {
		id++
		return Message{Block: blkAt(id, int(h)), From: from, SentRound: int32(round)}
	}
	later := func(b byte) int { // a target round, possibly past or beyond Δ+1
		r := round - 1 + int(b)%(2*delta+4)
		if r <= round {
			r = round + 1
		}
		return r
	}
	advance := func() {
		round++
		got := drain(n, round, shards)
		want := make([][]Message, players)
		for _, p := range model[round] {
			want[p.to] = append(want[p.to], p.msg)
		}
		delete(model, round)
		for r := range want {
			slices.SortStableFunc(want[r], compareMessages)
			if !slices.Equal(got[r], want[r]) {
				t.Fatalf("players=%d Δ=%d shards=%d round %d recipient %d: got %v, want %v",
					players, delta, shards, round, r, got[r], want[r])
			}
			for i, m := range got[r] {
				if i > 0 && compareMessages(got[r][i-1], m) > 0 {
					t.Fatalf("round %d recipient %d: %v delivered after %v", round, r, m, got[r][i-1])
				}
				if d := round - int(m.SentRound); honest[m.Block.ID] && (d < 1 || d > delta) {
					t.Fatalf("round %d recipient %d: honest block %d delayed %d, outside [1, %d]", round, r, m.Block.ID, d, delta)
				}
			}
		}
	}
	for i := 0; i+2 < len(ops); i += 3 {
		a, b := ops[i+1], ops[i+2]
		switch ops[i] % 4 {
		case 0:
			advance()
		case 1:
			from := int(a) % players
			m := newMsg(int32(from), b)
			honest[m.Block.ID] = true
			ps := policies(b)
			policy := ps[int(a)%len(ps)]
			if err := n.Broadcast(m, round, policy); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < players; r++ {
				if r != from {
					d := n.clampDelivery(round, policy.DeliveryRound(m, r))
					model[d] = append(model[d], pair{m, r})
				}
			}
		case 2:
			if a&0x80 != 0 || adv.Block.ID == 0 || adv.SentRound != int32(round) {
				adv = newMsg(-1, b)
			}
			r, at := int(a)%players, later(b)
			if err := n.Send(adv, r, at); err != nil {
				t.Fatal(err)
			}
			model[at] = append(model[at], pair{adv, r})
		case 3:
			from := int32(-1)
			if a&1 != 0 {
				from = int32(int(a) % players)
			}
			m, at := newMsg(from, a), later(b)
			if err := n.SendAll(m, at); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < players; r++ {
				model[at] = append(model[at], pair{m, r})
			}
		}
		inFlight := map[blockchain.BlockID]bool{}
		for _, id := range n.AppendInFlight(nil) {
			inFlight[id] = true
		}
		pending := 0
		for _, ps := range model {
			pending += len(ps)
			for _, p := range ps {
				if !inFlight[p.msg.Block.ID] {
					t.Fatalf("block %d undelivered but missing from AppendInFlight", p.msg.Block.ID)
				}
			}
		}
		if n.Pending() != pending {
			t.Fatalf("Pending() = %d, model has %d pairs undelivered", n.Pending(), pending)
		}
	}
	for len(model) > 0 {
		advance()
	}
	if n.Pending() != 0 || n.Sent() != n.Delivered() {
		t.Fatalf("after the last round: pending %d, sent %d, delivered %d", n.Pending(), n.Sent(), n.Delivered())
	}
	if r, ok := n.OldestPendingRound(); ok {
		t.Fatalf("round %d still pending with the model drained", r)
	}
}

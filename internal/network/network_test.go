package network

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"neatbound/internal/blockchain"
)

func blk(id blockchain.BlockID) Announce {
	return Announce{ID: id, Height: 1}
}

// drain delivers round and expands its entries into each recipient's
// messages, walking the recipients in shards contiguous ranges.
func drain(n *Network, round, shards int) [][]Message {
	bounds := make([][2]int, shards)
	for k := range bounds {
		bounds[k] = [2]int{k * n.Players() / shards, (k + 1) * n.Players() / shards}
	}
	return drainShards(n, round, bounds)
}

// drainShards delivers round and expands its entries over each
// [lo, hi) range of bounds, one goroutine per range, so the entries are
// read concurrently. Recipients outside every range get nothing. It
// panics when an explicit recipient list is not strictly ascending,
// since within relies on that.
func drainShards(n *Network, round int, bounds [][2]int) [][]Message {
	got := make([][]Message, n.Players())
	due := n.Deliver(round)
	for i := range due {
		to := due[i].To
		for j := 1; j < len(to); j++ {
			if to[j] <= to[j-1] {
				panic(fmt.Sprintf("round %d: recipient list %v is not strictly ascending", round, to))
			}
		}
	}
	var wg sync.WaitGroup
	for _, b := range bounds {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := range due {
				en := &due[i]
				if en.To != nil {
					for _, r := range within(en.To, lo, hi) {
						got[r] = append(got[r], en.Msg)
					}
					continue
				}
				for r := lo; r < hi; r++ {
					if r != int(en.Msg.From) {
						got[r] = append(got[r], en.Msg)
					}
				}
			}
		}(b[0], b[1])
	}
	wg.Wait()
	return got
}

// within returns the recipients of the ascending list to that lie in
// [lo, hi), by binary search.
func within(to []int32, lo, hi int) []int32 {
	a, _ := slices.BinarySearch(to, int32(lo))
	b, _ := slices.BinarySearch(to, int32(hi))
	return to[a:b]
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 5); err == nil {
		t.Error("0 players accepted")
	}
	if _, err := New(5, 0); err == nil {
		t.Error("Δ=0 accepted")
	}
	n, err := New(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n.Players() != 5 || n.Delta() != 3 {
		t.Error("accessors wrong")
	}
}

func TestBroadcastExcludesSender(t *testing.T) {
	n, _ := New(4, 2)
	m := Message{Block: blk(1), From: 2, SentRound: 0}
	if err := n.Broadcast(m, 0, MinDelay{}); err != nil {
		t.Fatal(err)
	}
	if n.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", n.Pending())
	}
	got := drain(n, 1, 1)
	if got[2] != nil {
		t.Errorf("sender received own broadcast: %v", got[2])
	}
	for _, r := range []int{0, 1, 3} {
		if len(got[r]) != 1 {
			t.Errorf("recipient %d got %d messages", r, len(got[r]))
		}
	}
}

func TestBroadcastValidation(t *testing.T) {
	n, _ := New(3, 2)
	if err := n.Broadcast(Message{From: 0, SentRound: 0}, 0, MinDelay{}); err == nil {
		t.Error("nil block accepted")
	}
	if err := n.Broadcast(Message{Block: blk(1), From: 0, SentRound: 5}, 0, MinDelay{}); err == nil {
		t.Error("round mismatch accepted")
	}
}

func TestMinDelayDeliversNextRound(t *testing.T) {
	n, _ := New(3, 5)
	m := Message{Block: blk(1), From: 0, SentRound: 7}
	if err := n.Broadcast(m, 7, MinDelay{}); err != nil {
		t.Fatal(err)
	}
	if got := drain(n, 7, 1)[1]; got != nil {
		t.Error("delivered in the sending round")
	}
	if got := drain(n, 8, 1)[1]; len(got) != 1 {
		t.Errorf("round 8 delivery: %v", got)
	}
}

func TestMaxDelayDeliversAtDelta(t *testing.T) {
	n, _ := New(3, 5)
	m := Message{Block: blk(1), From: 0, SentRound: 10}
	if err := n.Broadcast(m, 10, MaxDelay{Delta: 5}); err != nil {
		t.Fatal(err)
	}
	for r := 11; r < 15; r++ {
		if got := drain(n, r, 1)[1]; got != nil {
			t.Errorf("early delivery at round %d", r)
		}
	}
	if got := drain(n, 15, 1)[1]; len(got) != 1 {
		t.Error("no delivery at sent+Δ")
	}
}

// adversarialPolicy tries to exceed the Δ bound and deliver into the past.
type adversarialPolicy struct{ offset int }

func (p adversarialPolicy) DeliveryRound(m Message, _ int) int { return int(m.SentRound) + p.offset }

func TestClampEnforcesDeltaGuarantee(t *testing.T) {
	n, _ := New(2, 3)
	// Policy wants +100: clamp to +Δ.
	m := Message{Block: blk(1), From: 0, SentRound: 0}
	if err := n.Broadcast(m, 0, adversarialPolicy{offset: 100}); err != nil {
		t.Fatal(err)
	}
	if got := drain(n, 3, 1)[1]; len(got) != 1 {
		t.Error("over-delayed message not clamped to sent+Δ")
	}
	// Policy wants −5: clamp to +1.
	m2 := Message{Block: blk(2), From: 0, SentRound: 10}
	if err := n.Broadcast(m2, 10, adversarialPolicy{offset: -5}); err != nil {
		t.Fatal(err)
	}
	if got := drain(n, 11, 1)[1]; len(got) != 1 {
		t.Error("past delivery not clamped to sent+1")
	}
}

func TestHashedDelayInRangeAndDeterministic(t *testing.T) {
	p := HashedDelay{Delta: 7, Seed: 3}
	m := Message{Block: blk(9), From: 0, SentRound: 100}
	for rcpt := 0; rcpt < 200; rcpt++ {
		d := p.DeliveryRound(m, rcpt)
		if d < 101 || d > 107 {
			t.Fatalf("recipient %d: delivery %d outside [101,107]", rcpt, d)
		}
		if d != p.DeliveryRound(m, rcpt) {
			t.Fatal("HashedDelay not deterministic")
		}
	}
}

func TestHashedDelaySpread(t *testing.T) {
	p := HashedDelay{Delta: 4, Seed: 1}
	counts := map[int]int{}
	for id := 1; id <= 400; id++ {
		m := Message{Block: blk(blockchain.BlockID(id)), SentRound: 0}
		counts[p.DeliveryRound(m, 1)]++
	}
	if len(counts) != 4 {
		t.Errorf("hashed delays hit %d distinct rounds, want 4", len(counts))
	}
	for r, c := range counts {
		if c < 50 {
			t.Errorf("round %d only %d/400 — badly skewed", r, c)
		}
	}
}

func TestSendUnconstrainedFuture(t *testing.T) {
	n, _ := New(3, 2)
	m := Message{Block: blk(1), From: 0, SentRound: 0}
	// The adversary may schedule far beyond Δ (withholding).
	if err := n.Send(m, 1, 50); err != nil {
		t.Fatal(err)
	}
	if got := drain(n, 2, 1)[1]; got != nil {
		t.Error("withheld message appeared at Δ")
	}
	if got := drain(n, 50, 1)[1]; len(got) != 1 {
		t.Error("withheld message missing at its scheduled round")
	}
}

func TestSendValidation(t *testing.T) {
	n, _ := New(3, 2)
	if err := n.Send(Message{From: 0}, 1, 5); err == nil {
		t.Error("nil block accepted")
	}
	if err := n.Send(Message{Block: blk(1)}, 7, 5); err == nil {
		t.Error("bad recipient accepted")
	}
	// Past delivery is bumped to the next round.
	m := Message{Block: blk(2), From: 0, SentRound: 10}
	if err := n.Send(m, 1, 3); err != nil {
		t.Fatal(err)
	}
	if got := drain(n, 11, 1)[1]; len(got) != 1 {
		t.Error("past-scheduled send not bumped to sent+1")
	}
}

// TestDeliverToEmpty: a round with nothing due yields no entries and
// moves no counter.
func TestDeliverToEmpty(t *testing.T) {
	n, _ := New(2, 2)
	if got := n.Deliver(99); got != nil {
		t.Errorf("empty round returned %v", got)
	}
	if n.Pending() != 0 || n.Delivered() != 0 {
		t.Errorf("counters moved on empty round: pending %d delivered %d", n.Pending(), n.Delivered())
	}
}

func TestDeliveryOrderDeterministic(t *testing.T) {
	n, _ := New(2, 10)
	// Three messages landing in the same round, enqueued out of order.
	for _, tc := range []struct {
		id   blockchain.BlockID
		sent int
	}{{5, 2}, {3, 1}, {4, 1}} {
		m := Message{Block: blk(tc.id), From: 0, SentRound: int32(tc.sent)}
		if err := n.Send(m, 1, 6); err != nil {
			t.Fatal(err)
		}
	}
	got := drain(n, 6, 1)[1]
	if len(got) != 3 {
		t.Fatalf("delivered %d", len(got))
	}
	wantIDs := []blockchain.BlockID{3, 4, 5} // (sent, id) order
	for i, m := range got {
		if m.Block.ID != wantIDs[i] {
			t.Errorf("position %d: block %d, want %d", i, m.Block.ID, wantIDs[i])
		}
	}
}

func TestPendingAccounting(t *testing.T) {
	n, _ := New(4, 2)
	m := Message{Block: blk(1), From: 0, SentRound: 0}
	if err := n.Broadcast(m, 0, MinDelay{}); err != nil {
		t.Fatal(err)
	}
	if n.Pending() != 3 || n.Sent() != 3 || n.Delivered() != 0 {
		t.Fatalf("pending=%d sent=%d delivered=%d", n.Pending(), n.Sent(), n.Delivered())
	}
	if err := n.Send(Message{Block: blk(2), From: -1, SentRound: 0}, 3, 2); err != nil {
		t.Fatal(err)
	}
	if r, ok := n.OldestPendingRound(); !ok || r != 1 {
		t.Errorf("oldest pending = %d, %v", r, ok)
	}
	n.Deliver(1)
	if n.Pending() != 1 || n.Sent() != 4 || n.Delivered() != 3 {
		t.Fatalf("after round 1: pending=%d sent=%d delivered=%d", n.Pending(), n.Sent(), n.Delivered())
	}
	if r, ok := n.OldestPendingRound(); !ok || r != 2 {
		t.Errorf("oldest pending = %d, %v", r, ok)
	}
	n.Deliver(2)
	if _, ok := n.OldestPendingRound(); ok {
		t.Error("pending reported on drained network")
	}
}

// TestQuickDeliveryWithinDelta is the package's central property: under
// any policy, every honest broadcast is delivered in (sent, sent+Δ].
func TestQuickDeliveryWithinDelta(t *testing.T) {
	f := func(deltaRaw uint8, offsetRaw int8, sentRaw uint8) bool {
		delta := int(deltaRaw%16) + 1
		sent := int(sentRaw % 50)
		n, err := New(3, delta)
		if err != nil {
			return false
		}
		m := Message{Block: blk(1), From: 0, SentRound: int32(sent)}
		if err := n.Broadcast(m, sent, adversarialPolicy{offset: int(offsetRaw)}); err != nil {
			return false
		}
		// Sweep the legal window; everything must be delivered inside it.
		got := 0
		for r := sent + 1; r <= sent+delta; r++ {
			inbox := drain(n, r, 1)
			got += len(inbox[1]) + len(inbox[2])
		}
		return got == 2 && n.Pending() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestParallelBroadcastMatchesSequential: at a large player count,
// every recipient of a broadcast hears it in exactly the round the
// policy picked for it.
func TestParallelBroadcastMatchesSequential(t *testing.T) {
	const players = 5000
	policy := HashedDelay{Delta: 6, Seed: 9}
	big, _ := New(players, 6)
	m := Message{Block: blk(77), From: 3, SentRound: 2}
	if err := big.Broadcast(m, 2, policy); err != nil {
		t.Fatal(err)
	}
	// Every recipient's delivery round must equal the policy's choice.
	for r := 3; r <= 8; r++ {
		for rcpt, msgs := range drain(big, r, 3) {
			for range msgs {
				if want := policy.DeliveryRound(m, rcpt); want != r {
					t.Fatalf("recipient %d delivered at %d, policy says %d", rcpt, r, want)
				}
			}
		}
	}
	if big.Pending() != 0 {
		t.Fatalf("%d messages stranded", big.Pending())
	}
	if big.Sent() != players-1 {
		t.Fatalf("sent = %d, want %d", big.Sent(), players-1)
	}
}

func BenchmarkBroadcast(b *testing.B) {
	const players = 8192
	for _, tc := range []struct {
		name   string
		policy DelayPolicy
	}{
		{"hashed", HashedDelay{Delta: 8, Seed: 1}},
		{"max", MaxDelay{Delta: 8}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			n, _ := New(players, 8)
			for i := 0; i < b.N; i++ {
				m := Message{Block: blk(blockchain.BlockID(i + 1)), From: 0, SentRound: int32(i)}
				if err := n.Broadcast(m, i, tc.policy); err != nil {
					b.Fatal(err)
				}
				n.Deliver(i)
			}
		})
	}
}

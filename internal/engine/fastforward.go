package engine

// This file is the event-driven fast-forward path (Config.FastForward):
// in sparse-mining regimes (np ≪ 1 per side) almost every round is a
// provable no-op — nothing due on the network, zero mining on both
// sides, adversary quiescent — and the step engine spends its time
// confirming that nothing happened. The fast path crosses such spans in
// O(1) per round of bookkeeping and O(1) per *event* of real work:
//
//   - Quiet-span detection samples the gap to the next mining event with
//     the geometric/binomial split of internal/dist. Per candidate round
//     it consumes exactly one uniform from the honest mining stream
//     (failure iff u ≤ PZero of the honest binomial — the identical
//     comparison the binomial inversion sampler's zero outcome makes)
//     and, when corrupted players exist, one from the adversary stream.
//     That is draw-for-draw the sequence the step engine consumes for a
//     zero-mining round, so the streams stay bit-identical and the flag
//     can never change results. The uniform that ends the gap is
//     completed into the event round's count via Binomial.SampleWith and
//     handed to step() as a pre-drawn count.
//
//   - Every skipped round still emits its RoundRecord (state is
//     unchanged, so the record fields are constants of the span) and
//     dispatches observers, so the record stream has no gaps; the
//     adversary's per-round quiet-state updates are replayed in bulk
//     through SpanQuiescent.ObserveQuiet.
//
//   - Flash delivery: when a due round's messages all sit in the
//     network's uniform broadcast slot and the honest views are
//     compactly tracked (one majority tip plus ≤ ffMaxDeviants recent
//     miners), the per-recipient adoption walk collapses to one fold
//     per view class plus an O(height span + deviants) statistics rebuild —
//     bit-identical to the walk because the longest-chain fold from a
//     given start height has a unique outcome (see flashDeliver). The
//     views stay lazy while tracked: only the deviants' per-player
//     entries are kept current, and materializeViews writes the
//     majority back into the rest only when a per-player walk or the
//     final result needs them.
//
// docs/fastforward.md states the eligibility predicate and the RNG
// draw-order contract; TestGoldenTracesFastForward pins the equivalence
// on every golden configuration.

import (
	"neatbound/internal/blockchain"
	"neatbound/internal/dist"
	"neatbound/internal/network"
)

// SpanQuiescent is implemented by adversary strategies whose quiet
// rounds — zero adversarial successes, no pending publications — are
// observational no-ops that can be replayed in bulk. SkipSafe reports
// whether the strategy's Mine(ctx, 0) calls and per-round
// HonestDelayPolicy consultations are free of round-by-round decisions
// (no randomness, no scheduling) so a span of them can be compressed;
// ObserveQuiet must then reproduce exactly the state the strategy would
// hold after being stepped through rounds first..last (inclusive) with
// zero mined blocks each — counters, segment activations, fork
// bookkeeping. Strategies that never mutate state on quiet rounds
// implement it with an empty body.
type SpanQuiescent interface {
	SkipSafe() bool
	ObserveQuiet(ctx *Context, first, last int)
}

const (
	// maxSkipSpan bounds the rounds crossed per ffAdvance call so the
	// run loop's cancellation check keeps low latency even when the
	// whole remaining run is quiet.
	maxSkipSpan = 1 << 14
	// ffMaxDeviants caps the compact view tracking: once more players
	// deviate from the majority tip than this, flash delivery hands the
	// round back to the walk (re-arming when views reconverge).
	ffMaxDeviants = 64
)

// ffState is the engine's fast-forward state. armed is decided once per
// run (armFastForward); the uniform-view fields track the honest views
// compactly between flash deliveries; preH/preA carry a pre-drawn
// mining count into step() for the event round (-1 = not pre-drawn).
type ffState struct {
	armed bool
	quiet SpanQuiescent
	// honestBin/advBin are the two per-round mining draws; hFail/aFail
	// are their zero-outcome tests (Q = PZero), shared bit-for-bit with
	// the inversion sampler. nAdv is the corrupted player count; the
	// adversary stream is only drawn when it is positive, matching
	// MineCount's no-draw contract for n ≤ 0.
	honestBin, advBin dist.Binomial
	hFail, aFail      dist.Geometric
	nAdv              int
	// Compact view tracking: when uniformValid, every honest view not
	// listed in deviants sits exactly on (majTip, majH), and deviant d
	// sits on its own self-mined tip with height ≥ majH (deviant
	// heights never drop below the majority's — see flashDeliver).
	// The views are then lazy: e.tips/e.tipHeights are authoritative
	// only at the deviants' indices (see Engine.view). devTip/devH are
	// materializeViews scratch parallel to deviants.
	uniformValid bool
	majTip       blockchain.BlockID
	majH         int
	deviants     []int
	devTip       []blockchain.BlockID
	devH         []int
	// preH/preA are the event round's pre-drawn mining counts.
	preH, preA int
}

// armFastForward decides once per run whether the event-driven path is
// sound for this configuration, caching the per-round draw parameters.
// Every gate guards a way the quiet-round no-op proof could fail:
// adaptive corruption resizes views each round, oracle mining draws
// per-query rather than per-round, a non-SkipSafe adversary may act on
// quiet rounds, and outside the inversion regime the binomial sampler
// consumes a different draw sequence (BTRS) than the one-uniform-per-
// round pattern the gap sampler replays.
func (e *Engine) armFastForward() {
	e.ff.armed = false
	if !e.cfg.FastForward || e.cfg.NuSchedule != nil || e.oracle != nil {
		return
	}
	if e.scenarioMining() {
		// Churn/weights break the one-uniform-per-round gap-sampling
		// pattern (the honest binomial's N varies per epoch and winner
		// identities draw over units, not players): fall back to stepping
		// rather than silently diverge.
		return
	}
	q, ok := e.adv.(SpanQuiescent)
	if !ok || !q.SkipSafe() {
		return
	}
	hb := dist.Binomial{N: e.honest, P: e.pr.P}
	nAdv := e.pr.N - e.honest
	ab := dist.Binomial{N: nAdv, P: e.pr.P}
	if !hb.InversionEligible() || (nAdv > 0 && !ab.InversionEligible()) {
		return
	}
	e.ff.armed = true
	e.ff.quiet = q
	e.ff.honestBin, e.ff.advBin = hb, ab
	e.ff.hFail = dist.Geometric{Q: hb.PZero()}
	e.ff.aFail = dist.Geometric{Q: ab.PZero()}
	e.ff.nAdv = nAdv
	// All views start at genesis: the compact tracking begins valid.
	e.ff.uniformValid = true
	e.ff.majTip = blockchain.GenesisID
	e.ff.majH = 0
	e.ff.deviants = e.ff.deviants[:0]
}

// ffAdvance crosses the quiet span in front of the engine — every round
// with no due deliveries and zero mining on both sides — then executes
// the round that ends it (the mining event, a delivery-due round, or
// the cancellation-latency cap boundary). Each skipped round emits its
// RoundRecord; RNG draws are consumed in exactly the step engine's
// order, so the trace is bit-identical to stepping.
func (e *Engine) ffAdvance(res *Result) error {
	// Rounds that could possibly be quiet: up to the end of the run,
	// but not past the round before the oldest pending delivery, and at
	// most maxSkipSpan per call.
	maxQuiet := e.cfg.Rounds - e.round
	if p, ok := e.net.OldestPendingRound(); ok {
		if m := p - 1 - e.round; m < maxQuiet {
			maxQuiet = m
		}
	}
	if maxQuiet > maxSkipSpan {
		maxQuiet = maxSkipSpan
	}

	// Sample the gap to the next mining event. Per candidate round:
	// one honest-stream uniform (the round's binomial draw), then —
	// only when corrupted players exist — one adversary-stream uniform,
	// mirroring step()'s phase 2 / phase 3 order. The uniform that
	// breaks the run is completed into the event round's exact count.
	quiet := 0
	for quiet < maxQuiet {
		uH := e.mineRg.Float64()
		if !e.ff.hFail.Fails(uH) {
			e.ff.preH = e.ff.honestBin.SampleWith(uH)
			break
		}
		if e.ff.nAdv > 0 {
			uA := e.advRng.Float64()
			if !e.ff.aFail.Fails(uA) {
				e.ff.preH = 0
				e.ff.preA = e.ff.advBin.SampleWith(uA)
				break
			}
		}
		quiet++
	}

	if quiet > 0 {
		first := e.round + 1
		// State is untouched across the span, so every skipped round's
		// record repeats the same view statistics.
		rec := RoundRecord{
			Nu:              e.pr.Nu,
			MaxHonestHeight: e.MaxHonestHeight(),
			MinHonestHeight: e.minHonestHeight(),
			DistinctTips:    e.DistinctTipCount(),
		}
		for k := 0; k < quiet; k++ {
			e.round++
			rec.Round = e.round
			res.Records = append(res.Records, rec)
			if e.obs != nil {
				e.obs.OnRound(e, rec)
			}
		}
		// Replay the adversary's quiet-round bookkeeping in bulk.
		e.ff.quiet.ObserveQuiet(&e.ctx, first, e.round)
	}
	if e.round >= e.cfg.Rounds {
		return nil
	}

	// Execute the span-ending round: step() picks up the pre-drawn
	// counts (or draws normally when the span ended at a delivery-due
	// round or the cap, with no mining uniform consumed).
	rec, err := e.step()
	if err != nil {
		return err
	}
	res.Records = append(res.Records, rec)
	if e.obs != nil {
		e.obs.OnRound(e, rec)
	}
	return nil
}

// view returns player i's current chain tip and height: the majority
// view for a non-deviant while the views are compactly tracked, its
// per-player entry otherwise. O(deviants) while tracked, O(1) after.
func (e *Engine) view(i int) (blockchain.BlockID, int) {
	if e.ff.uniformValid && !e.isDeviant(i) {
		return e.ff.majTip, e.ff.majH
	}
	return e.tips[i], e.tipHeights[i]
}

// isDeviant reports whether player i is on the tracked deviant list.
func (e *Engine) isDeviant(i int) bool {
	for _, d := range e.ff.deviants {
		if d == i {
			return true
		}
	}
	return false
}

// materializeViews ends the compact view tracking, writing the majority
// view into every non-deviant entry of e.tips/e.tipHeights so each entry
// is authoritative again. It is the only O(players) step of the
// fast-forward path and runs only where per-player views are read in
// bulk: before the delivery walk, when the deviant list overflows, and at
// finalize. A no-op when the views are not tracked.
func (e *Engine) materializeViews() {
	if !e.ff.uniformValid {
		return
	}
	e.ff.uniformValid = false
	e.ff.devTip, e.ff.devH = e.ff.devTip[:0], e.ff.devH[:0]
	for _, d := range e.ff.deviants {
		e.ff.devTip = append(e.ff.devTip, e.tips[d])
		e.ff.devH = append(e.ff.devH, e.tipHeights[d])
	}
	for i := range e.tips {
		e.tips[i] = e.ff.majTip
	}
	for i := range e.tipHeights {
		e.tipHeights[i] = e.ff.majH
	}
	for j, d := range e.ff.deviants {
		e.tips[d] = e.ff.devTip[j]
		e.tipHeights[d] = e.ff.devH[j]
	}
}

// ensureUniformViews reports whether the compact view tracking is
// valid, re-establishing it when the honest views have reconverged to a
// single tip (the common state moments after any fork resolves). The
// entries are authoritative when it re-arms, and all equal the new
// majority, so the lazy invariant holds from the start.
func (e *Engine) ensureUniformViews() bool {
	if e.ff.uniformValid {
		return true
	}
	if e.DistinctTipCount() != 1 {
		return false
	}
	e.ff.uniformValid = true
	e.ff.majTip = e.tips[0]
	e.ff.majH = e.tipHeights[0]
	e.ff.deviants = e.ff.deviants[:0]
	return true
}

// noteDeviant records that honest player i's view left the majority tip
// (it just mined; setTip already wrote its entry). Re-noting an
// existing deviant is a no-op — its entry already marks "on a
// self-mined tip"; past the tracking cap the views are materialized
// and flash delivery falls back to the walk.
func (e *Engine) noteDeviant(i int) {
	if !e.ff.uniformValid || e.isDeviant(i) {
		return
	}
	e.ff.deviants = append(e.ff.deviants, i)
	if len(e.ff.deviants) > ffMaxDeviants {
		e.materializeViews()
	}
}

// flashDeliver replaces the round's per-recipient adoption walk when
// every due entry is a nil-list one (addressed to every player but its
// sender) and the views are compactly tracked. It is bit-identical to
// the walk:
//
//   - The longest-chain fold over the sorted message list from start
//     height h ends at height max(h, M), where M is the maximal message
//     height, and — whenever it adopts at all — on the first message of
//     height M in delivery order (adoption is strictly increasing, so
//     the fold's height is below M until exactly that message). The
//     outcome therefore depends only on the start height, so one fold
//     per view class reproduces every player's walk.
//
//   - A message's sender is never affected by its own entry (its height
//     already ≥ the block's — it set its tip there when mining), so the
//     nil list's sender exclusion is adoption-neutral and the fold can
//     ignore it.
//
//   - Deviant heights never drop below the majority's (a deviant mined
//     from height ≥ majH; folds preserve the ordering since both ends
//     move to max(·, M)), so after the majority adopts to newH = M,
//     every deviant either joins the unique winning tip (M above its
//     height — it is pruned from the deviant list) or keeps its own
//     self-mined tip at height ≥ newH.
//
// When the majority does not adopt (M ≤ majH), no view adopts anything
// — every height is ≥ majH ≥ M — and taking the round off the network
// is its entire effect.
func (e *Engine) flashDeliver(due []network.Entry) {
	newTip, newH := e.ff.majTip, e.ff.majH
	for k := range due {
		if b := due[k].Msg.Block; int(b.Height) > newH {
			newTip, newH = b.ID, int(b.Height)
		}
	}
	if newH == e.ff.majH {
		return
	}

	// Prune deviants that join the winning tip — by adopting it, or by
	// already sitting on it (the winner may be a deviant's own earlier
	// broadcast). Adoption is then just the majority moving: the lazy
	// views write no per-player entry, and a pruned deviant's stale
	// entry is never read again.
	keep := e.ff.deviants[:0]
	for _, d := range e.ff.deviants {
		if newH > e.tipHeights[d] || e.tips[d] == newTip {
			continue
		}
		keep = append(keep, d)
	}
	e.ff.deviants = keep
	e.ff.majTip, e.ff.majH = newTip, newH

	// Rebuild the statistics from the two view classes in O(height span
	// + deviants), instead of per-player remove/add pairs.
	e.rebuildUniform()
}

// rebuildUniform rewrites the view statistics for the post-flash views:
// every player on the new majority (ff.majTip, ff.majH) except the
// tracked deviants, whose entries hold their own views. All resulting
// fields are exact functions of the current views — the same values the
// per-player remove/add pairs would have produced — so walked and flash
// runs stay on one trace.
func (e *Engine) rebuildUniform() {
	s := &e.stats
	newTip, newH := e.ff.majTip, e.ff.majH
	size := e.players
	// Drop the old state: the height support is exactly [minH, maxH],
	// and tipList enumerates every tip with a live refcount.
	for h := s.minH; h <= s.maxH; h++ {
		s.heightCount[h] = 0
	}
	for _, id := range s.tipList {
		s.tipRefs[id] = 0
		s.tipPos[id] = 0
	}
	s.tipList = s.tipList[:0]

	// Majority baseline, then per-deviant corrections.
	for len(s.heightCount) <= newH {
		s.heightCount = append(s.heightCount, 0)
	}
	s.heightCount[newH] = size
	s.minH, s.maxH = newH, newH
	s.tracked = size
	s.resetBest()
	// Per-half argmax candidate: the lowest-indexed player of each half.
	// If it is a majority member it is the majority class's argmax (all
	// majority views tie at newH; lowest index wins); if it is a
	// deviant, its height ≥ newH means no majority member can beat it
	// either on height or on the min-index tie-break, so comparing the
	// deviants (below) against this candidate is exhaustive.
	for half, seg := range [2][2]int{{0, e.halfLo}, {e.halfLo, size}} {
		a := seg[0]
		if a >= seg[1] {
			continue
		}
		if tip, h := e.view(a); h > 0 {
			s.bestH[half], s.bestIdx[half], s.bestTip[half] = h, a, tip
		}
	}
	majCount := size
	for _, d := range e.ff.deviants {
		dTip, dH := e.tips[d], e.tipHeights[d]
		majCount--
		if dH != newH {
			// Deviant heights are ≥ newH, so corrections only extend
			// the bracket upward.
			s.heightCount[newH]--
			for len(s.heightCount) <= dH {
				s.heightCount = append(s.heightCount, 0)
			}
			s.heightCount[dH]++
			if dH > s.maxH {
				s.maxH = dH
			}
		}
		// Kept deviant tips are distinct self-mined blocks ≠ newTip.
		s.addTipRef(dTip, 1)
		half := 0
		if d >= e.halfLo {
			half = 1
		}
		if dH > 0 && (dH > s.bestH[half] || (dH == s.bestH[half] && d < s.bestIdx[half])) {
			s.bestH[half], s.bestIdx[half], s.bestTip[half] = dH, d, dTip
		}
	}
	if majCount > 0 {
		s.addTipRef(newTip, int32(majCount))
	}
	// Every player may be a taller deviant, leaving zero views at newH:
	// advance the bracket onto the real support.
	for s.minH < s.maxH && s.heightCount[s.minH] == 0 {
		s.minH++
	}
}

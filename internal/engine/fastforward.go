package engine

// This file is the event-driven fast-forward path (Config.FastForward):
// in sparse-mining regimes (np ≪ 1 per side) almost every round is a
// provable no-op — nothing due on the network, zero mining on both
// sides, adversary quiescent — and the step engine spends its time
// confirming that nothing happened. The fast path crosses such spans
// with one gap-sampler draw per round, O(1) observer and record work per
// span (when every observer folds spans), and O(1) per *event* of real
// work:
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
//     completed into the event round's count via Sampler.SampleWith (from
//     the engine's cached (1−p)^n) and handed to step() as a pre-drawn
//     count.
//
//   - Skipped rounds are not silent. State is unchanged across a span,
//     so the record fields are constants of the span. When every
//     observer implements SpanObserver (decided once per run), the span
//     costs one OnQuietSpan call per observer; otherwise each observer
//     gets every skipped round's OnRound call, in order. Records, unless
//     Config.SkipRecords is set, gets every skipped round's entry. The
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
//     views stay lazy while tracked, which they are from New on: a
//     deviant's view lives in its own slot, and materializeViews
//     allocates and writes the per-player arrays only when a per-player
//     walk needs them. A run that never needs them never allocates them,
//     and its Result keeps the final views in the same compact form.
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
// compactly from New until a per-player walk needs them, and again
// whenever they reconverge; preH/preA carry a pre-drawn mining count
// into step() for the event round (-1 = not pre-drawn).
type ffState struct {
	armed bool
	quiet SpanQuiescent
	// hFail/aFail are the zero-outcome tests (Q = PZero) of the two
	// per-round mining draws, shared bit-for-bit with the inversion
	// sampler. nAdv is the corrupted player count; the adversary stream
	// is only drawn when it is positive, matching MineCount's no-draw
	// contract for n ≤ 0.
	hFail, aFail dist.Geometric
	nAdv         int
	// Compact view tracking: when uniformValid, every view not listed in
	// deviants sits exactly on (majTip, majH), and deviants[j] sits on
	// its own self-mined tip (devTip[j], devH[j]) with devH[j] ≥ majH
	// (deviant heights never drop below the majority's — see
	// flashDeliver). The views are then lazy: no e.tips entry is read
	// (see Engine.view).
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
// round pattern the gap sampler replays. It reports e.ff.armed; the
// view tracking is left as it stands.
func (e *Engine) armFastForward() bool {
	e.ff.armed = false
	if !e.cfg.FastForward || e.cfg.NuSchedule != nil || e.oracle != nil {
		return false
	}
	if e.scenarioMining() {
		// Churn/weights break the one-uniform-per-round gap-sampling
		// pattern (the honest binomial's N varies per epoch and winner
		// identities draw over units, not players): fall back to stepping
		// rather than silently diverge.
		return false
	}
	q, ok := e.adv.(SpanQuiescent)
	if !ok || !q.SkipSafe() {
		return false
	}
	hb := dist.Binomial{N: e.honest, P: e.pr.P}
	nAdv := e.pr.N - e.honest
	ab := dist.Binomial{N: nAdv, P: e.pr.P}
	if !hb.InversionEligible() || (nAdv > 0 && !ab.InversionEligible()) {
		return false
	}
	e.ff.armed = true
	e.ff.quiet = q
	e.ff.hFail = dist.Geometric{Q: hb.PZero()}
	e.ff.aFail = dist.Geometric{Q: ab.PZero()}
	e.ff.nAdv = nAdv
	return true
}

// ffAdvance crosses the quiet span in front of the engine — every round
// with no due deliveries and zero mining on both sides — then executes
// the round that ends it (the mining event, a delivery-due round, or
// the cancellation-latency cap boundary). The span reaches a
// span-aware observer stack in one OnQuietSpan call and any other stack
// round by round; RNG draws are consumed in exactly the step engine's
// order, so the trace is bit-identical to stepping. A round-by-round
// stack sees done checked after every round, as the step loop does:
// once it is closed the span ends at the round just delivered and the
// span-ending round is not executed.
func (e *Engine) ffAdvance(res *Result, done <-chan struct{}) error {
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
			e.ff.preH = e.mineDraw.SampleWith(uH, e.honest, e.pr.P)
			break
		}
		if e.ff.nAdv > 0 {
			uA := e.advRng.Float64()
			if !e.ff.aFail.Fails(uA) {
				e.ff.preH = 0
				e.ff.preA = e.advDraw.SampleWith(uA, e.ff.nAdv, e.pr.P)
				break
			}
		}
		quiet++
	}

	stopped := false
	if quiet > 0 {
		first, last := e.round+1, e.round+quiet
		// State is untouched across the span, so every skipped round's
		// record repeats the same view statistics.
		rec := RoundRecord{
			Nu:              e.pr.Nu,
			MaxHonestHeight: e.MaxHonestHeight(),
			MinHonestHeight: e.minHonestHeight(),
			DistinctTips:    e.DistinctTipCount(),
		}
		switch {
		case e.spanObs != nil:
			e.round, rec.Round = last, last
			e.spanObs.OnQuietSpan(e, rec, first, last)
		case e.obs != nil:
			for e.round < last && !stopped {
				e.round++
				rec.Round = e.round
				e.obs.OnRound(e, rec)
				stopped = closed(done)
			}
			last = e.round
		default:
			e.round = last
		}
		if !e.cfg.SkipRecords {
			for r := first; r <= last; r++ {
				rec.Round = r
				res.Records = append(res.Records, rec)
			}
		}
		res.Rounds += last - first + 1
		// Replay the adversary's quiet-round bookkeeping in bulk.
		e.ff.quiet.ObserveQuiet(&e.ctx, first, last)
	}
	if stopped || e.round >= e.cfg.Rounds {
		return nil
	}

	// Execute the span-ending round: step() picks up the pre-drawn
	// counts (or draws normally when the span ended at a delivery-due
	// round or the cap, with no mining uniform consumed).
	rec, err := e.step()
	if err != nil {
		return err
	}
	e.emit(res, rec)
	return nil
}

// closed reports whether done is closed; a nil done never is.
func closed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// view returns player i's current chain tip and height: its deviant
// slot or the majority view while the views are compactly tracked, its
// per-player entry otherwise. O(deviants) while tracked, O(1) after.
func (e *Engine) view(i int) (blockchain.BlockID, int) {
	if !e.ff.uniformValid {
		return e.tips[i], e.tipHeights[i]
	}
	if j := e.deviantSlot(i); j >= 0 {
		return e.ff.devTip[j], e.ff.devH[j]
	}
	return e.ff.majTip, e.ff.majH
}

// deviantSlot returns player i's index in the tracked deviant list, or
// -1 when i is not listed.
func (e *Engine) deviantSlot(i int) int {
	for j, d := range e.ff.deviants {
		if d == i {
			return j
		}
	}
	return -1
}

// materializeViews ends the compact view tracking, writing every view
// into e.tips/e.tipHeights — allocated here on first use — so each entry
// is authoritative again. It is the only O(players) step of the view
// tracking and runs only where per-player views are read in bulk: once
// when Run starts on any path other than fast-forward, before a
// fast-forward delivery walk, and when the deviant list overflows. A
// no-op when the views are not tracked.
func (e *Engine) materializeViews() {
	if !e.ff.uniformValid {
		return
	}
	e.ff.uniformValid = false
	fresh := e.tips == nil
	if fresh {
		e.tips = make([]blockchain.BlockID, e.players)
		e.tipHeights = make([]int, e.players)
	}
	if !fresh || e.ff.majTip != blockchain.GenesisID || e.ff.majH != 0 {
		// Fresh arrays already hold the genesis view.
		for i := range e.tips {
			e.tips[i] = e.ff.majTip
		}
		for i := range e.tipHeights {
			e.tipHeights[i] = e.ff.majH
		}
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
	e.ff.deviants, e.ff.devTip, e.ff.devH = e.ff.deviants[:0], e.ff.devTip[:0], e.ff.devH[:0]
	return true
}

// setDeviant moves tracked player i's view to its self-mined tip (id, h):
// it updates i's deviant slot, or lists i with one. Past the tracking
// cap the views are materialized and flash delivery falls back to the
// walk.
func (e *Engine) setDeviant(i int, id blockchain.BlockID, h int) {
	if j := e.deviantSlot(i); j >= 0 {
		e.ff.devTip[j], e.ff.devH[j] = id, h
		return
	}
	e.ff.deviants = append(e.ff.deviants, i)
	e.ff.devTip = append(e.ff.devTip, id)
	e.ff.devH = append(e.ff.devH, h)
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
	// views write no per-player entry.
	ff := &e.ff
	keep := 0
	for j, d := range ff.deviants {
		if newH > ff.devH[j] || ff.devTip[j] == newTip {
			continue
		}
		ff.deviants[keep], ff.devTip[keep], ff.devH[keep] = d, ff.devTip[j], ff.devH[j]
		keep++
	}
	ff.deviants, ff.devTip, ff.devH = ff.deviants[:keep], ff.devTip[:keep], ff.devH[:keep]
	ff.majTip, ff.majH = newTip, newH

	// Rebuild the statistics from the two view classes in O(height span
	// + deviants), instead of per-player remove/add pairs.
	e.rebuildUniform()
}

// rebuildUniform rewrites the view statistics for the post-flash views:
// every player on the new majority (ff.majTip, ff.majH) except the
// tracked deviants, whose slots hold their own views. All resulting
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
		s.heightCount[h-s.hBase] = 0
	}
	s.dropTipRefs()

	// Majority baseline, then per-deviant corrections.
	*s.heights(newH) = size
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
	for j, d := range e.ff.deviants {
		dTip, dH := e.ff.devTip[j], e.ff.devH[j]
		majCount--
		if dH != newH {
			// Deviant heights are ≥ newH, so corrections only extend
			// the bracket upward.
			s.heightCount[newH-s.hBase]--
			*s.heights(dH)++
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
	for s.minH < s.maxH && s.heightCount[s.minH-s.hBase] == 0 {
		s.minH++
	}
}

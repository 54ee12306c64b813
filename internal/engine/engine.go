// Package engine executes Nakamoto's blockchain protocol in the paper's
// round-based Δ-delay model (Section III). Each round, in order:
//
//  1. every honest player receives the messages the adversary scheduled
//     for this round and adopts the longest chain it has seen;
//  2. every honest player makes one parallel query to the proof-of-work
//     oracle; each winner extends its own current chain by one block and
//     broadcasts it, with per-recipient delays chosen by the adversary
//     (clamped to Δ by the network);
//  3. the adversary makes νn sequential queries and acts through its
//     Strategy: it may mine on any block, chain several blocks within the
//     round, withhold blocks indefinitely, and deliver them to arbitrary
//     recipients at arbitrary future rounds.
//
// The engine records the per-round state the paper's Markov analysis is
// built on — the number of honest blocks (the H/H₁/N classification of
// Detailed-State-Set, Eq. 38) and the adversary's block count (the
// A(t₀, t₁) process of Eq. 27) — and exposes honest views for the
// consistency checker.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"

	"neatbound/internal/blockchain"
	"neatbound/internal/dist"
	"neatbound/internal/mining"
	"neatbound/internal/network"
	"neatbound/internal/params"
	"neatbound/internal/rng"
)

// Adversary is the strategy interface: it schedules honest message delays
// and commands the corrupted players' mining. Implementations live in
// package adversary; PassiveAdversary in this package is the no-op
// baseline.
type Adversary interface {
	// Name identifies the strategy in logs and experiment output.
	Name() string
	// HonestDelayPolicy returns the delay schedule applied to honest
	// broadcasts in the current round. It is consulted once per round.
	HonestDelayPolicy(ctx *Context) network.DelayPolicy
	// Mine is invoked once per round with the number of successful
	// adversarial oracle queries. The strategy creates blocks and
	// schedules deliveries through ctx.
	Mine(ctx *Context, mined int)
}

// Config parameterizes an execution.
//
// # Determinism contract
//
// An execution is a pure function of its Config: the RoundRecord
// stream, final tips, and block tree reproduce exactly across runs and
// across every result-neutral knob (FastForward, CompactEvery). This
// holds because all randomness is drawn in a fixed order from streams
// split once from Seed, delivery walks each round's due entries in the
// network's deterministic (sent round, block ID, sender) order, and
// every reported statistic is an exact function of the current views.
// The golden trace tests pin this on every golden seed configuration.
type Config struct {
	// Params is the protocol parameterization; it must Validate.
	Params params.Params
	// Rounds is the number of rounds to execute.
	Rounds int
	// Seed drives all randomness; identical configs replay identically.
	Seed uint64
	// Adversary is the strategy; nil selects PassiveAdversary.
	Adversary Adversary
	// Observer, when non-nil, receives every round's record (after the
	// round is final) and, if it implements FinishObserver, the run's
	// result. Compose several with Observers — the consistency checker,
	// metric recorders, trace writers, and user hooks all attach here.
	Observer Observer
	// NuSchedule, when non-nil, makes corruption adaptive (the model's
	// "A can corrupt an honest party or uncorrupt a corrupted player"):
	// each round the adversary controls round(ν(t)·N) players, clamped to
	// keep at least one player on each side. All N players then maintain
	// views; the currently corrupted ones are the tail of the index
	// range. Params.Nu still bounds validation and sets the baseline.
	NuSchedule func(round int) float64
	// Shards was the delivery-phase parallelism.
	//
	// Deprecated: ignored; delivery is serial. Kept so existing
	// composite literals compile.
	Shards int
	// FastForward enables event-driven round skipping: rounds that are
	// provable no-ops — no deliveries due, zero mining on both sides,
	// adversary quiescent — are crossed in O(1) by sampling the gap to
	// the next mining event, instead of walking every player. The flag
	// never affects results: the fast path consumes RNG draws in the
	// exact order of the step-by-step engine (see docs/fastforward.md
	// for the eligibility predicate and the draw-order contract), every
	// skipped round still reaches the observers (as its own OnRound
	// call, or folded into one OnQuietSpan call when every observer is a
	// SpanObserver) and Records, and the engine silently falls back to
	// stepping whenever a precondition fails — NuSchedule set, oracle
	// mining, an adversary without SkipSafe, or a parameterization
	// outside the binomial inversion regime. TestGoldenTracesFastForward
	// pins the equivalence on all golden configs.
	FastForward bool
	// CompactEvery, when > 0, enables epoch-based arena compaction: every
	// CompactEvery rounds the engine computes the watermark — the common
	// ancestor of every live honest view, every adversary- and
	// observer-retained block, and every in-flight message — and retires
	// all blocks strictly below it (see docs/memory.md for the invariant
	// and its proof sketch). Compaction is pure representation: results
	// are bit-identical with it on or off. It stands down for a round
	// whenever safety cannot be established — the adversary does not
	// implement Retainer, an observer's retention fold declines, or a
	// watermark query touches already-retired history. Observers that
	// hold BlockIDs across rounds must implement Retainer; observers that
	// only consume RoundRecords need not.
	CompactEvery int
	// CompactMinRetire is the minimum ID span a compaction must retire to
	// be worth the rebase (0 picks the 1024 default). Tests set 1 to
	// force compaction on tiny trees.
	CompactMinRetire int
	// Churn, when non-nil, schedules honest mining participation churn:
	// each epoch a seeded-hash-chosen subset of honest players is on
	// leave and makes no oracle queries (views are kept — see churn.go
	// for the model and its determinism contract). Incompatible with
	// NuSchedule and with oracle mining; disarms FastForward.
	Churn *ChurnPlan
	// MiningWeights, when non-nil, gives honest player i the relative
	// mining power MiningWeights[i]: the honest side makes Σweights
	// queries per round and winner identities are weight-proportional
	// (see churn.go). len must equal the honest count; all weights 1 is
	// bit-identical to nil. Incompatible with NuSchedule and with oracle
	// mining; disarms FastForward.
	MiningWeights []int
	// SkipRecords leaves Result.Records empty; every other result field
	// and the observers' record stream are unchanged, so it is
	// result-neutral. Callers that fold the stream online (sweep.RunOne)
	// set it, so a run's memory does not grow with its length. It is
	// deleted together with Records once the benchmark stops reading
	// them (ROADMAP item 2).
	SkipRecords bool
}

// AutoShards was the Config.Shards value that picked the
// delivery-phase parallelism automatically.
//
// Deprecated: ignored, like Config.Shards.
const AutoShards = -1

// RoundRecord summarizes one executed round.
type RoundRecord struct {
	// Round is the 1-based round number.
	Round int
	// Nu is the adversarial fraction in effect this round (constant
	// unless Config.NuSchedule is set).
	Nu float64
	// HonestMined is the number of blocks mined by honest players this
	// round (the X ~ binom(µn, p) draw behind the H/N state).
	HonestMined int
	// AdversaryMined is the number of successful adversarial queries (the
	// increment of A(t₀, t₁), Eq. 27).
	AdversaryMined int
	// MaxHonestHeight is the maximum chain height across honest views
	// after this round.
	MaxHonestHeight int
	// MinHonestHeight is the minimum chain height across honest views
	// after this round.
	MinHonestHeight int
	// DistinctTips is the number of distinct honest chain tips after this
	// round (1 means all honest players agree).
	DistinctTips int
}

// Result is the outcome of a full run.
type Result struct {
	// Records holds one entry per executed round, 56 bytes each, unless
	// Config.SkipRecords is set; then it stays empty. Observers see the
	// same stream as it runs, so long runs fold it online instead.
	Records []RoundRecord
	// Rounds is the number of rounds executed.
	Rounds int
	// Tree is the global block tree (ground truth).
	Tree *blockchain.Tree
	// HonestBlocks and AdversaryBlocks count blocks mined over the run.
	HonestBlocks, AdversaryBlocks int
	// Partial is set when the run was cut short by context cancellation
	// or an engine error; Rounds (and Records) then cover only the rounds
	// executed before the cut.
	Partial bool

	// The final views (see FinalTips): finalTips when the run ended with
	// its views materialized; otherwise the compact form, players views
	// on majTip except each deviants[j], which sits on devTips[j].
	finalTips []blockchain.BlockID
	players   int
	majTip    blockchain.BlockID
	deviants  []int
	devTips   []blockchain.BlockID
}

// FinalTips returns every view-maintaining player's final chain tip,
// indexed by player: the honest players without a NuSchedule, all N
// players (corrupted ones' parked views included) with one. A
// fast-forward run that ends with its views compactly tracked keeps
// them compact in the Result, and each call expands them afresh in
// O(players); otherwise it returns the copy finalize took.
func (r *Result) FinalTips() []blockchain.BlockID {
	if r.finalTips != nil || r.players == 0 {
		return r.finalTips
	}
	tips := make([]blockchain.BlockID, r.players)
	for i := range tips {
		tips[i] = r.majTip
	}
	for j, d := range r.deviants {
		tips[d] = r.devTips[j]
	}
	return tips
}

// Engine drives one protocol execution. Create with New, then Run.
type Engine struct {
	cfg   Config
	pr    params.Params
	tree  *blockchain.Tree
	net   *network.Network
	alloc *mining.IDAllocator
	// players is the number of view-maintaining nodes (= len(tips)).
	// honest is the number of currently honest (mining) players, always
	// the prefix [0, honest) of the player range. Without a NuSchedule,
	// players == honest for the whole run.
	players int
	honest  int
	adv     Adversary
	// obs is Config.Observer; nil when unset. spanObs is obs as a
	// SpanObserver when every member has the hook, else nil; decided
	// when Run starts.
	obs     Observer
	spanObs SpanObserver
	advRng  *rng.Stream
	mineRg  *rng.Stream
	// mineDraw and advDraw are the honest and adversary mining-count
	// draws on mineRg and advRng: each keeps (1−p)^n between rounds and
	// recomputes it only when its miner count changes (NuSchedule,
	// churn), drawing exactly what mining.MineCount would.
	mineDraw, advDraw dist.Sampler
	// tips holds one view per player; [0, honest) are honest. While the
	// views are compactly tracked (ff.uniformValid, which holds from New
	// on) no entry is authoritative: each view is a deviant's own slot
	// or the majority (ff.majTip, ff.majH). Read views through view(i).
	// tips is nil until the first materializeViews, which allocates it
	// and writes every view out before any per-player walk needs them.
	tips []blockchain.BlockID
	// tipHeights mirrors tips with each view's chain height, so the hot
	// path never needs a tree lookup to compare chains.
	tipHeights []int
	round      int
	// oracle, when non-nil, replaces binomial sampling with literal hash
	// queries (see WithOracleMining).
	oracle *oracleMiner
	// cached stats
	honestBlocks, adversaryBlocks int

	// stats holds the incremental honest-view statistics behind the
	// per-round RoundRecord fields (MaxHonestHeight, MinHonestHeight,
	// DistinctTips), maintained event-wise on every tip change and
	// honest-set resize (see viewStats).
	stats viewStats
	// halfLo is the honest/2 boundary the per-half argmax splits on
	// (the Balance adversary's two branches).
	halfLo int
	// winnersBuf is the reusable scratch for per-round mining winners.
	winnersBuf []int
	// ctx is the adversary's handle, allocated once per engine.
	ctx Context
	// ff is the event-driven fast-forward state (Config.FastForward;
	// see fastforward.go).
	ff ffState
	// nextCompact is the next round at or after which the compaction
	// epoch fires (Config.CompactEvery); retainBuf is its reusable ID
	// scratch (see compact.go).
	nextCompact int
	retainBuf   []blockchain.BlockID
	// Scenario mining state (Config.Churn / Config.MiningWeights; see
	// churn.go): units maps mining units to owning players for the
	// current churn epoch (unitsEpoch; -1 = not built), churnOff and
	// churnRank are the epoch-selection scratch.
	units      []int32
	unitsEpoch int
	churnOff   []bool
	churnRank  []int
}

// New validates cfg and builds an engine.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("engine: rounds = %d must be ≥ 1", cfg.Rounds)
	}
	honest := cfg.Params.HonestCount()
	if honest < 1 {
		return nil, fmt.Errorf("engine: no honest players for n=%d ν=%g", cfg.Params.N, cfg.Params.Nu)
	}
	players := honest
	if cfg.NuSchedule != nil {
		// Adaptive corruption: every player may be honest at some point,
		// so all N maintain views.
		players = cfg.Params.N
	}
	net, err := network.New(players, cfg.Params.Delta)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if err := validateScenarioMining(&cfg, honest); err != nil {
		return nil, err
	}
	adv := cfg.Adversary
	if adv == nil {
		adv = PassiveAdversary{}
	}
	root := rng.New(cfg.Seed)
	e := &Engine{
		cfg:     cfg,
		pr:      cfg.Params,
		tree:    blockchain.NewTree(),
		net:     net,
		alloc:   mining.NewIDAllocator(),
		players: players,
		honest:  honest,
		halfLo:  honest / 2,
		adv:     adv,
		obs:     cfg.Observer,
		advRng:  root.Split(1),
		mineRg:  root.Split(2),
	}
	// Every view starts at genesis, so the compact tracking holds from
	// the start with no deviants on the zero-valued majority (GenesisID,
	// height 0), and no per-player array exists yet. Count the honest
	// views in bulk — what honest calls of add at (GenesisID, 0) leave
	// behind; height 0 never enters the per-half argmax.
	e.ff.uniformValid = true
	e.stats.resetBest()
	e.stats.heightCount = append(e.stats.heightCount, honest)
	e.stats.tracked = honest
	e.stats.addTipRef(blockchain.GenesisID, int32(honest))
	e.ctx = Context{e: e}
	e.ff.preH, e.ff.preA = -1, -1
	e.unitsEpoch = -1
	return e, nil
}

// setTip moves player i's view to tip id at height h, keeping the
// incremental statistics in sync when i is currently honest. While the
// views are compactly tracked the move can only be i mining on its own
// view, so i becomes (or stays) a deviant (see setDeviant).
func (e *Engine) setTip(i int, id blockchain.BlockID, h int) {
	if i < e.honest {
		e.stats.remove(e.view(i))
		e.stats.add(i, id, h, e.halfLo)
	}
	if e.ff.uniformValid {
		e.setDeviant(i, id, h)
		return
	}
	e.tips[i] = id
	e.tipHeights[i] = h
}

// resizeHonest moves the honest/corrupted boundary to newHonest,
// entering or evicting the boundary players' views from the statistics.
// It runs in the serial phase of the round. Because both the tracked set
// and the half boundary move, the per-half argmax accumulators are
// rebuilt from scratch — an O(players) cost paid only on rounds where
// the corrupted set actually changes.
func (e *Engine) resizeHonest(newHonest int) {
	if newHonest == e.honest {
		return
	}
	for i := newHonest; i < e.honest; i++ {
		e.stats.remove(e.tips[i], e.tipHeights[i])
	}
	for i := e.honest; i < newHonest; i++ {
		e.stats.add(i, e.tips[i], e.tipHeights[i], e.halfLo)
	}
	e.honest = newHonest
	e.halfLo = newHonest / 2
	e.stats.recomputeBest(e.tips, e.tipHeights, e.honest, e.halfLo)
}

// Params returns the engine's parameterization.
func (e *Engine) Params() params.Params { return e.pr }

// Round returns the current (last executed) round, 0 before Run starts.
func (e *Engine) Round() int { return e.round }

// Tree returns the global block tree.
func (e *Engine) Tree() *blockchain.Tree { return e.tree }

// HonestCount returns the number of honest players.
func (e *Engine) HonestCount() int { return e.honest }

// PlayerTip returns honest player i's current chain tip.
func (e *Engine) PlayerTip(i int) (blockchain.BlockID, error) {
	if i < 0 || i >= e.honest {
		return 0, fmt.Errorf("engine: honest player %d outside [0, %d)", i, e.honest)
	}
	id, _ := e.view(i)
	return id, nil
}

// DistinctTips returns the distinct honest chain tips, sorted by height
// then ID. It enumerates the tip list instead of walking all honest
// views, so the cost scales with the number of tips.
func (e *Engine) DistinctTips() []blockchain.BlockID {
	return e.AppendDistinctTips(nil)
}

// AppendDistinctTips appends the distinct honest chain tips — sorted by
// height then ID, exactly as DistinctTips reports them — to buf and
// returns the extended slice. Callers that sample tips every round (the
// consistency checker) pass a reused buffer so the steady state
// allocates nothing.
func (e *Engine) AppendDistinctTips(buf []blockchain.BlockID) []blockchain.BlockID {
	base := len(buf)
	buf = append(buf, e.stats.tipList...)
	out := buf[base:]
	// Insertion sort by (height, ID); tip sets are tiny.
	height := func(id blockchain.BlockID) int {
		h, _ := e.tree.Height(id)
		return h
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			if height(out[j]) < height(out[j-1]) ||
				(height(out[j]) == height(out[j-1]) && out[j] < out[j-1]) {
				out[j], out[j-1] = out[j-1], out[j]
			} else {
				break
			}
		}
	}
	return buf
}

// bestHonestTip returns the highest distinct honest tip — the last
// entry DistinctTips would report (greatest height, then greatest ID) —
// without building or sorting the list.
func (e *Engine) bestHonestTip() blockchain.BlockID {
	best := e.stats.tipList[0]
	bestH, _ := e.tree.Height(best)
	for _, id := range e.stats.tipList[1:] {
		if h, _ := e.tree.Height(id); h > bestH || (h == bestH && id > best) {
			best, bestH = id, h
		}
	}
	return best
}

// DistinctTipCount returns the number of distinct honest chain tips
// from the incrementally maintained refcounts, in O(1).
func (e *Engine) DistinctTipCount() int { return len(e.stats.tipList) }

// MaxHonestHeight returns the tallest honest view in O(1). At least one
// player is always honest, so the height brackets are never empty.
func (e *Engine) MaxHonestHeight() int { return e.stats.maxH }

// minHonestHeight returns the shortest honest view in O(1).
func (e *Engine) minHonestHeight() int { return e.stats.minH }

// BranchBest returns, for each half of the honest player range (split at
// honest/2 — the two branches the Balance adversary sustains), the
// highest honest tip and its height from the incremental argmax, in
// O(1). Ties on height resolve to the lowest-indexed player, matching a
// serial ascending scan; halves with every view still at genesis report
// (GenesisID, 0).
func (e *Engine) BranchBest() (tips [2]blockchain.BlockID, heights [2]int) {
	return e.stats.bestTip, e.stats.bestH
}

// Run executes cfg.Rounds rounds and returns the result. It is
// RunContext with a background context.
func (e *Engine) Run() (*Result, error) { return e.RunContext(context.Background()) }

// RunContext executes cfg.Rounds rounds, checking ctx between rounds.
// When ctx is cancelled the run stops before the next round and returns
// the partial result — Partial set, Rounds counting the rounds executed
// so far — together with ctx.Err(); a mid-round engine error likewise
// returns the partial result with that error. Observers' OnFinish hooks
// run in every case — complete, cancelled, or failed — so writers
// flush; their error is joined onto the run's.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	// Records grows by append: preallocating cfg.Rounds entries would
	// let one huge Rounds value exhaust memory before round 1.
	res := &Result{Tree: e.tree}
	e.spanObs = spanStack(e.obs)
	if !e.armFastForward() {
		// Every stepping path reads or writes per-player views in bulk:
		// write them out once, up front.
		e.materializeViews()
	}
	e.nextCompact = e.cfg.CompactEvery
	done := ctx.Done()
	for e.round < e.cfg.Rounds {
		if done != nil {
			select {
			case <-done:
				res.Partial = true
				e.finalize(res)
				return res, errors.Join(ctx.Err(), e.finishObservers(res))
			default:
			}
		}
		var err error
		if e.ff.armed {
			// Event-driven advance: skip to the next mining event or
			// delivery-due round (reporting every skipped round to the
			// observers), then execute that round. Bounded, so cancellation is still
			// checked with low latency.
			err = e.ffAdvance(res)
		} else {
			var rec RoundRecord
			rec, err = e.step()
			if err == nil {
				e.emit(res, rec)
			}
		}
		if err == nil && e.cfg.CompactEvery > 0 && e.round >= e.nextCompact {
			// Between rounds: retire arena history no future query can
			// reach. Representation-only — never visible in results.
			err = e.maybeCompact()
			e.nextCompact = e.round + e.cfg.CompactEvery
		}
		if err != nil {
			// A failed round still yields the rounds executed before it,
			// and observers still finalize (so trace writers flush and
			// surface their own deferred errors alongside the step's).
			res.Partial = true
			e.finalize(res)
			return res, errors.Join(err, e.finishObservers(res))
		}
	}
	e.finalize(res)
	if err := e.finishObservers(res); err != nil {
		return res, err
	}
	return res, nil
}

// emit hands a stepped round's record to res and the observers.
func (e *Engine) emit(res *Result, rec RoundRecord) {
	res.Rounds++
	if !e.cfg.SkipRecords {
		res.Records = append(res.Records, rec)
	}
	if e.obs != nil {
		e.obs.OnRound(e, rec)
	}
}

// finalize copies the run-level outcome into res. Views still compactly
// tracked stay compact: res keeps the majority and a copy of the
// deviants, which Result.FinalTips expands on demand.
func (e *Engine) finalize(res *Result) {
	if e.ff.uniformValid {
		res.players, res.majTip = e.players, e.ff.majTip
		res.deviants = append([]int(nil), e.ff.deviants...)
		res.devTips = append([]blockchain.BlockID(nil), e.ff.devTip...)
	} else {
		res.finalTips = append([]blockchain.BlockID(nil), e.tips...)
	}
	res.HonestBlocks = e.honestBlocks
	res.AdversaryBlocks = e.adversaryBlocks
}

// finishObservers dispatches the OnFinish hook of the observer stack.
func (e *Engine) finishObservers(res *Result) error {
	f, ok := e.obs.(FinishObserver)
	if !ok {
		return nil
	}
	if err := f.OnFinish(res); err != nil {
		return fmt.Errorf("engine: observer finish: %w", err)
	}
	return nil
}

// step executes one round.
func (e *Engine) step() (RoundRecord, error) {
	e.round++
	t := e.round
	ctx := &e.ctx

	// 0. Adaptive corruption: the adversary picks this round's corrupted
	// set (a tail segment of the player range).
	nu := e.pr.Nu
	if e.cfg.NuSchedule != nil {
		requested := e.cfg.NuSchedule(t)
		advCount := int(math.Round(requested * float64(e.pr.N)))
		if advCount < 1 {
			advCount = 1
		}
		if advCount > e.pr.N-1 {
			advCount = e.pr.N - 1
		}
		honest := e.pr.N - advCount
		if honest > e.players {
			honest = e.players
		}
		e.resizeHonest(honest)
		nu = float64(e.pr.N-e.honest) / float64(e.pr.N)
	}

	// 1. Delivery: every view-maintaining player receives scheduled
	// messages and adopts the longest chain seen (the longest-chain rule
	// inlined: a candidate wins only when strictly higher; ties keep the
	// current chain). The network hands the round over whole, and
	// deliver adopts it — in bulk under fast-forward, otherwise by a
	// per-recipient walk, with bit-identical results either way. A round
	// with nothing due skips the phase outright.
	if due := e.net.Deliver(t); len(due) > 0 {
		if err := e.deliver(t, due); err != nil {
			return RoundRecord{}, err
		}
	}

	// 2. Honest mining: parallel queries; winners extend their own views.
	// A pre-drawn count (the fast-forward path detects the event round by
	// consuming exactly the round's binomial uniform) skips the count draw;
	// WinnersInto then draws exactly what MineRoundInto would have.
	policy := e.adv.HonestDelayPolicy(ctx)
	var winners []int
	if e.oracle != nil {
		// Query only the honest prefix, mirroring the statistical path:
		// corrupted players' queries are the adversary's (step 3).
		winners = e.oracle.mineRound(e.tips[:e.honest], e.winnersBuf)
	} else if e.scenarioMining() {
		// Unit-based mining (churn/weights; see churn.go): one query per
		// active mining unit, winners mapped back to owning players. A
		// player winning through several units chains its blocks — the
		// second extends the first, exactly like sequential self-mining.
		units := e.miningUnits(t)
		k := e.mineDraw.Sample(e.mineRg, len(units), e.pr.P)
		winners = mining.WinnersInto(e.mineRg, len(units), k, e.winnersBuf)
		for j, u := range winners {
			winners[j] = int(units[u])
		}
	} else {
		k := e.ff.preH
		if k < 0 {
			k = e.mineDraw.Sample(e.mineRg, e.honest, e.pr.P)
		}
		winners = mining.WinnersInto(e.mineRg, e.honest, k, e.winnersBuf)
	}
	e.ff.preH = -1
	for _, i := range winners {
		parent, _ := e.view(i)
		b := blockchain.Block{
			ID:     e.alloc.Next(),
			Parent: parent,
			Round:  t,
			Miner:  i,
			Honest: true,
		}
		if err := e.tree.Add(&b); err != nil {
			return RoundRecord{}, fmt.Errorf("engine: round %d honest add: %w", t, err)
		}
		e.setTip(i, b.ID, b.Height)
		e.honestBlocks++
		if err := e.net.Broadcast(network.Message{Block: network.AnnounceBlock(b), From: int32(i), SentRound: int32(t)}, t, policy); err != nil {
			return RoundRecord{}, fmt.Errorf("engine: round %d broadcast: %w", t, err)
		}
	}
	if winners != nil {
		e.winnersBuf = winners[:0] // retain the scratch buffer's backing
	}

	// 3. Adversary: sequential queries, then strategy action.
	advMined := e.ff.preA
	if advMined < 0 {
		advMined = e.advDraw.Sample(e.advRng, e.pr.N-e.honest, e.pr.P)
	}
	e.ff.preA = -1
	e.adversaryBlocks += advMined
	e.adv.Mine(ctx, advMined)

	return RoundRecord{
		Round:           t,
		Nu:              nu,
		HonestMined:     len(winners),
		AdversaryMined:  advMined,
		MaxHonestHeight: e.MaxHonestHeight(),
		MinHonestHeight: e.minHonestHeight(),
		DistinctTips:    e.DistinctTipCount(),
	}, nil
}

// Context is the adversary's controlled handle on the execution. The
// adversary reads everything (it controls the network) but can only write
// through the methods below.
type Context struct {
	e *Engine
}

// Round returns the current round.
func (c *Context) Round() int { return c.e.round }

// Params returns the protocol parameters.
func (c *Context) Params() params.Params { return c.e.pr }

// Tree returns the global block tree (read access; mutate only through
// MineBlock).
func (c *Context) Tree() *blockchain.Tree { return c.e.tree }

// Rng returns the adversary's random stream.
func (c *Context) Rng() *rng.Stream { return c.e.advRng }

// HonestCount returns the number of honest players.
func (c *Context) HonestCount() int { return c.e.honest }

// BestHonestTip returns the highest honest chain tip (greatest height,
// then greatest ID), without allocating.
func (c *Context) BestHonestTip() blockchain.BlockID { return c.e.bestHonestTip() }

// HonestTipOf returns the tip of honest player i.
func (c *Context) HonestTipOf(i int) (blockchain.BlockID, error) { return c.e.PlayerTip(i) }

// MaxHonestHeight returns the tallest honest view.
func (c *Context) MaxHonestHeight() int { return c.e.MaxHonestHeight() }

// BranchBest returns the highest honest tip and height of each half of
// the honest player range (split at honest/2), from the engine's
// incremental accumulators — O(1) instead of a walk over all honest
// views.
func (c *Context) BranchBest() (tips [2]blockchain.BlockID, heights [2]int) {
	return c.e.BranchBest()
}

// MineBlock creates an adversarial block extending parent and records it
// in the tree, returning it by value. The block is NOT announced; use
// Send/SendToAll to deliver it (withholding is modeled by simply not
// sending).
func (c *Context) MineBlock(parent blockchain.BlockID, payload string) (blockchain.Block, error) {
	b := blockchain.Block{
		ID:      c.e.alloc.Next(),
		Parent:  parent,
		Round:   c.e.round,
		Miner:   c.e.honest, // first corrupted index
		Honest:  false,
		Payload: payload,
	}
	if err := c.e.tree.Add(&b); err != nil {
		return blockchain.Block{}, fmt.Errorf("engine: adversary mine: %w", err)
	}
	return b, nil
}

// Send schedules b for delivery to honest player recipient at
// deliverRound (at the earliest, next round).
func (c *Context) Send(b blockchain.Block, recipient, deliverRound int) error {
	m := network.Message{Block: network.AnnounceBlock(b), From: -1, SentRound: int32(c.e.round)}
	return c.e.net.Send(m, recipient, deliverRound)
}

// SendToAll schedules b for delivery to every view-maintaining player at
// deliverRound as a single O(1) network entry (Network.SendAll), with
// per-recipient delivery order and counters identical to a Send loop
// over the player range.
func (c *Context) SendToAll(b blockchain.Block, deliverRound int) error {
	m := network.Message{Block: network.AnnounceBlock(b), From: -1, SentRound: int32(c.e.round)}
	return c.e.net.SendAll(m, deliverRound)
}

// PassiveAdversary mines on the longest chain it sees and publishes
// immediately, with no message delays — the benign baseline.
type PassiveAdversary struct{}

// Name implements Adversary.
func (PassiveAdversary) Name() string { return "passive" }

// HonestDelayPolicy implements Adversary: no delays.
func (PassiveAdversary) HonestDelayPolicy(*Context) network.DelayPolicy {
	return network.MinDelay{}
}

// SkipSafe implements SpanQuiescent: zero-mined rounds are pure no-ops
// (Mine returns before touching anything, the delay policy is the
// stateless MinDelay), so quiet spans can be fast-forwarded.
func (PassiveAdversary) SkipSafe() bool { return true }

// ObserveQuiet implements SpanQuiescent: there is no quiet-round state
// to replay.
func (PassiveAdversary) ObserveQuiet(*Context, int, int) {}

// AppendRetained implements Retainer: the passive strategy keeps no
// block references across rounds, so compaction is always safe.
func (PassiveAdversary) AppendRetained(buf []blockchain.BlockID) ([]blockchain.BlockID, bool) {
	return buf, true
}

// Mine implements Adversary: extend the longest chain, publish at once.
func (PassiveAdversary) Mine(ctx *Context, mined int) {
	if mined == 0 {
		return
	}
	// Longest block known globally (the adversary sees everything).
	parent := ctx.Tree().Best()
	for k := 0; k < mined; k++ {
		b, err := ctx.MineBlock(parent, "")
		if err != nil {
			return
		}
		parent = b.ID
		_ = ctx.SendToAll(b, ctx.Round()+1)
	}
}

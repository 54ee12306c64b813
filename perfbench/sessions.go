package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"neatbound"
	"neatbound/internal/adversary"
	"neatbound/internal/engine"
	"neatbound/internal/store"
	"neatbound/internal/sweep"
	"neatbound/internal/sweepsvc"
)

// gridSpec is a sweepd session workload: the grid every cycle's jobs
// run, and how many cached resubmissions a cycle makes.
type gridSpec struct {
	n, delta int
	nu       []float64 // the cold grid's ν rows
	extraNu  []float64 // the rows the half-overlap job appends
	c        []float64
	rounds   int
	tee      int
	// forkDepth is the private-mining strategy's publication depth.
	forkDepth      int
	cachedPerCycle int
	// refDigest pins the warm-up job's result bytes (a SHA-256 prefix);
	// "" skips the pin.
	refDigest string
}

var (
	// sessionGrid is sized so a cached job returns several hundred cells
	// and takes tens of milliseconds.
	sessionGrid = newGridSpec(10, 40, 2000, 15, "28f13dff52ee7ef4")
	// probeGrid is the small session the Run workloads' traced runs use
	// as their flat control for the service layers.
	probeGrid = newGridSpec(2, 10, 500, 25, "ce7fd3dd3c89a864")
)

// newGridSpec lays out a rows × cols grid: ν rows at 0.02 steps (the
// half-overlap rows interleave at the odd hundredths, so they never
// collide) and c log-spaced over [0.5, 10].
func newGridSpec(rows, cols, rounds, cachedPerCycle int, refDigest string) gridSpec {
	g := gridSpec{
		n: 40, delta: 4, rounds: rounds, tee: 4, forkDepth: 3,
		cachedPerCycle: cachedPerCycle, refDigest: refDigest,
	}
	round3 := func(x float64) float64 { return math.Round(x*1000) / 1000 }
	for i := 1; i <= rows; i++ {
		g.nu = append(g.nu, round3(0.02*float64(i)))
		g.extraNu = append(g.extraNu, round3(0.02*float64(i)+0.01))
	}
	for j := 0; j < cols; j++ {
		g.c = append(g.c, round3(0.5*math.Pow(20, float64(j)/float64(cols-1))))
	}
	return g
}

// cells is the cold grid's cell count.
func (g gridSpec) cells() int { return len(g.nu) * len(g.c) }

func (g gridSpec) cold() neatbound.SweepGrid {
	return neatbound.SweepGrid{N: g.n, Delta: g.delta, NuValues: g.nu, CValues: g.c}
}

// half is the cold grid with as many ν rows appended as it has. Cells
// are seeded by their ν-major index, so the first half keeps its seeds
// and comes from the store; appending c-values would re-key every cell.
func (g gridSpec) half() neatbound.SweepGrid {
	grid := g.cold()
	grid.NuValues = append(append([]float64(nil), g.nu...), g.extraNu...)
	return grid
}

func (g gridSpec) options(seed uint64) []neatbound.Option {
	return []neatbound.Option{
		neatbound.WithRounds(g.rounds),
		neatbound.WithSeed(seed),
		neatbound.WithConsistency(g.tee, 0),
		neatbound.WithAdversaryName("private", neatbound.AdversaryOpts{ForkDepth: g.forkDepth}),
		neatbound.WithReplicates(1),
	}
}

// sweepConfig is the cold grid as the sweep layer's own config: what the
// service's workers run, minus the distribution.
func (g gridSpec) sweepConfig(seed uint64) sweep.Config {
	return sweep.Config{
		N: g.n, Delta: g.delta, NuValues: g.nu, CValues: g.c,
		Rounds: g.rounds, Seed: seed, T: g.tee,
		NewAdversary: func() engine.Adversary { return &adversary.PrivateMining{MinForkDepth: g.forkDepth} },
		Workers:      sweepWorkers,
	}
}

// rowRuns is the traced pipeline's stand-in for the grid: the cells of
// its middle ν row, each a Run at its (ν, c) point with the grid's length
// and consistency knobs. A traced op runs the whole row; a single cell
// allocates too little to ever meet the collector.
func (g gridSpec) rowRuns() ([]runConfig, error) {
	nu := g.nu[len(g.nu)/2]
	row := make([]runConfig, len(g.c))
	for j, c := range g.c {
		pr, err := neatbound.ParamsFromC(g.n, g.delta, nu, c)
		if err != nil {
			return nil, err
		}
		row[j] = runConfig{pr: pr, rounds: g.rounds, tee: g.tee, forkDepth: g.forkDepth}
	}
	return row, nil
}

const (
	// sweepWorkers is the service's worker fleet: one per core of the
	// two-core box the benchmark targets.
	sweepWorkers = 2
	// minTailSamples is the fewest cached jobs a session times, so that
	// the p90 has at least ten samples beyond it.
	minTailSamples = 100
	// heapCycles is how many leading cycles heap_peak_mib covers. The
	// service keeps every finished job in memory, so the heap grows
	// cycle by cycle; a fixed window keeps the metric independent of
	// how many cycles the budget fits.
	heapCycles = 4
	// cycleSeeds offsets the session's job seeds from the Run op seeds.
	cycleSeeds = 1 << 20
	// directJobs is how many cached jobs the traced run submits both
	// through the client and to the service in-process, bypassing HTTP.
	directJobs = 40
)

// session is a sweepd stack on loopback: a store in a fresh directory,
// the service over it, its HTTP handler on a listener, and one client.
type session struct {
	dir       string
	store     *store.Store
	svc       *sweepsvc.Service
	server    *http.Server
	served    chan error
	transport *http.Transport
	client    *neatbound.SweepClient
}

// openSession starts a session; its client holds at most two
// connections.
func openSession(scratch string) (*session, error) {
	dir, err := os.MkdirTemp(scratch, "sweepd-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	svc, err := sweepsvc.New(sweepsvc.Options{Store: st, Workers: sweepWorkers})
	if err != nil {
		return nil, errors.Join(err, st.Close(), os.RemoveAll(dir))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, errors.Join(err, st.Close(), os.RemoveAll(dir))
	}
	s := &session{
		dir:       dir,
		store:     st,
		svc:       svc,
		server:    &http.Server{Handler: svc.Handler()},
		served:    make(chan error, 1),
		transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
	}
	go func() { s.served <- s.server.Serve(ln) }()
	s.client = neatbound.NewSweepClient("http://"+ln.Addr().String(), &http.Client{Transport: s.transport})
	return s, nil
}

// close shuts the stack down in dependency order and removes the store.
func (s *session) close() error {
	s.transport.CloseIdleConnections()
	err := s.server.Close()
	if serveErr := <-s.served; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	s.svc.Close()
	return errors.Join(err, s.store.Close(), os.RemoveAll(s.dir))
}

// jobRun is one submission as the client saw it.
type jobRun struct {
	latency time.Duration // Submit until Wait returned the decoded cells
	raw     []byte        // the result's interchange bytes
	status  neatbound.SweepJobStatus
}

// job submits a grid and waits for its cells; the result bytes and the
// final status are fetched after the clock stops.
func (s *session) job(ctx context.Context, grid neatbound.SweepGrid, opts []neatbound.Option) (jobRun, error) {
	start := time.Now()
	st, err := s.client.Submit(ctx, grid, opts...)
	if err != nil {
		return jobRun{}, err
	}
	if _, err := s.client.Wait(ctx, st.ID); err != nil {
		return jobRun{}, err
	}
	r := jobRun{latency: time.Since(start)}
	if r.raw, err = s.client.ResultRaw(ctx, st.ID); err != nil {
		return jobRun{}, err
	}
	if r.status, err = s.client.Status(ctx, st.ID); err != nil {
		return jobRun{}, err
	}
	return r, nil
}

// jobKind names the three submissions of a session cycle.
type jobKind int

const (
	kindCold jobKind = iota
	kindCached
	kindHalf
)

var kindNames = [...]string{"cold", "cached", "half"}

// check verifies a job: its status counts, exact for every kind, with
// nothing coalesced and no retries; and its bytes against its cycle's
// cold job — a cached job must return them exactly, a half-overlap job
// must extend them (its first rows are the cold grid's cells).
func (g gridSpec) check(kind jobKind, r jobRun, coldRaw []byte) error {
	n := g.cells()
	want := [...][3]int{kindCold: {n, 0, n}, kindCached: {n, n, 0}, kindHalf: {2 * n, n, n}}[kind]
	st := r.status
	if st.State != neatbound.SweepJobDone || st.CellsTotal != want[0] || st.CellsCached != want[1] ||
		st.CellsComputed != want[2] || st.CellsCoalesced != 0 || st.Retries != 0 {
		return fmt.Errorf("%s job %s: %s with %d cells (%d cached, %d computed, %d coalesced) and %d retries; want done with %d (%d, %d, 0) and none",
			kindNames[kind], st.ID, st.State, st.CellsTotal, st.CellsCached, st.CellsComputed, st.CellsCoalesced,
			st.Retries, want[0], want[1], want[2])
	}
	switch {
	case kind == kindCached && !bytes.Equal(r.raw, coldRaw):
		return fmt.Errorf("cached job %s: result bytes differ from its cold job's", st.ID)
	case kind == kindHalf && !bytes.HasPrefix(r.raw, coldRaw):
		return fmt.Errorf("half-overlap job %s: result does not extend its cold job's bytes", st.ID)
	}
	return nil
}

// checkReference checks the warm-up job's bytes against the pin.
func (g gridSpec) checkReference(raw []byte) error {
	sum := sha256.Sum256(raw)
	d := hex.EncodeToString(sum[:8])
	log.Printf("reference result digest %s", d)
	if g.refDigest == "" || neatbound.EngineVersion != refEngineVersion || d == g.refDigest {
		return nil
	}
	return fmt.Errorf("reference seed %d: result digest %s, pinned %s", refSeed, d, g.refDigest)
}

// matchesRunSweep checks a cold job's bytes against MarshalCells of a
// single-process RunSweep of the same grid and seed.
func (g gridSpec) matchesRunSweep(ctx context.Context, seed uint64, coldRaw []byte) error {
	cells, err := neatbound.RunSweep(ctx, g.cold(), append(g.options(seed), neatbound.WithWorkers(sweepWorkers))...)
	if err != nil {
		return err
	}
	var want bytes.Buffer
	if err := neatbound.MarshalCells(&want, cells); err != nil {
		return err
	}
	if !bytes.Equal(want.Bytes(), coldRaw) {
		return errors.New("cold job result differs from MarshalCells(RunSweep) of the same grid")
	}
	return nil
}

// setupSession opens a session and runs its checked warm-up job: the
// cold grid at the reference seed.
func (b *bench) setupSession(ctx context.Context, g gridSpec) (*session, error) {
	s, err := openSession(b.scratch)
	if err != nil {
		return nil, err
	}
	r, err := s.job(ctx, g.cold(), g.options(refSeed))
	if err == nil {
		err = g.check(kindCold, r, nil)
	}
	if err == nil {
		err = g.checkReference(r.raw)
	}
	b.op(err)
	runtime.GC()
	return s, nil
}

// sessionLog is what a session's cycles measured.
type sessionLog struct {
	latency [3][]float64 // seconds, by job kind
	peak    []float64    // heap peak in MiB, per cycle
	last    [3]neatbound.SweepJobStatus
	served  int // cells returned over the session
	cached  int // of which served from the store
	shards  int // shards the first cycle dispatched
	// firstSeed and firstCold are the first cycle's seed and cold bytes.
	firstSeed uint64
	firstCold []byte
}

// runSession drives cycles until the budget is spent and enough cached
// jobs were timed. A cycle submits a cold job on a fresh seed, its
// cached resubmissions, and a half-overlap job.
func (b *bench) runSession(ctx context.Context, s *session, g gridSpec, budget time.Duration) *sessionLog {
	lg := &sessionLog{}
	kinds := []jobKind{kindCold}
	for k := 0; k < g.cachedPerCycle; k++ {
		kinds = append(kinds, kindCached)
	}
	kinds = append(kinds, kindHalf)
	minCycles := max(heapCycles, (minTailSamples+g.cachedPerCycle-1)/g.cachedPerCycle)
	heap := startHeapSampler()
	defer heap.close()
	for cycle, start := 0, time.Now(); cycle < minCycles || time.Since(start) < budget; cycle++ {
		seed := mix(b.seed, cycleSeeds+uint64(cycle))
		opts := g.options(seed)
		var coldRaw []byte
		heap.reset()
		for _, kind := range kinds {
			grid := g.cold()
			if kind == kindHalf {
				grid = g.half()
			}
			runtime.GC()
			r, err := s.job(ctx, grid, opts)
			if err == nil {
				err = g.check(kind, r, coldRaw)
			}
			if !b.op(err) {
				continue
			}
			if kind == kindCold {
				coldRaw = r.raw
			}
			lg.latency[kind] = append(lg.latency[kind], r.latency.Seconds())
			lg.last[kind] = r.status
			lg.served += r.status.CellsTotal
			lg.cached += r.status.CellsCached
			if cycle == 0 {
				lg.shards += r.status.ShardsTotal
			}
		}
		lg.peak = append(lg.peak, mib(heap.reset()))
		if cycle == 0 {
			lg.firstSeed, lg.firstCold = seed, coldRaw
		}
	}
	return lg
}

// cycleRate is the session's throughput: the simulated rounds of every
// cell a cycle returns (cached cells included) over the cycle's job
// latency, taken per job kind at fastPercentile, as the Run workloads
// take theirs. N is the cold-job sample count, the smallest of the three.
func (g gridSpec) cycleRate(lg *sessionLog) summary {
	k := float64(g.cachedPerCycle)
	fast := func(kind jobKind) summary { return percentile(lg.latency[kind], fastPercentile) }
	cold, cached, half := fast(kindCold), fast(kindCached), fast(kindHalf)
	rounds := float64(g.cells()*g.rounds) * (1 + k + 2)
	s := exact(rounds / (cold.Value + k*cached.Value + half.Value))
	s.P, s.N, s.Beyond = 100-fastPercentile, cold.N, cold.N-cold.Beyond-1
	return s
}

// measureSession is the end-to-end measurement of the sweepd workload:
// set a session up setupRepeats times, drive the last one for the
// budget, then check its first cold job against RunSweep.
func (b *bench) measureSession(ctx context.Context, g gridSpec) error {
	var setups []float64
	var s *session
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return err
			}
		}
		start := time.Now()
		var err error
		if s, err = b.setupSession(ctx, g); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	lg := b.runSession(ctx, s, g, b.budget)
	if err := s.close(); err != nil {
		return err
	}
	b.op(g.matchesRunSweep(ctx, lg.firstSeed, lg.firstCold))
	for k, name := range kindNames {
		lat := lg.latency[k]
		log.Printf("%s jobs: p%d %.4f s, median %.4f s over %d", name, fastPercentile,
			percentile(lat, fastPercentile).Value, median(lat).Value, len(lat))
	}
	b.set("setup_s", "s", median(setups))
	b.set("rounds_per_s", "1/s", g.cycleRate(lg))
	b.set("heap_peak_mib", "MiB", median(lg.peak[:heapCycles]))
	return nil
}

// traceService is the service half of a traced run: a session on g for
// the budget, then the sweep layer, the store and the service without
// HTTP, each timed on its own against the session's first cold grid.
func (b *bench) traceService(ctx context.Context, g gridSpec, budget time.Duration) error {
	s, err := b.setupSession(ctx, g)
	if err != nil {
		return err
	}
	lg := b.runSession(ctx, s, g, budget)

	runtime.GC()
	start := time.Now()
	cells, err := sweep.RunGrid(ctx, g.sweepConfig(lg.firstSeed), 1, nil)
	gridS := time.Since(start).Seconds()
	var raw bytes.Buffer
	if err == nil {
		err = sweep.MarshalCells(&raw, cells)
	}
	if err == nil && !bytes.Equal(raw.Bytes(), lg.firstCold) {
		err = errors.New("direct sweep.RunGrid differs from the service's cold result")
	}
	b.op(err)

	req, err := neatbound.SweepRequest(g.cold(), g.options(lg.firstSeed)...)
	if err != nil {
		return errors.Join(err, s.close())
	}
	put, get, open, err := storeProbe(b.scratch, sweepsvc.CellKeys(req.Sweep()), cells)
	b.op(err)

	// HTTP's share of a cached job: the same cached job through the
	// client and then in-process, pair by pair, so that both halves of a
	// difference see the same moment of the host.
	var httpCost []float64
	for i := 0; i < directJobs; i++ {
		runtime.GC()
		r, err := s.job(ctx, g.cold(), g.options(lg.firstSeed))
		if err == nil {
			err = g.check(kindCached, r, lg.firstCold)
		}
		if !b.op(err) {
			continue
		}
		runtime.GC()
		d, err := directJob(ctx, s.svc, req, lg.firstCold)
		if b.op(err) {
			httpCost = append(httpCost, (r.latency-d).Seconds()*1000)
		}
	}
	if err := s.close(); err != nil {
		return err
	}

	cold := median(lg.latency[kindCold])
	cached := scaled(lg.latency[kindCached], 1000)
	b.set("job_cold_s", "s", cold)
	b.set("job_half_s", "s", median(lg.latency[kindHalf]))
	b.set("job_cached_p50_ms", "ms", median(cached))
	b.set("job_cached_p90_ms", "ms", percentile(cached, 90))
	if t, ok := tail(cached, 10); ok {
		log.Printf("cached jobs: highest supported percentile p%g = %.3f ms (%d samples, %d beyond)", t.P, t.Value, t.N, t.Beyond)
	}
	b.set("sweep.grid_s", "s", exact(gridS))
	b.set("sweepsvc.cold_overhead_s", "s", exact(cold.Value-gridS))
	b.set("store.put_ms", "ms", median(put))
	b.set("store.get_ms", "ms", median(get))
	b.set("store.open_s", "s", exact(open))
	b.set("http.cached_overhead_ms", "ms", median(httpCost))
	// The counts check pins at zero — a cold job's cached cells, a
	// cached job's computed cells, retries — are not reported: any other
	// value fails the op.
	b.set("sweepsvc.cells_computed.cold", "count", exact(float64(lg.last[kindCold].CellsComputed)))
	b.set("sweepsvc.cells_cached.cached", "count", exact(float64(lg.last[kindCached].CellsCached)))
	b.set("sweepsvc.cells_cached.half", "count", exact(float64(lg.last[kindHalf].CellsCached)))
	b.set("sweepsvc.cells_computed.half", "count", exact(float64(lg.last[kindHalf].CellsComputed)))
	b.set("sweepsvc.cells_served", "count", exact(float64(lg.served)))
	b.set("sweepsvc.hit_ratio", "ratio", exact(float64(lg.cached)/float64(lg.served)))
	b.set("distsweep.shards", "count", exact(float64(lg.shards)))
	return nil
}

// storeProbe times the store alone: every cell Put (each fsynced) into a
// fresh store, every cell read back, then a re-Open that rebuilds the
// index from the log. Latencies are in milliseconds, open in seconds.
func storeProbe(scratch string, keys []string, cells []sweep.AggregateCell) (put, get []float64, open float64, err error) {
	if len(keys) != len(cells) {
		return nil, nil, 0, fmt.Errorf("store probe: %d keys for %d cells", len(keys), len(cells))
	}
	dir, err := os.MkdirTemp(scratch, "store-")
	if err != nil {
		return nil, nil, 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	for i, key := range keys {
		start := time.Now()
		err := st.Put(key, cells[i])
		put = append(put, time.Since(start).Seconds()*1000)
		if err != nil {
			return put, get, 0, errors.Join(err, st.Close())
		}
	}
	for i, key := range keys {
		start := time.Now()
		cell, ok, err := st.Get(key)
		get = append(get, time.Since(start).Seconds()*1000)
		if err == nil && (!ok || cell.Nu != cells[i].Nu || cell.C != cells[i].C) {
			err = fmt.Errorf("store probe: key %s read back the wrong cell", key)
		}
		if err != nil {
			return put, get, 0, errors.Join(err, st.Close())
		}
	}
	if err := st.Close(); err != nil {
		return put, get, 0, err
	}
	start := time.Now()
	st, err = store.Open(dir)
	open = time.Since(start).Seconds()
	if err != nil {
		return put, get, open, err
	}
	if st.Len() != len(keys) {
		err = fmt.Errorf("store probe: reopened store holds %d cells, want %d", st.Len(), len(keys))
	}
	return put, get, open, errors.Join(err, st.Close())
}

// directJob runs one job against the service in-process — Submit, Watch
// to the end, Result, decode — which is the client's path minus HTTP.
func directJob(ctx context.Context, svc *sweepsvc.Service, req sweepsvc.JobRequest, want []byte) (time.Duration, error) {
	start := time.Now()
	st, err := svc.Submit(req)
	if err != nil {
		return 0, err
	}
	if err := svc.Watch(ctx, st.ID, func(sweepsvc.Event) error { return nil }); err != nil {
		return 0, err
	}
	raw, err := svc.Result(st.ID)
	if err == nil {
		_, err = sweep.UnmarshalCells(bytes.NewReader(raw))
	}
	d := time.Since(start)
	if err == nil && !bytes.Equal(raw, want) {
		err = errors.New("in-process cached job differs from the cold result")
	}
	return d, err
}

// Package sweepsvc is the sweep service behind cmd/sweepd: a
// long-running job manager that accepts sweep submissions over the
// façade's grid/option vocabulary, keys every grid cell by its content
// address (sweep.CellJob — parameters, ν, per-replicate seeds, engine
// semantics version), consults the persistent result store first,
// computes only the missing cells, as one batch on sweep.RunGrid's job
// queue, and returns cached and freshly computed cells as exactly the
// stream a cold single-process RunSweep would have produced.
//
// # Exactly-once computation
//
// Two mechanisms keep every distinct cell computed at most once across
// the service's lifetime:
//
//   - The store: a finished cell is committed under its content address
//     before anything else observes it, so any later job — tomorrow's
//     resubmission of today's grid, or a different grid that happens to
//     share a cell — hits the cache.
//   - Coalescing: concurrent jobs wanting the same in-flight cell join
//     a single flight (a per-key claim registered under the service
//     lock) instead of computing it twice. Claims are resolved
//     compute-before-wait — a job finishes computing everything it
//     claimed before it blocks on cells claimed by others — so
//     overlapping jobs cannot deadlock, and a job whose owner dies
//     (fails or is cancelled) sees the flight aborted and reclaims the
//     cell itself.
//
// # Job lifecycle and observation
//
// A job moves queued → running → done | failed | cancelled. Every state
// change, finished compute batch and finished cell appends an event to
// the job's replay log; Watch streams the log from the start and then
// follows live — the HTTP layer (server.go) exposes this as
// Server-Sent Events, the rest of the lifecycle as plain JSON. Jobs are
// cancellable at any point: cancellation stops the job's grid runs via
// context, aborts its unfinished claims, and leaves every cell it did
// finish in the store for the next submission.
//
// docs/sweepd.md is the service's user-facing specification.
package sweepsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"neatbound/internal/store"
	"neatbound/internal/sweep"
)

// Options configures a Service.
type Options struct {
	// Store is the persistent content-addressed cell store (required).
	Store *store.Store
	// Workers is the width of each job's sweep.RunGrid job queue (how
	// many (cell × replicate) runs execute at once); values < 1 mean
	// GOMAXPROCS.
	Workers int
	// Journal, when non-empty, is the path of the durable job journal:
	// every submission is recorded (fsynced) before its job starts and
	// struck out when the job reaches a user-visible terminal state —
	// done, failed, or cancelled *by the user*. A cancellation caused by
	// daemon shutdown is deliberately not terminal: those jobs are still
	// owed a result, and Recover resubmits them on the next start, where
	// the store turns already-finished cells into cache hits.
	Journal string
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// terminal reports whether a job state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// JobRequest is the submission body: a sweep.Spec in the
// interchange's snake_case spelling.
type JobRequest struct {
	sweep.Spec
}

// Sweep converts the request to the sweep description the service
// validates, keys and runs.
func (r JobRequest) Sweep() Sweep {
	return Sweep{Spec: r.Spec}
}

// JobStatus is a job's observable state. CellsCached counts store hits,
// CellsCoalesced cells joined from another job's in-flight computation,
// CellsComputed cells this job computed itself; at completion the three
// sum to CellsTotal.
type JobStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	CellsTotal int    `json:"cells_total"`
	// CellsCached / CellsCoalesced / CellsComputed break down where the
	// job's cells came from; see the type comment.
	CellsCached    int `json:"cells_cached"`
	CellsCoalesced int `json:"cells_coalesced"`
	CellsComputed  int `json:"cells_computed"`
	// ShardsDone / ShardsTotal count the compute batches of this job:
	// one sweep.RunGrid call per claim round that owns cache misses, so
	// 1 on a cold job and 0 on a fully cached one. ShardsTotal grows as
	// a batch starts, ShardsDone as it finishes.
	ShardsDone  int `json:"shards_done"`
	ShardsTotal int `json:"shards_total"`
	// Retries and ShardRetries are kept for wire compatibility (the
	// add-only rule); the service never retries a shard, so they stay
	// zero and absent.
	Retries      int         `json:"retries"`
	ShardRetries map[int]int `json:"shard_retries,omitempty"`
	// Error is the terminal failure ("" unless State is failed or
	// cancelled).
	Error string `json:"error,omitempty"`
}

// Event is one entry in a job's replay log — what GET /jobs/{id}/events
// streams as Server-Sent Events (Type is the SSE event name, the rest
// the JSON data). Fields are add-only, per the interchange's versioning
// rule: consumers must ignore unknown fields and event types.
type Event struct {
	// Type is the event name: queued, running, cell, shard, done,
	// failed, cancelled.
	Type string `json:"type"`
	// Status snapshots the job at the time of the event.
	Status JobStatus `json:"status"`
	// Nu and C locate the cell a "cell" event concerns.
	Nu float64 `json:"nu,omitempty"`
	C  float64 `json:"c,omitempty"`
	// Cached marks a "cell" event served from the store; Coalesced one
	// joined from another job's computation. Both false = computed here.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	// Shard is the job-global id of the compute batch a "shard" event
	// reports finished.
	Shard *int `json:"shard,omitempty"`
	// Retried, Stalled and Reason are kept for wire compatibility (the
	// add-only rule); the service never sets them.
	Retried bool   `json:"retried,omitempty"`
	Stalled bool   `json:"stalled,omitempty"`
	Reason  string `json:"reason,omitempty"`
}

// cellCoord locates a cell by grid coordinates.
type cellCoord struct{ nu, c float64 }

// flight is one in-progress cell computation other jobs can join. The
// owner either completes it (ok = true, line set) or aborts it
// (ok = false) — both close done after removing the flight from the
// service's inflight map, so a waiter that sees ok = false can re-enter
// the claim loop and find the key free (or newly cached).
type flight struct {
	done chan struct{}
	line []byte // the cell's MarshalCell bytes, without the newline
	ok   bool
}

// job is one submission's full state.
type job struct {
	id     string
	sweep  Sweep
	keys   []string // ν-major cell content addresses; nil once run returns
	ctx    context.Context
	cancel context.CancelFunc
	// userCancel distinguishes a Cancel call from a daemon-shutdown
	// cancellation: only the former journals a terminal record.
	userCancel atomic.Bool

	mu      sync.Mutex
	status  JobStatus
	events  []Event
	changed chan struct{} // closed and replaced on every append
	result  []byte        // MarshalCells bytes once State == done
}

// update mutates the job's status and, when ev is non-nil, appends it
// (carrying a status snapshot) to the replay log and wakes watchers.
func (j *job) update(mutate func(*JobStatus), ev *Event) {
	j.mu.Lock()
	if mutate != nil {
		mutate(&j.status)
	}
	if ev != nil {
		ev.Status = j.status
		j.events = append(j.events, *ev)
		close(j.changed)
		j.changed = make(chan struct{})
	}
	j.mu.Unlock()
}

// Snapshot returns the job's current status.
func (j *job) Snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// jobJournalVersion is the current job-journal record version; records
// with a newer version refuse to load (downgrade safety, same
// discipline as the store).
const jobJournalVersion = 1

// jobRecord is one line of the durable job journal. A "submit" record
// registers a job (Req set; Resumes names the prior-life job this
// resubmission supersedes, if any); an "end" record strikes a job out
// once it reaches a user-visible terminal state.
type jobRecord struct {
	V       int         `json:"v"`
	Op      string      `json:"op"` // "submit" | "end"
	ID      string      `json:"id"`
	Resumes string      `json:"resumes,omitempty"`
	State   string      `json:"state,omitempty"`
	Req     *JobRequest `json:"req,omitempty"`
}

// recoveredJob is one unfinished prior-life submission awaiting Recover.
type recoveredJob struct {
	id  string
	req JobRequest
}

// Service is the sweep service; see the package comment. Create with
// New, shut down with Close.
type Service struct {
	opts    Options
	root    context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
	journal *store.Journal // nil without Options.Journal

	mu        sync.Mutex
	jobs      map[string]*job
	seq       int
	inflight  map[string]*flight
	computed  int // total cells computed (never served from cache) since New
	recovered []recoveredJob
}

// jobSeq extracts the numeric suffix of a "job-N" id.
func jobSeq(id string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	return n, err == nil && n > 0
}

// New builds a Service over a store. With Options.Journal set it also
// replays the job journal: unfinished prior-life submissions are queued
// for Recover, and the id sequence continues past every id the journal
// has seen so no id is ever reused.
func New(opts Options) (*Service, error) {
	if opts.Store == nil {
		return nil, errors.New("sweepsvc: Options.Store is required")
	}
	root, stop := context.WithCancel(context.Background())
	s := &Service{
		opts:     opts,
		root:     root,
		stop:     stop,
		jobs:     make(map[string]*job),
		inflight: make(map[string]*flight),
	}
	if opts.Journal != "" {
		pending := make(map[string]*JobRequest)
		var order []string
		j, err := store.OpenJournal(opts.Journal, func(off int64, line []byte) error {
			var rec jobRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return fmt.Errorf("%w: %v", store.ErrMalformed, err)
			}
			if rec.V > jobJournalVersion {
				// Not ErrMalformed: a version this binary cannot read is a
				// hard refusal even on the final line, never a torn tail.
				return fmt.Errorf("sweepsvc: job journal record version %d is newer than this binary understands (%d)", rec.V, jobJournalVersion)
			}
			if n, ok := jobSeq(rec.ID); ok && n > s.seq {
				s.seq = n
			}
			switch rec.Op {
			case "submit":
				if rec.Req == nil {
					return fmt.Errorf("%w: submit record %q has no request", store.ErrMalformed, rec.ID)
				}
				if rec.Resumes != "" {
					delete(pending, rec.Resumes)
				}
				if _, dup := pending[rec.ID]; !dup {
					order = append(order, rec.ID)
				}
				pending[rec.ID] = rec.Req
			case "end":
				delete(pending, rec.ID)
			default:
				return fmt.Errorf("%w: unknown job journal op %q", store.ErrMalformed, rec.Op)
			}
			return nil
		})
		if err != nil {
			stop()
			return nil, err
		}
		s.journal = j
		for _, id := range order {
			if req, ok := pending[id]; ok {
				s.recovered = append(s.recovered, recoveredJob{id: id, req: *req})
			}
		}
	}
	return s, nil
}

// Recover resubmits every journalled job that had not reached a
// user-visible terminal state when the previous process died — the jobs
// the daemon still owes results for. Each gets a fresh id (the journal
// links it to the one it supersedes); cells the previous life already
// committed come straight from the store, so recovery recomputes only
// what was genuinely lost. Call it once, after New and before serving
// traffic; without Options.Journal, or with nothing to recover, it
// returns nil. On a submission error the remaining jobs stay queued for
// the next start.
func (s *Service) Recover() ([]JobStatus, error) {
	s.mu.Lock()
	recovered := s.recovered
	s.recovered = nil
	s.mu.Unlock()
	var out []JobStatus
	for i, r := range recovered {
		st, err := s.submit(r.req, r.id)
		if err != nil {
			s.mu.Lock()
			s.recovered = append(s.recovered, recovered[i:]...)
			s.mu.Unlock()
			return out, fmt.Errorf("sweepsvc: recover %s: %w", r.id, err)
		}
		out = append(out, st)
	}
	return out, nil
}

// journalEnd strikes a terminal job out of the durable journal. A
// daemon-shutdown cancellation is deliberately not recorded — Recover
// resubmits those jobs next start. Append failures are swallowed: the
// worst case is one spurious resubmission on the next start, which the
// store then serves almost entirely from cache — strictly safer than
// dropping a job the user is owed.
func (s *Service) journalEnd(j *job, state string) {
	if s.journal == nil || (state == StateCancelled && !j.userCancel.Load()) {
		return
	}
	if line, err := json.Marshal(jobRecord{V: jobJournalVersion, Op: "end", ID: j.id, State: state}); err == nil {
		s.journal.Append(line)
	}
}

// Close cancels every running job and waits for them to finish. The
// store is the caller's to close; the job journal is the service's.
func (s *Service) Close() {
	s.stop()
	s.wg.Wait()
	if s.journal != nil {
		s.journal.Close()
	}
}

// ComputedCells reports how many cells the service has actually
// computed (as opposed to served from cache or coalesced) since New —
// the number the exactly-once tests pin.
func (s *Service) ComputedCells() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.computed
}

// CellKeys derives the content address of every cell in the sweep, in
// ν-major grid order — the keys the service stores and coalesces on.
// Exported for tests and warm-cache tooling.
func CellKeys(sw Sweep) []string {
	sem := sw.Semantics
	sem.SampleEvery = sweep.ResolveSampleEvery(sem.SampleEvery, sem.Rounds)
	nC := len(sw.CValues)
	keys := make([]string, 0, len(sw.NuValues)*nC)
	for i, nu := range sw.NuValues {
		for jc, c := range sw.CValues {
			idx := i*nC + jc
			seeds := make([]uint64, sw.Replicates)
			for rep := range seeds {
				seeds[rep] = sweep.CellSeed(sw.Seed, idx, rep)
			}
			keys = append(keys, sweep.CellJob{
				EngineVersion: sweep.EngineVersion,
				N:             sw.N,
				Delta:         sw.Delta,
				Nu:            nu,
				C:             c,
				Semantics:     sem,
				Seeds:         seeds,
			}.Key())
		}
	}
	return keys
}

// errClosed refuses submissions once Close has begun.
var errClosed = errors.New("sweepsvc: service is closed")

// Submit validates a request, registers a job, and starts it. The
// returned status is the job's initial snapshot; follow it via Status,
// Watch, or the HTTP endpoints.
func (s *Service) Submit(req JobRequest) (JobStatus, error) {
	return s.submit(req, "")
}

// submit is Submit plus the recovery linkage: a non-empty resumes names
// the prior-life job this submission supersedes, recorded on the
// journal's submit line so one fsynced record atomically registers the
// new job and strikes out the old.
func (s *Service) submit(req JobRequest, resumes string) (JobStatus, error) {
	sw := req.Sweep()
	if err := sw.Validate(); err != nil {
		return JobStatus{}, err
	}
	if s.root.Err() != nil {
		return JobStatus{}, errClosed
	}
	keys := CellKeys(sw)

	s.mu.Lock()
	if s.root.Err() != nil {
		s.mu.Unlock()
		return JobStatus{}, errClosed
	}
	s.seq++
	id := fmt.Sprintf("job-%d", s.seq)
	if s.journal != nil {
		// Journal before the job exists anywhere else (fsync-before-
		// announce): a submission the caller saw accepted survives a
		// crash. Appends happen under s.mu, so journal order is id order.
		line, err := json.Marshal(jobRecord{V: jobJournalVersion, Op: "submit", ID: id, Resumes: resumes, Req: &req})
		if err == nil {
			_, _, err = s.journal.Append(line)
		}
		if err != nil {
			s.seq--
			s.mu.Unlock()
			return JobStatus{}, fmt.Errorf("sweepsvc: journal submit: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(s.root)
	j := &job{
		id:      id,
		sweep:   sw,
		keys:    keys,
		ctx:     ctx,
		cancel:  cancel,
		status:  JobStatus{ID: id, State: StateQueued, CellsTotal: len(keys)},
		changed: make(chan struct{}),
	}
	s.jobs[id] = j
	s.wg.Add(1)
	s.mu.Unlock()

	j.update(nil, &Event{Type: StateQueued})
	go s.run(j)
	return j.Snapshot(), nil
}

// lookup returns a job by id.
func (s *Service) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Status returns a job's current status.
func (s *Service) Status(id string) (JobStatus, bool) {
	j, ok := s.lookup(id)
	if !ok {
		return JobStatus{}, false
	}
	return j.Snapshot(), true
}

// Cancel requests cancellation of a job (a no-op once terminal) and
// returns its current status.
func (s *Service) Cancel(id string) (JobStatus, bool) {
	j, ok := s.lookup(id)
	if !ok {
		return JobStatus{}, false
	}
	j.userCancel.Store(true)
	j.cancel()
	return j.Snapshot(), true
}

// Result returns a done job's cell stream — the MarshalCells bytes,
// byte-identical to a cold single-process RunSweep of the same request.
// It errors while the job is still running or after it failed.
func (s *Service) Result(id string) ([]byte, error) {
	j, ok := s.lookup(id)
	if !ok {
		return nil, fmt.Errorf("sweepsvc: unknown job %s", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.State != StateDone {
		return nil, fmt.Errorf("sweepsvc: job %s is %s, not done", id, j.status.State)
	}
	return j.result, nil
}

// Watch replays a job's event log from the start and then follows live,
// calling fn for every event in order. It returns nil once the job is
// terminal and every event has been delivered, ctx's error on
// cancellation, or fn's error if it rejects an event.
func (s *Service) Watch(ctx context.Context, id string, fn func(Event) error) error {
	return s.watch(ctx, id, func(evs []Event) error {
		for _, ev := range evs {
			if err := fn(ev); err != nil {
				return err
			}
		}
		return nil
	})
}

// watch is Watch handing over events in batches: each call of fn gets
// every event appended since the previous one, in order, so a consumer
// can pay per-delivery costs (an SSE flush) once per batch. fn must not
// retain or modify the slice.
func (s *Service) watch(ctx context.Context, id string, fn func([]Event) error) error {
	j, ok := s.lookup(id)
	if !ok {
		return fmt.Errorf("sweepsvc: unknown job %s", id)
	}
	i := 0
	for {
		j.mu.Lock()
		// Full slice expression: the backing array beyond len is append's
		// to scribble on while we read the prefix unlocked.
		evs := j.events[i:len(j.events):len(j.events)]
		ch := j.changed
		done := terminal(j.status.State) && i+len(evs) == len(j.events)
		j.mu.Unlock()
		if len(evs) > 0 {
			if err := fn(evs); err != nil {
				return err
			}
		}
		i += len(evs)
		if done {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// runGrid runs one batch of cache misses; tests swap it to wedge or
// script a job's computation.
var runGrid = sweep.RunGrid

// run drives one job to a terminal state. The keys are only read on
// its goroutine, so a finished job drops them and keeps just its
// status, events and result.
func (s *Service) run(j *job) {
	defer s.wg.Done()
	defer j.cancel()
	defer func() { j.keys = nil }()
	j.update(func(st *JobStatus) { st.State = StateRunning }, &Event{Type: StateRunning})

	lines, err := s.resolve(j)
	if err == nil {
		// Every line is its cell's MarshalCell bytes at its parent index,
		// so joining them is the cold RunSweep's MarshalCells stream.
		n := 0
		for _, line := range lines {
			n += len(line) + 1
		}
		out := make([]byte, 0, n)
		for _, line := range lines {
			out = append(append(out, line...), '\n')
		}
		j.mu.Lock()
		j.result = out
		j.mu.Unlock()
		j.update(func(st *JobStatus) { st.State = StateDone }, &Event{Type: StateDone})
		s.journalEnd(j, StateDone)
		return
	}
	// A cancelled job context wins over however the failure was wrapped:
	// the caller asked for cancellation and gets "cancelled", not an
	// error downstream of it.
	state := StateFailed
	if errors.Is(err, context.Canceled) || j.ctx.Err() != nil {
		state = StateCancelled
	}
	j.update(func(st *JobStatus) {
		st.State = state
		st.Error = err.Error()
	}, &Event{Type: state})
	s.journalEnd(j, state)
}

// resolve produces every cell of the job's grid as its MarshalCell
// line (no newline), in parent order, sourcing each from the store's
// verified bytes, a joined flight, or its own computation. It loops
// until every cell is resolved: a round claims or joins each pending
// cell, computes everything claimed (compute-before-wait — the
// deadlock-freedom invariant), then waits on the joins; joins whose
// owner aborted are retried next round.
func (s *Service) resolve(j *job) ([][]byte, error) {
	n := len(j.keys)
	lines := make([][]byte, n)
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	for len(pending) > 0 {
		if err := j.ctx.Err(); err != nil {
			return nil, err
		}
		var hits, owned, joined []int
		flights := make(map[int]*flight)
		s.mu.Lock()
		for _, idx := range pending {
			key := j.keys[idx]
			// Has (an index probe) under s.mu is race-free against
			// completion: an owner commits to the store *before* removing
			// its flight, so a key with no flight and no store entry is
			// genuinely unowned.
			if s.opts.Store.Has(key) {
				hits = append(hits, idx)
				continue
			}
			if f, ok := s.inflight[key]; ok {
				joined = append(joined, idx)
				flights[idx] = f
				continue
			}
			s.inflight[key] = &flight{done: make(chan struct{})}
			owned = append(owned, idx)
		}
		s.mu.Unlock()

		// Store reads can happen unlocked: committed records are
		// immutable. A hit is served as the bytes Put encoded, which
		// GetRaw has checksummed and the key (it pins EngineVersion)
		// ties to this cell: the cold bytes, which a decode and
		// re-encode would not always reproduce (docs/sweepd.md).
		for _, idx := range hits {
			line, ok, err := s.opts.Store.GetRaw(j.keys[idx])
			if err == nil && !ok {
				err = fmt.Errorf("sweepsvc: cell %s vanished from store", j.keys[idx])
			}
			if err != nil {
				s.abortFlights(j, owned)
				return nil, err
			}
			lines[idx] = line
			nu, c := j.coord(idx)
			j.update(func(st *JobStatus) { st.CellsCached++ },
				&Event{Type: "cell", Nu: nu, C: c, Cached: true})
		}

		if len(owned) > 0 {
			if err := s.compute(j, owned, lines); err != nil {
				return nil, err
			}
		}

		var retry []int
		for _, idx := range joined {
			f := flights[idx]
			select {
			case <-f.done:
			case <-j.ctx.Done():
				return nil, j.ctx.Err()
			}
			if !f.ok {
				// The owner failed or was cancelled; reclaim next round.
				retry = append(retry, idx)
				continue
			}
			lines[idx] = f.line
			nu, c := j.coord(idx)
			j.update(func(st *JobStatus) { st.CellsCoalesced++ },
				&Event{Type: "cell", Nu: nu, C: c, Coalesced: true})
		}
		pending = retry
	}
	return lines, nil
}

// coord returns the grid coordinates of the cell at ν-major index idx —
// the (ν, c) RunGrid stamps on that cell.
func (j *job) coord(idx int) (nu, c float64) {
	nC := len(j.sweep.CValues)
	return j.sweep.NuValues[idx/nC], j.sweep.CValues[idx%nC]
}

// abortFlights aborts the job's still-incomplete claims among idxs so
// waiting jobs can reclaim them. Flights the job already completed (and
// removed) are skipped — the inflight map only ever holds incomplete
// ones.
func (s *Service) abortFlights(j *job, idxs []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, idx := range idxs {
		key := j.keys[idx]
		if f, ok := s.inflight[key]; ok {
			f.ok = false
			delete(s.inflight, key)
			close(f.done)
		}
	}
}

// compute runs the job's claimed cells as one batch: a single
// sweep.RunGrid call over the job's grid with Cells = owned, so every
// cell draws its whole-grid seeds and gives its whole-grid result. It
// commits each finished cell as it lands — store first, then the
// flight, which carries the cell's one MarshalCell encoding to joined
// jobs. On any failure the remaining incomplete claims are aborted for
// other jobs to reclaim.
func (s *Service) compute(j *job, owned []int, lines [][]byte) (err error) {
	committed := make(map[int]bool, len(owned)) // written only by commit, on this goroutine
	defer func() {
		if err == nil {
			return
		}
		var left []int
		for _, idx := range owned {
			if !committed[idx] {
				left = append(left, idx)
			}
		}
		s.abortFlights(j, left)
	}()

	var shard int // job-global id of this batch
	j.update(func(st *JobStatus) {
		shard = st.ShardsTotal
		st.ShardsTotal++
	}, nil)

	// RunGrid hands cells over by coordinates: map them back to the
	// owned indices.
	cellIdx := make(map[cellCoord]int, len(owned))
	for _, idx := range owned {
		nu, c := j.coord(idx)
		cellIdx[cellCoord{nu, c}] = idx
	}
	commit := func(cell sweep.AggregateCell) error {
		idx, ok := cellIdx[cellCoord{cell.Nu, cell.C}]
		if !ok {
			return fmt.Errorf("sweepsvc: job %s: grid run returned unknown cell (ν=%g, c=%g)", j.id, cell.Nu, cell.C)
		}
		var buf bytes.Buffer
		if err := sweep.MarshalCell(json.NewEncoder(&buf), cell); err != nil {
			return err
		}
		line := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		// Store before flight: the claim-loop invariant (no flight + no
		// store entry ⇒ unowned) depends on this order. A PutRaw failure
		// leaves the flight incomplete; the deferred abort hands the
		// cell back.
		if err := s.opts.Store.PutRaw(j.keys[idx], line); err != nil {
			return err
		}
		s.mu.Lock()
		if f, ok := s.inflight[j.keys[idx]]; ok {
			f.line = line
			f.ok = true
			delete(s.inflight, j.keys[idx])
			close(f.done)
		}
		s.computed++
		s.mu.Unlock()
		lines[idx] = line
		committed[idx] = true
		j.update(func(st *JobStatus) { st.CellsComputed++ },
			&Event{Type: "cell", Nu: cell.Nu, C: cell.C})
		return nil
	}

	cfg, err := j.sweep.Spec.Config()
	if err != nil {
		return err
	}
	cfg.Workers = s.opts.Workers
	cfg.Cells = owned
	var commitErr error
	_, runErr := runGrid(j.ctx, cfg, j.sweep.Replicates, func(cell sweep.AggregateCell) {
		// Commit every cell handed over while the job is live — an
		// errored cell (every replicate failed) included, since it is
		// the cell RunSweep reports. Once the job is cancelled a cell
		// may be missing the replicates the cancellation cut short,
		// so nothing more is committed.
		if commitErr == nil && j.ctx.Err() == nil {
			commitErr = commit(cell)
		}
	})
	if runErr != nil {
		return runErr
	}
	if commitErr != nil {
		return commitErr
	}
	j.update(func(st *JobStatus) { st.ShardsDone++ }, &Event{Type: "shard", Shard: &shard})
	return nil
}

// Package pool provides the persistent worker-pool runtime the
// consistency checker's pairwise scans run on. The scans used to spawn
// fresh goroutines per call; a Pool replaces those spawns with
// long-lived workers and a lightweight reusable barrier, so the
// steady-state cost of a parallel phase is a handful of channel
// operations instead of P goroutine creations plus a sync.WaitGroup
// cycle.
//
// # Barrier protocol
//
// A Pool owns W worker goroutines, each parked on its own buffered
// wake channel. Run(tasks, fn) executes fn(0) … fn(tasks−1) and returns
// when all calls have finished:
//
//  1. The caller publishes the phase (fn, task count, claim counter)
//     in the Pool's fields, arms the barrier by storing the number of
//     workers it is about to wake in an atomic countdown, and sends one
//     token to each of those workers' wake channels. The channel sends
//     order the phase fields before every worker's reads.
//  2. Woken workers — and the caller itself, which participates instead
//     of sleeping — claim task indices from a shared atomic counter
//     until the counter passes the task count. Task-to-worker assignment
//     is therefore dynamic; callers must not assume fn(i) runs on any
//     particular worker, only that concurrent fn calls receive distinct
//     task indices.
//  3. Each worker that finishes its claim loop decrements the countdown;
//     the last one signals the caller through a single buffered done
//     channel (the "futex wake": one send total per phase, not one per
//     worker). The decrement-then-send pair orders every worker's writes
//     before the caller's return.
//
// Run never spawns a goroutine, allocates nothing in steady state, and
// wakes at most min(W, tasks−1) workers — a Run with one task executes
// entirely on the caller.
//
// # Ownership rules
//
// Run is safe for concurrent use: a Pool serializes phases internally,
// so independent owners (the per-cell checkers of a sweep, say) may share
// one Pool — they take turns instead of oversubscribing the scheduler
// with competing goroutine fleets. Everything else is single-owner:
// Close must not race with Run, and a closed Pool must not be Run again.
// fn must not panic (a panic on a worker kills the process, exactly as
// it did on the spawned goroutines this package replaces) and must not
// call Run on the same Pool (the phase lock is held; it would deadlock).
//
// The process-wide Default pool is sized to GOMAXPROCS at first use,
// shared by every component that does not inject its own Pool, and never
// closed.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a fixed set of persistent worker goroutines driven through a
// reusable barrier. The zero value is not usable; construct with New.
type Pool struct {
	// mu serializes phases: at most one Run owns the workers at a time.
	mu sync.Mutex
	// wake carries one token per phase to each participating worker.
	// Buffered so the caller never blocks waking; closed by Close to
	// terminate the workers.
	wake []chan struct{}
	// done receives the single end-of-phase signal from the last worker
	// to finish (buffered so that worker never blocks either).
	done chan struct{}

	// Phase state, published under mu before the wake sends and read by
	// workers after their wake receive (the channel operation is the
	// ordering edge).
	fn     func(task int)
	tasks  int64
	next   atomic.Int64 // next unclaimed task index
	active atomic.Int64 // woken workers still running; last one signals done

	// closed is atomic only so the lock-free single-task fast path of
	// Run can check it; transitions still happen under mu.
	closed atomic.Bool
}

// New returns a Pool with the given number of persistent workers
// (values below 1 are clamped to 1). The workers are parked immediately
// and live until Close.
func New(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{
		wake: make([]chan struct{}, workers),
		done: make(chan struct{}, 1),
	}
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
		go p.work(i)
	}
	return p
}

// Workers returns the number of persistent workers (excluding the
// caller, which also executes tasks during Run).
func (p *Pool) Workers() int { return len(p.wake) }

// Run executes fn(0) … fn(tasks−1) across the pool's workers and the
// calling goroutine, returning when every call has finished. Concurrent
// fn calls receive distinct task indices; assignment to workers is
// dynamic (an atomic claim counter), so fn must only rely on the task
// index, never on worker identity. Concurrent Run calls from different
// goroutines serialize. Run with tasks ≤ 0 is a no-op; Run with one
// task calls fn inline.
func (p *Pool) Run(tasks int, fn func(task int)) {
	if tasks <= 0 {
		return
	}
	if tasks == 1 {
		// No parallelism to extract: skip the barrier (and the phase
		// lock — an inline call cannot conflict with a running phase's
		// workers, which never touch it). The closed check still
		// applies, so a use-after-Close bug surfaces regardless of the
		// phase's task count.
		if p.closed.Load() {
			panic("pool: Run on closed Pool")
		}
		fn(0)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		panic("pool: Run on closed Pool")
	}
	// The caller participates, so waking more than tasks−1 workers
	// would park the surplus on an already-drained claim counter.
	w := len(p.wake)
	if w > tasks-1 {
		w = tasks - 1
	}
	p.fn = fn
	p.tasks = int64(tasks)
	p.next.Store(0)
	p.active.Store(int64(w))
	for i := 0; i < w; i++ {
		p.wake[i] <- struct{}{}
	}
	p.claim()
	<-p.done
	p.fn = nil
}

// claim is the task claim loop both the workers and the Run caller
// execute: grab the next unclaimed index until the counter passes the
// task count.
func (p *Pool) claim() {
	fn, n := p.fn, p.tasks
	for {
		t := p.next.Add(1) - 1
		if t >= n {
			return
		}
		fn(int(t))
	}
}

// work is one worker's park-claim-signal loop.
func (p *Pool) work(i int) {
	for range p.wake[i] {
		p.claim()
		if p.active.Add(-1) == 0 {
			p.done <- struct{}{}
		}
	}
}

// Close terminates the workers. It must not be called concurrently with
// Run, and the Pool must not be used afterwards. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	for i := range p.wake {
		close(p.wake[i])
	}
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide shared Pool, created with GOMAXPROCS
// workers on first use and never closed. Every sweep cell's checker
// scans on it, so concurrent owners take turns on one worker set instead
// of each spawning their own.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = New(runtime.GOMAXPROCS(0)) })
	return defaultPool
}

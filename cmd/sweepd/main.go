// Command sweepd is the persistent sweep service: a long-running HTTP
// server that accepts sweep-job submissions (the cmd/sweep grid
// vocabulary as JSON), serves every cell it has already computed from a
// durable content-addressed result store, computes only the missing
// cells (sweep.RunGrid, in this process), and streams job progress
// as Server-Sent Events. A job's result is byte-identical to a cold
// single-process run of the same sweep; submitting the same grid twice
// computes each cell exactly once.
//
// Usage:
//
//	sweepd -addr :8632 -store ./sweepd-store
//
// Then, from any HTTP client:
//
//	curl -X POST localhost:8632/jobs -d '{"n":10,"delta":4,"nu_values":[0.2],"c_values":[1,2],"rounds":400,"seed":7,"t":4,"replicates":2}'
//	curl localhost:8632/jobs/job-1                 # status
//	curl -N localhost:8632/jobs/job-1/events       # SSE progress
//	curl localhost:8632/jobs/job-1/result          # finished cell stream (JSONL)
//	curl -X DELETE localhost:8632/jobs/job-1       # cancel
//
// -workers sets how many simulation runs each job executes at once
// (0 = GOMAXPROCS). -journal FILE makes jobs durable: submissions are
// journalled before they start, and on the next boot the daemon
// resubmits every job that was still in flight when it died —
// already-finished cells come from the store, so a restarted job
// recomputes only what was lost. docs/sweepd.md specifies the API, the
// store layout, and the event schema; docs/faults.md the crash-recovery
// contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"neatbound/internal/store"
	"neatbound/internal/sweepsvc"
)

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so idle half-open connections cannot pile up.
const readHeaderTimeout = 10 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

// run is the testable server body: it opens the store, builds the
// service, serves until ctx is cancelled, then shuts down gracefully —
// in-flight jobs are cancelled (their finished cells stay in the
// store), open event streams drain, and the store is closed last. If
// ready is non-nil it receives the listener's actual address once
// serving (the "-addr :0" test seam).
func run(ctx context.Context, args []string, stderr io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8632", "HTTP listen address")
	storeDir := fs.String("store", "sweepd-store", "result store directory (created if absent)")
	workers := fs.Int("workers", 0, "simulation runs each job executes at once (0 = GOMAXPROCS)")
	journal := fs.String("journal", "", "durable job journal file; unfinished jobs are resubmitted on restart (empty = jobs die with the daemon)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	st, err := store.Open(*storeDir)
	if err != nil {
		return err
	}
	defer st.Close()
	if stats := st.Stats(); stats.TailDropped {
		fmt.Fprintf(stderr, "sweepd: store %s: dropped a torn tail record from a previous crash (%d cells intact)\n", *storeDir, stats.Cells)
	}

	svc, err := sweepsvc.New(sweepsvc.Options{Store: st, Workers: *workers, Journal: *journal})
	if err != nil {
		return err
	}
	if *journal != "" {
		recovered, err := svc.Recover()
		if err != nil {
			svc.Close()
			return err
		}
		for _, st := range recovered {
			fmt.Fprintf(stderr, "sweepd: recovered unfinished job as %s (%d cells)\n", st.ID, st.CellsTotal)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Bound only the header read: a Read or Write timeout would cut
	// long-lived SSE event streams.
	server := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	fmt.Fprintf(stderr, "sweepd: serving on %s (store %s, %d cells cached)\n", ln.Addr(), *storeDir, st.Len())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()

	select {
	case err := <-serveErr:
		svc.Close()
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(stderr, "sweepd: shutting down")
	// Cancel jobs first so their event streams reach a terminal state
	// and drain, letting Shutdown complete instead of hanging on open
	// SSE connections.
	svc.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

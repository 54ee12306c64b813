package neatbound

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"neatbound/internal/sweepsvc"
)

// This file is the client face of the sweep service (cmd/sweepd): a
// SweepClient submits the same grid/option vocabulary RunSweep takes to
// a running sweepd server, which serves each cell from its persistent
// content-addressed store when it can and computes only the rest. A
// finished job's result is byte-identical to a cold single-process
// RunSweep of the same request (docs/sweepd.md specifies the protocol).

// SweepJobRequest is the wire form of a sweep submission — what
// SweepClient.Submit builds from a SweepGrid plus options, and what
// POST /jobs accepts directly.
type SweepJobRequest = sweepsvc.JobRequest

// SweepJobStatus is a submitted job's observable state: lifecycle
// (queued/running/done/failed/cancelled), the cached/coalesced/computed
// cell breakdown, and the cache-miss sub-grids done and dispatched.
type SweepJobStatus = sweepsvc.JobStatus

// SweepJobEvent is one entry in a job's progress stream — the payload
// of the server's Server-Sent Events. Event types and fields are
// add-only; ignore what you do not know.
type SweepJobEvent = sweepsvc.Event

// Terminal sweep-job states (SweepJobStatus.State).
const (
	SweepJobDone      = sweepsvc.StateDone
	SweepJobFailed    = sweepsvc.StateFailed
	SweepJobCancelled = sweepsvc.StateCancelled
)

// SweepClient talks to a sweepd server. The zero value is not usable;
// build with NewSweepClient.
type SweepClient struct {
	base string
	hc   *http.Client
}

// NewSweepClient returns a client for the sweepd server at baseURL
// (e.g. "http://localhost:8632"). hc may be nil for
// http.DefaultClient; note the events stream holds its connection open
// for the life of a job, so a client with an aggressive Timeout should
// not be shared with Stream/Wait.
func NewSweepClient(baseURL string, hc *http.Client) *SweepClient {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &SweepClient{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// apiError extracts the server's {"error": "..."} body.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("neatbound: sweepd: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("neatbound: sweepd: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
}

// do runs one JSON request/response round trip.
func (c *SweepClient) do(ctx context.Context, method, path string, body, out any) error {
	var reqBody io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("neatbound: encode sweepd request: %w", err)
		}
		reqBody = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, reqBody)
	if err != nil {
		return fmt.Errorf("neatbound: sweepd request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("neatbound: sweepd: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return apiError(resp)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("neatbound: decode sweepd response: %w", err)
		}
	}
	return nil
}

// SweepRequest builds the wire form of a submission from a grid and the
// service-scoped options — the sweep.Spec the options describe.
// Exported so callers can inspect or persist exactly what Submit would
// send.
func SweepRequest(grid SweepGrid, opts ...Option) (SweepJobRequest, error) {
	o, err := applyOptions(scopeSvc, "SweepClient.Submit", opts)
	if err != nil {
		return SweepJobRequest{}, err
	}
	return sweepsvc.JobRequest{Spec: o.spec(grid)}, nil
}

// Submit sends a sweep job to the server and returns its initial
// status. The job runs remotely; follow it with Stream or poll Status,
// or just call Wait.
func (c *SweepClient) Submit(ctx context.Context, grid SweepGrid, opts ...Option) (SweepJobStatus, error) {
	req, err := SweepRequest(grid, opts...)
	if err != nil {
		return SweepJobStatus{}, err
	}
	var st SweepJobStatus
	if err := c.do(ctx, http.MethodPost, "/jobs", req, &st); err != nil {
		return SweepJobStatus{}, err
	}
	return st, nil
}

// Status fetches a job's current status.
func (c *SweepClient) Status(ctx context.Context, id string) (SweepJobStatus, error) {
	var st SweepJobStatus
	if err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &st); err != nil {
		return SweepJobStatus{}, err
	}
	return st, nil
}

// Cancel requests cancellation of a job (a no-op once terminal) and
// returns its status at the time of the request.
func (c *SweepClient) Cancel(ctx context.Context, id string) (SweepJobStatus, error) {
	var st SweepJobStatus
	if err := c.do(ctx, http.MethodDelete, "/jobs/"+id, nil, &st); err != nil {
		return SweepJobStatus{}, err
	}
	return st, nil
}

// ResultRaw fetches a done job's cell stream as raw interchange bytes —
// byte-identical to MarshalCells over a cold single-process RunSweep of
// the same request. It errors while the job is running or after it
// failed.
func (c *SweepClient) ResultRaw(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, fmt.Errorf("neatbound: sweepd request: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("neatbound: sweepd: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("neatbound: read sweepd result: %w", err)
	}
	return body, nil
}

// Result fetches and decodes a done job's cells, in the submitted
// grid's ν-major order.
func (c *SweepClient) Result(ctx context.Context, id string) ([]AggregateCell, error) {
	raw, err := c.ResultRaw(ctx, id)
	if err != nil {
		return nil, err
	}
	return UnmarshalCells(bytes.NewReader(raw))
}

// Stream follows a job's Server-Sent Events — the full replay log from
// submission, then live events — calling fn for each until the job is
// terminal (returning nil), ctx is cancelled, or fn returns an error.
func (c *SweepClient) Stream(ctx context.Context, id string, fn func(SweepJobEvent) error) error {
	// The event name is redundant with the payload's "type" field, so
	// only data is parsed.
	return c.events(ctx, id, func(_ string, data []byte) error {
		var ev SweepJobEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("neatbound: decode sweepd event: %w", err)
		}
		if fn != nil {
			return fn(ev)
		}
		return nil
	})
}

// events reads a job's Server-Sent Events stream, calling fn with each
// event's name (its "event:" line) and data until the stream ends, ctx
// is cancelled, or fn returns an error. fn must not retain data.
func (c *SweepClient) events(ctx context.Context, id string, fn func(name string, data []byte) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return fmt.Errorf("neatbound: sweepd request: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("neatbound: sweepd: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var name string
	var data []byte
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			// Blank line terminates one SSE event.
			if len(data) == 0 {
				continue
			}
			if err := fn(name, data); err != nil {
				return err
			}
			name, data = "", data[:0]
		case bytes.HasPrefix(line, []byte("event: ")):
			name = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data, line[len("data: "):]...)
		}
	}
	if err := sc.Err(); err != nil {
		// Surface the caller's cancellation as such, not as a transport
		// error.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("neatbound: sweepd event stream: %w", err)
	}
	return nil
}

// Wait follows the job's event stream until it reaches a terminal
// state, then returns the decoded cells of a done job — or an error
// carrying the server's failure for a failed or cancelled one. Only the
// terminal event's data is decoded; the rest are skipped by name.
func (c *SweepClient) Wait(ctx context.Context, id string) ([]AggregateCell, error) {
	var last SweepJobStatus
	if err := c.events(ctx, id, func(name string, data []byte) error {
		switch name {
		case SweepJobDone, SweepJobFailed, SweepJobCancelled:
		default:
			return nil
		}
		var ev SweepJobEvent
		if err := json.Unmarshal(data, &ev); err != nil {
			return fmt.Errorf("neatbound: decode sweepd event: %w", err)
		}
		last = ev.Status
		return nil
	}); err != nil {
		return nil, err
	}
	switch last.State {
	case SweepJobDone:
		return c.Result(ctx, id)
	case SweepJobFailed, SweepJobCancelled:
		return nil, fmt.Errorf("neatbound: sweepd job %s %s: %s", id, last.State, last.Error)
	default:
		return nil, fmt.Errorf("neatbound: sweepd event stream for job %s ended without a terminal event", id)
	}
}

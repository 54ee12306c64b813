package sweepsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// Handler returns the service's HTTP API — the surface cmd/sweepd
// serves and docs/sweepd.md specifies:
//
//	POST   /jobs             submit a JobRequest        → 202 JobStatus
//	GET    /jobs/{id}        job status                 → 200 JobStatus
//	GET    /jobs/{id}/result finished cell stream       → 200 JSONL
//	GET    /jobs/{id}/events replay + live progress     → 200 SSE
//	DELETE /jobs/{id}        cancel                     → 200 JobStatus
//	GET    /healthz          liveness                   → 200
//
// Errors are JSON objects {"error": "..."} with conventional status
// codes (400 invalid submission, 404 unknown job, 409 result not
// ready, 413 submission body over maxRequestBytes).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// writeJSON writes one JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError writes the API's error shape.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxRequestBytes caps a POST /jobs body at 1 MiB. The body's size
// does not bound the work it asks for; Sweep.Validate caps that.
const maxRequestBytes = 1 << 20

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
			err = fmt.Errorf("body exceeds the %d-byte limit", tooBig.Limit)
		}
		writeError(w, code, fmt.Errorf("sweepsvc: decode request: %w", err))
		return
	}
	st, err := s.Submit(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Status(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("sweepsvc: unknown job %s", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("sweepsvc: unknown job %s", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	result, err := s.Result(id)
	if err != nil {
		code := http.StatusConflict
		if _, ok := s.Status(id); !ok {
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	w.Write(result)
}

// handleEvents streams the job's replay log and then live events as
// Server-Sent Events: each Event goes out as "event: <Type>" with the
// Event's JSON as its data line, and the stream is flushed once per
// batch of events watch delivers. The stream ends when the job is
// terminal and fully delivered; per the event schema's add-only rule
// (docs/sweepd.md), clients must ignore event types and data fields
// they do not know.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Status(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("sweepsvc: unknown job %s", id))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("sweepsvc: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	// One flush per batch watch hands over: a cached job's hundreds of
	// events leave in a few writes instead of one each.
	err := s.watch(r.Context(), id, func(evs []Event) error {
		for _, ev := range evs {
			data, err := json.Marshal(ev)
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
				return err
			}
		}
		flusher.Flush()
		return nil
	})
	// The transport is committed; a late error (client gone, context
	// cancelled) has nowhere to go but the dropped connection.
	_ = err
}

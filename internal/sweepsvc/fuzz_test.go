package sweepsvc_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"neatbound/internal/sweepsvc"
)

// FuzzJobRequest drives POST /jobs through the real handler on a closed
// service, so no job ever runs: whatever the body, the answer is a 400
// or 413 carrying a JSON {"error": ...} reason — never a panic or a 5xx.
func FuzzJobRequest(f *testing.F) {
	valid, err := json.Marshal(testReq())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(valid))
	f.Add(`{"n": 10, "delta": 3, "nu_values": [0.2], "c_values": [1], "rounds": 400, "bogus": 1}`)
	f.Add(`{"n": 10, "delta": 3, "nu_values": [0.2], "c_values": [1], "rounds": 400, "t": -1}`)
	f.Add(`{"n": 10, "delta": 3, "nu_values": [0.2], "c_values": [1, 1], "rounds": 400, "replicates": 1}`)
	f.Add(`{"n": 10, "delta": 3, "nu_values": [0.2], "c_values": [1], "rounds": 400, "replicates": 1,
		"scenario": {"delay": {"kind": "iid"}}}`)
	f.Add(`{"nu_values": [` + strings.Repeat("0.25,", (1<<20)/5+1) + `0.25]}`)

	svc, _ := newService(f, sweepsvc.Options{})
	svc.Close()
	h := svc.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d for body %q, want 400 or 413", rec.Code, body)
		}
		var apiErr struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil || apiErr.Error == "" {
			t.Fatalf("status %d body %q is not a JSON error (%v)", rec.Code, rec.Body.Bytes(), err)
		}
	})
}

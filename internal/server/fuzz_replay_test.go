package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/greensku/gsf/internal/server/api"
)

// FuzzReplayRequest throws arbitrary bytes at POST /v1/replay. The
// handler must never panic and must answer only with the statuses the
// endpoint documents (200, 400 bad request, 429 shed, 503 deadline);
// every other answer carries the error envelope. Every 200 body must
// decode as an api.ReplayResponse with one outcome per requested fork,
// every outcome must account for the same VMs as the straight run
// (placed + rejected), the fork event must lie within that total, and
// the snapshot must be non-empty.
func FuzzReplayRequest(f *testing.F) {
	// One server for the whole run. MaxTraceVMs admits the default
	// workload (~8k VMs) and bounds what the fuzzer can ask for.
	s, err := New(Config{
		MaxTraceVMs:    10000,
		RequestTimeout: 10 * time.Second,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/replay", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)

		switch w.Code {
		case http.StatusOK:
			var resp api.ReplayResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body does not decode as api.ReplayResponse: %v\n%s", err, w.Body.Bytes())
			}
			var in api.ReplayRequest
			if err := json.Unmarshal(body, &in); err != nil {
				t.Fatalf("200 for a body that does not decode as api.ReplayRequest: %v\n%q", err, body)
			}
			if len(resp.Forks) != len(in.Forks) {
				t.Fatalf("%d forks answered with %d outcomes for body %q", len(in.Forks), len(resp.Forks), body)
			}
			total := resp.Straight.Placed + resp.Straight.Rejected
			for _, o := range resp.Forks {
				if got := o.Placed + o.Rejected; got != total {
					t.Fatalf("fork %q accounts for %d VMs, straight run %d, for body %q", o.Name, got, total, body)
				}
			}
			if resp.ForkEvent < 0 || resp.ForkEvent > total {
				t.Fatalf("fork event %d outside [0, %d] for body %q", resp.ForkEvent, total, body)
			}
			if resp.SnapshotBytes <= 0 {
				t.Fatalf("snapshot of %d bytes for body %q", resp.SnapshotBytes, body)
			}
		case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			var resp api.ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Error.Code == "" {
				t.Fatalf("status %d without an error envelope (%v) for body %q: %s", w.Code, err, body, w.Body.Bytes())
			}
		default:
			t.Fatalf("undocumented status %d for body %q: %s", w.Code, body, w.Body.Bytes())
		}
	})
}

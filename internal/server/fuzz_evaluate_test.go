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

// fuzzEvalServer is one server for a whole fuzz run. MaxTraceVMs admits
// the default workload (~8k VMs) and bounds what the fuzzer can ask
// for; MaxBatchItems keeps a sweep to four evaluations.
func fuzzEvalServer(f *testing.F) http.Handler {
	s, err := New(Config{
		MaxTraceVMs:    10000,
		MaxBatchItems:  4,
		RequestTimeout: 10 * time.Second,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	return s.Handler()
}

// envelopeMatches reports that e is a coded error whose stable code
// fits the documented status it was served with: 400 for bad_input,
// unknown_sku and unknown_dataset, 429 or 503 for overloaded.
func envelopeMatches(e api.Error, status int) bool {
	if e.Message == "" {
		return false
	}
	switch e.Code {
	case api.CodeBadInput, api.CodeUnknownSKU, api.CodeUnknownDataset:
		return status == http.StatusBadRequest
	case api.CodeOverloaded:
		return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
	}
	return false
}

// postFuzz serves body to POST path. A 200 is decoded into ok; any
// other answer must be a documented status (400, 429, 503) carrying
// the error envelope. It reports whether the answer was a 200.
func postFuzz(t *testing.T, h http.Handler, path string, body []byte, ok any) bool {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	switch w.Code {
	case http.StatusOK:
		if err := json.Unmarshal(w.Body.Bytes(), ok); err != nil {
			t.Fatalf("200 body does not decode as %T: %v\n%s", ok, err, w.Body.Bytes())
		}
		return true
	case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		var resp api.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || !envelopeMatches(resp.Error, w.Code) {
			t.Fatalf("status %d without a matching error envelope (%v) for body %q: %s", w.Code, err, body, w.Body.Bytes())
		}
	default:
		t.Fatalf("undocumented status %d for body %q: %s", w.Code, body, w.Body.Bytes())
	}
	return false
}

// FuzzEvaluateRequest throws arbitrary bytes at POST /v1/evaluate,
// ci_series included. The handler must never panic and must answer
// only with the documented statuses (200, 400 bad request, 429 shed,
// 503 deadline), every non-200 with the error envelope. Every 200 body
// must decode as an api.EvaluateResponse naming the SKUs it evaluated
// and a non-empty workload.
func FuzzEvaluateRequest(f *testing.F) {
	h := fuzzEvalServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var resp api.EvaluateResponse
		if !postFuzz(t, h, "/v1/evaluate", body, &resp) {
			return
		}
		if resp.Dataset == "" || resp.Green == "" || resp.Baseline == "" || resp.Workload.VMs <= 0 {
			t.Fatalf("200 with an incomplete evaluation for body %q:\n%+v", body, resp)
		}
	})
}

// FuzzSweepRequest throws arbitrary bytes at POST /v1/sweep, with the
// same status and envelope contract as FuzzEvaluateRequest. Every 200
// body must decode as an api.SweepResponse with one result per
// requested CI point; each result is either an api.EvaluateResponse or
// an in-band error carrying a documented status and a matching code.
func FuzzSweepRequest(f *testing.F) {
	h := fuzzEvalServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var resp api.SweepResponse
		if !postFuzz(t, h, "/v1/sweep", body, &resp) {
			return
		}
		var in api.SweepRequest
		if err := json.Unmarshal(body, &in); err != nil {
			t.Fatalf("200 for a body that does not decode as api.SweepRequest: %v\n%q", err, body)
		}
		if len(resp.Results) != len(in.CIs) {
			t.Fatalf("%d CI points answered with %d results for body %q", len(in.CIs), len(resp.Results), body)
		}
		for i, r := range resp.Results {
			if r.Error != nil {
				if r.OK != nil || !envelopeMatches(*r.Error, r.Status) {
					t.Fatalf("result %d: error %+v with status %d for body %q", i, *r.Error, r.Status, body)
				}
				continue
			}
			var ev api.EvaluateResponse
			if err := json.Unmarshal(r.OK, &ev); err != nil {
				t.Fatalf("result %d does not decode as api.EvaluateResponse: %v\n%s", i, err, r.OK)
			}
		}
	})
}

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/greensku/gsf/internal/server/api"
)

// FuzzCISeriesRequest throws arbitrary bytes at POST /v1/ciseries. The
// handler must never panic, must answer only with the statuses the
// endpoint documents (200, 400 bad request, 429 rate limited), and
// every 200 body must decode as an api.CISeriesResponse over at least
// one sample whose window statistics are ordered:
// trough ≤ p10 ≤ p50 ≤ p90 ≤ peak and trough ≤ mean ≤ peak.
func FuzzCISeriesRequest(f *testing.F) {
	s, err := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()

	// le is a ≤ b up to a 1e-9 relative slack, for statistics computed
	// along different float paths.
	le := func(a, b float64) bool {
		return a <= b+1e-9*math.Max(math.Abs(a), math.Abs(b))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/ciseries", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)

		switch w.Code {
		case http.StatusOK:
			var resp api.CISeriesResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 body does not decode as api.CISeriesResponse: %v\n%s", err, w.Body.Bytes())
			}
			if resp.Samples <= 0 {
				t.Fatalf("200 over %d samples:\n%s", resp.Samples, w.Body.Bytes())
			}
			trough, peak, mean := float64(resp.Trough), float64(resp.Peak), float64(resp.Mean)
			order := []float64{trough, float64(resp.P10), float64(resp.P50), float64(resp.P90), peak}
			for i := 1; i < len(order); i++ {
				if !le(order[i-1], order[i]) {
					t.Fatalf("trough/p10/p50/p90/peak out of order %v for body %q", order, body)
				}
			}
			if !le(trough, mean) || !le(mean, peak) {
				t.Fatalf("mean %v outside [%v, %v] for body %q", mean, trough, peak, body)
			}
		case http.StatusBadRequest, http.StatusTooManyRequests:
			// Documented rejections.
		default:
			t.Fatalf("undocumented status %d for body %q: %s", w.Code, body, w.Body.Bytes())
		}
	})
}

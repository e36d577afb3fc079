package server

// POST /v1/batch: many evaluation requests in one round trip. Each
// item names the single-request endpoint it targets ("percore",
// "savings", "evaluate") and carries that endpoint's fields. Items
// run on the evaluation engine bounded by the server's worker count,
// share the result cache and singleflight with the single endpoints
// (a batch item and a single request for the same computation hit the
// same cache entry), and fail independently: the response carries one
// in-band result per item, in request order, with the same error
// envelope and status mapping the single endpoints use.
//
// POST /v1/sweep: one green/baseline pair evaluated at many grid
// carbon intensities — the Fig. 11/12 sweep shape — expanded into
// evaluate items and served through the same machinery.
//
// Both endpoints stream instead of buffering when the client negotiates
// it (Accept: application/x-ndjson or text/event-stream; see
// stream.go): results are emitted in completion order with O(1)
// response buffering, which is what makes 10k-item requests safe.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"github.com/greensku/gsf/internal/engine"
	"github.com/greensku/gsf/internal/server/api"
)

// batchHeader is the response header carrying the item count;
// instrument buckets it into the "batch" metric label.
const batchHeader = api.HeaderBatchSize

// itemJob dispatches a batch item to the shared job builder for its
// kind.
func (s *Server) itemJob(it api.BatchItem) (string, func() ([]byte, error), error) {
	switch it.Kind {
	case "percore":
		return s.perCoreJob(api.PerCoreRequest{Dataset: it.Dataset, SKU: it.SKU, CI: it.CI})
	case "savings":
		return s.savingsJob(api.SavingsRequest{Dataset: it.Dataset, SKU: it.SKU, Baseline: it.Baseline, CI: it.CI})
	case "evaluate":
		return s.evaluateJob(api.EvaluateRequest{
			Dataset: it.Dataset, Green: it.Green, Baseline: it.Baseline,
			CI: it.CI, CXLBacked: it.CXLBacked, Workload: it.Workload,
		})
	default:
		return "", nil, fmt.Errorf("%w: item kind %q (want percore, savings, or evaluate)", errBadRequest, it.Kind)
	}
}

// itemEndpoint maps a batch item to the single-endpoint path and
// request payload a shard forward re-sends.
func itemEndpoint(it api.BatchItem) (string, any) {
	switch it.Kind {
	case "percore":
		return "/v1/percore", api.PerCoreRequest{Dataset: it.Dataset, SKU: it.SKU, CI: it.CI}
	case "savings":
		return "/v1/savings", api.SavingsRequest{Dataset: it.Dataset, SKU: it.SKU, Baseline: it.Baseline, CI: it.CI}
	default:
		return "/v1/evaluate", api.EvaluateRequest{
			Dataset: it.Dataset, Green: it.Green, Baseline: it.Baseline,
			CI: it.CI, CXLBacked: it.CXLBacked, Workload: it.Workload,
		}
	}
}

// itemFailure renders an item error as its in-band envelope and status.
// Errors relayed from a shard owner keep the owner's envelope verbatim.
func itemFailure(err error) (*api.Error, int) {
	var fe *forwardedError
	if errors.As(err, &fe) {
		e := fe.e
		return &e, fe.status
	}
	e := apiErrorFor(err)
	return &e, httpStatus(err)
}

// folded is an engine result in the in-band shape: a job cancelled
// before dispatch or a panic in the item is folded in like any other
// per-item failure.
func folded(res engine.Result[api.BatchResult]) api.BatchResult {
	if res.Err != nil {
		return itemResult(nil, false, res.Err)
	}
	return res.Value
}

// itemResult folds one item outcome into the in-band result shape.
func itemResult(body []byte, cached bool, err error) api.BatchResult {
	if err != nil {
		e, status := itemFailure(err)
		return api.BatchResult{Error: e, Status: status}
	}
	// Single-endpoint bodies end in a newline; strip it so the
	// embedded JSON value stays clean.
	return api.BatchResult{OK: json.RawMessage(bytes.TrimSuffix(body, []byte("\n"))), Cached: cached}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	n := len(req.Items)
	if n == 0 {
		s.writeError(w, fmt.Errorf("%w: batch needs at least one item", errBadRequest))
		return
	}
	if n > s.cfg.MaxBatchItems {
		s.writeError(w, &codedError{code: api.CodeBadInput, limit: s.cfg.MaxBatchItems,
			err: fmt.Errorf("%w: batch of %d items exceeds the limit of %d (GET /v1/limits)",
				errBadRequest, n, s.cfg.MaxBatchItems)})
		return
	}
	s.metrics.BatchItems.add(uint64(n))
	s.serveItems(w, r, req.Items, false)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	n := len(req.CIs)
	if n == 0 {
		s.writeError(w, fmt.Errorf("%w: sweep needs at least one ci point", errBadRequest))
		return
	}
	if n > s.cfg.MaxBatchItems {
		s.writeError(w, &codedError{code: api.CodeBadInput, limit: s.cfg.MaxBatchItems,
			err: fmt.Errorf("%w: sweep of %d points exceeds the limit of %d (GET /v1/limits)",
				errBadRequest, n, s.cfg.MaxBatchItems)})
		return
	}
	items := make([]api.BatchItem, n)
	for i, ci := range req.CIs {
		items[i] = api.BatchItem{
			Kind: "evaluate", Dataset: req.Dataset, Green: req.Green,
			Baseline: req.Baseline, CI: ci, CXLBacked: req.CXLBacked,
			Workload: req.Workload,
		}
	}
	s.metrics.SweepPoints.add(uint64(n))
	s.serveItems(w, r, items, true)
}

// serveItems answers a validated batch or sweep: streamed in completion
// order when the client negotiated a streaming content type, buffered
// in request order otherwise.
func (s *Server) serveItems(w http.ResponseWriter, r *http.Request, items []api.BatchItem, sweep bool) {
	n := len(items)
	item := func(ctx context.Context, i int) (api.BatchResult, error) {
		key, fn, err := s.itemJob(items[i])
		if err != nil {
			return itemResult(nil, false, err), nil
		}
		body, cached, err := s.computeItem(ctx, r, items[i], key, fn)
		return itemResult(body, cached, err), nil
	}
	if mode := streamMode(r); mode != "" {
		s.stream(w, r, mode, n, item, func(_ context.Context, errs int) any {
			return api.StreamDone{Done: true, Items: n, Errors: errs}
		})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	out := make([]api.BatchResult, n)
	for i, res := range engine.Map(ctx, s.cfg.Workers, n, item) {
		out[i] = folded(res)
	}
	w.Header().Set(batchHeader, strconv.Itoa(n))
	if sweep {
		s.writeJSON(w, api.SweepResponse{Results: out})
		return
	}
	s.writeJSON(w, api.BatchResponse{Results: out})
}

// batchBucket folds an item count into a low-cardinality label value
// for the requests counter: "" (not a batch), "1", "2-8", "9-64",
// "65+".
func batchBucket(header string) string {
	if header == "" {
		return ""
	}
	n, err := strconv.Atoi(header)
	if err != nil {
		return ""
	}
	switch {
	case n <= 1:
		return "1"
	case n <= 8:
		return "2-8"
	case n <= 64:
		return "9-64"
	default:
		return "65+"
	}
}

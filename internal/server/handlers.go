package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"github.com/greensku/gsf"
	"github.com/greensku/gsf/internal/core"
	"github.com/greensku/gsf/internal/server/api"
	"github.com/greensku/gsf/internal/trace"
	"github.com/greensku/gsf/internal/units"
)

// errBadRequest marks a client-side mistake — malformed JSON, an
// unknown SKU or dataset name, an out-of-range parameter — and maps to
// HTTP 400.
var errBadRequest = errors.New("server: bad request")

// errRateLimited marks a request shed by the per-client rate limiter;
// it maps to HTTP 429 like a full queue.
var errRateLimited = errors.New("server: rate limit exceeded")

// maxBodyBytes bounds request bodies; every request here is at most a
// few hundred kilobytes of JSON (a full 10k-item batch).
const maxBodyBytes = 8 << 20

// codedError attaches a stable wire code (api.Code*) to an error. The
// wrapped error keeps the sentinel chain intact so httpStatus still
// maps it.
type codedError struct {
	code       string
	limit      int // optional bound for limit violations
	retryAfter int // optional Retry-After seconds for 429s
	err        error
}

func (e *codedError) Error() string { return e.err.Error() }
func (e *codedError) Unwrap() error { return e.err }

// apiErrorFor renders any handler error as the wire envelope's Error
// object, deriving the stable code from the error chain.
func apiErrorFor(err error) api.Error {
	var ce *codedError
	if errors.As(err, &ce) {
		return api.Error{Code: ce.code, Message: ce.Error(), Limit: ce.limit}
	}
	code := api.CodeInternal
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, errRateLimited),
		errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		code = api.CodeOverloaded
	case errors.Is(err, core.ErrBadInput), errors.Is(err, errBadRequest):
		code = api.CodeBadInput
	}
	return api.Error{Code: code, Message: err.Error()}
}

// readBody drains the request body (bounded) so it can be decoded
// locally and, on a sharded server, re-sent verbatim to the owning
// replica.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("%w: reading request body: %v", errBadRequest, err)
	}
	return body, nil
}

// decodeStrict parses JSON into dst, rejecting unknown fields and
// trailing garbage.
func decodeStrict(data []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("%w: malformed request body: %v", errBadRequest, err)
	}
	// More reports false before a stray closing delimiter, so look for
	// the end of input instead.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: malformed request body: trailing data", errBadRequest)
	}
	return nil
}

// decodeJSON reads and strictly parses the request body into dst.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	body, err := readBody(w, r)
	if err != nil {
		return err
	}
	return decodeStrict(body, dst)
}

func (s *Server) lookupDataset(name string) (*dataset, error) {
	if name == "" {
		name = s.defaultDataset // open-source
	}
	d, ok := s.datasets[name]
	if !ok {
		return nil, &codedError{code: api.CodeUnknownDataset,
			err: fmt.Errorf("%w: dataset %q (see GET /v1/datasets)", errBadRequest, name)}
	}
	return d, nil
}

func (s *Server) lookupSKU(field, name string) (gsf.SKU, error) {
	sku, ok := s.skus[name]
	if !ok {
		return gsf.SKU{}, &codedError{code: api.CodeUnknownSKU,
			err: fmt.Errorf("%w: %s SKU %q (see GET /v1/skus)", errBadRequest, field, name)}
	}
	return sku, nil
}

// writeError sends the error envelope with the status mapped from err.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	status := httpStatus(err)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", retryAfterFor(err))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, merr := marshalBody(api.ErrorResponse{Error: apiErrorFor(err)})
	if merr != nil {
		return
	}
	w.Write(body)
}

// writeComputed sends a compute result with its cache disposition.
func (s *Server) writeComputed(w http.ResponseWriter, body []byte, cached bool) {
	w.Header().Set("Content-Type", "application/json")
	if cached {
		w.Header().Set(api.HeaderCache, "hit")
	} else {
		w.Header().Set(api.HeaderCache, "miss")
	}
	if s.ring != nil {
		w.Header().Set(api.HeaderShard, "local")
	}
	w.Write(body)
}

func marshalBody(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// fmtCI renders a carbon intensity for the canonical cache key.
func fmtCI(ci units.CarbonIntensity) string {
	return strconv.FormatFloat(float64(ci), 'g', -1, 64)
}

// postJob serves a cacheable POST endpoint: it reads the body, decodes
// it strictly as a Req, validates it into a cache key and computation
// with job, and either forwards it to the owning replica or computes
// it under the request timeout.
func postJob[Req any](s *Server, job func(Req) (string, func() ([]byte, error), error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(w, r)
		if err != nil {
			s.writeError(w, err)
			return
		}
		var req Req
		if err := decodeStrict(body, &req); err != nil {
			s.writeError(w, err)
			return
		}
		key, fn, err := job(req)
		if err != nil {
			s.writeError(w, err)
			return
		}
		if s.maybeForward(w, r, key, body) {
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		out, cached, err := s.compute(ctx, key, fn)
		if err != nil {
			s.writeError(w, err)
			return
		}
		s.writeComputed(w, out, cached)
	}
}

// --- POST /v1/percore -------------------------------------------------

// perCoreJob validates a percore request into its cache key and
// computation; shared by the single endpoint and /v1/batch so both
// populate the same cache entries.
func (s *Server) perCoreJob(req api.PerCoreRequest) (string, func() ([]byte, error), error) {
	d, err := s.lookupDataset(req.Dataset)
	if err != nil {
		return "", nil, err
	}
	sku, err := s.lookupSKU("target", req.SKU)
	if err != nil {
		return "", nil, err
	}
	ci, err := normalizeCI(req.CI, d)
	if err != nil {
		return "", nil, err
	}
	key := cacheKey("percore", d.name, sku.Name, fmtCI(ci))
	return key, func() ([]byte, error) {
		pc, err := d.model.PerCore(sku, ci)
		if err != nil {
			return nil, err
		}
		return marshalBody(api.PerCoreResponse{
			Dataset:     d.name,
			SKU:         pc.SKU,
			CI:          ci,
			Operational: pc.Operational,
			Embodied:    pc.Embodied,
			Total:       pc.Total(),
		})
	}, nil
}

func normalizeCI(ci float64, d *dataset) (units.CarbonIntensity, error) {
	if ci < 0 {
		return 0, fmt.Errorf("%w: negative carbon intensity %v", errBadRequest, ci)
	}
	if ci == 0 {
		return d.model.Data().DefaultCI, nil
	}
	return units.CarbonIntensity(ci), nil
}

// --- POST /v1/savings -------------------------------------------------

// savingsJob validates a savings request into its cache key and
// computation; shared with /v1/batch.
func (s *Server) savingsJob(req api.SavingsRequest) (string, func() ([]byte, error), error) {
	if req.Baseline == "" {
		req.Baseline = "Baseline"
	}
	d, err := s.lookupDataset(req.Dataset)
	if err != nil {
		return "", nil, err
	}
	sku, err := s.lookupSKU("target", req.SKU)
	if err != nil {
		return "", nil, err
	}
	baseline, err := s.lookupSKU("baseline", req.Baseline)
	if err != nil {
		return "", nil, err
	}
	ci, err := normalizeCI(req.CI, d)
	if err != nil {
		return "", nil, err
	}
	key := cacheKey("savings", d.name, sku.Name, baseline.Name, fmtCI(ci))
	return key, func() ([]byte, error) {
		sv, err := d.model.Savings(sku, baseline, ci)
		if err != nil {
			return nil, err
		}
		return marshalBody(api.SavingsResponse{
			Dataset:     d.name,
			SKU:         sv.SKU,
			Baseline:    baseline.Name,
			CI:          ci,
			Operational: sv.Operational,
			Embodied:    sv.Embodied,
			Total:       sv.Total,
		})
	}, nil
}

// --- POST /v1/evaluate ------------------------------------------------

// evaluateJob validates an evaluate request into its cache key and
// computation; shared with /v1/batch and /v1/sweep.
func (s *Server) evaluateJob(req api.EvaluateRequest) (string, func() ([]byte, error), error) {
	if req.Green == "" {
		req.Green = "GreenSKU-Full"
	}
	if req.Baseline == "" {
		req.Baseline = "Baseline"
	}
	d, err := s.lookupDataset(req.Dataset)
	if err != nil {
		return "", nil, err
	}
	green, err := s.lookupSKU("green", req.Green)
	if err != nil {
		return "", nil, err
	}
	baseline, err := s.lookupSKU("baseline", req.Baseline)
	if err != nil {
		return "", nil, err
	}
	ci, err := normalizeCI(req.CI, d)
	if err != nil {
		return "", nil, err
	}
	if len(req.CISeries) > 0 {
		if req.CI != 0 {
			return "", nil, fmt.Errorf("%w: both a scalar ci and a ci_series were set", errBadRequest)
		}
		sig, err := signalFromPayload("evaluate", req.CISeries, req.CIPeriodH)
		if err != nil {
			return "", nil, err
		}
		// The evaluation depends on the series only through its
		// effective CI, so resolving it here keeps the cache exact: a
		// constant series hits the same entry as its scalar twin.
		eff, err := d.model.EffectiveCI(sig)
		if err != nil {
			return "", nil, fmt.Errorf("%w: ci_series: %v", errBadRequest, err)
		}
		ci = eff
	} else if req.CIPeriodH != 0 {
		return "", nil, fmt.Errorf("%w: ci_period_h without ci_series", errBadRequest)
	}
	params, err := s.traceParams(req.Workload)
	if err != nil {
		return "", nil, err
	}
	key := cacheKey("evaluate", d.name, green.Name, baseline.Name, fmtCI(ci),
		fmt.Sprintf("%t", req.CXLBacked), params.Name,
		strconv.FormatUint(params.Seed, 10),
		strconv.FormatFloat(params.ArrivalsPerHour, 'g', -1, 64),
		strconv.FormatFloat(params.HorizonHours, 'g', -1, 64))
	return key, func() ([]byte, error) {
		tr, err := trace.Generate(params)
		if err != nil {
			return nil, err
		}
		ev, err := d.fw.Evaluate(gsf.Input{
			Green:     green,
			Baseline:  baseline,
			Workload:  tr,
			CI:        ci,
			CXLBacked: req.CXLBacked,
		})
		if err != nil {
			return nil, err
		}
		resp := api.EvaluateResponse{
			Dataset:        d.name,
			Green:          green.Name,
			Baseline:       baseline.Name,
			CI:             ci,
			PerCoreGreen:   ev.PerCoreGreen.Total(),
			PerCoreBase:    ev.PerCoreBase.Total(),
			PerCoreSavings: ev.PerCoreSavings.Total,
			ClusterSavings: ev.ClusterSavings,
			DCSavings:      ev.DCSavings,
		}
		resp.Workload.Name = params.Name
		resp.Workload.Seed = params.Seed
		resp.Workload.VMs = len(tr.VMs)
		resp.Cluster.BaselineOnly = ev.Mix.BaselineOnly
		resp.Cluster.BaseServers = ev.Buffered.Mix.NBase
		resp.Cluster.GreenServers = ev.Buffered.Mix.NGreen
		resp.Cluster.BufferServers = ev.Buffered.BufferServers
		return marshalBody(resp)
	}, nil
}

// traceParams resolves a workload spec against the generator defaults
// and bounds its cost.
func (s *Server) traceParams(spec api.WorkloadSpec) (trace.GenParams, error) {
	if spec.Name == "" {
		spec.Name = "gsfd"
	}
	p := trace.DefaultParams(spec.Name, spec.Seed)
	if spec.ArrivalsPerHour < 0 || spec.HorizonHours < 0 {
		return p, fmt.Errorf("%w: workload rates must be non-negative", errBadRequest)
	}
	if spec.ArrivalsPerHour > 0 {
		p.ArrivalsPerHour = spec.ArrivalsPerHour
	}
	if spec.HorizonHours > 0 {
		p.HorizonHours = spec.HorizonHours
	}
	if expected := p.ArrivalsPerHour * p.HorizonHours; expected > float64(s.cfg.MaxTraceVMs) {
		return p, fmt.Errorf("%w: workload of ~%.0f VMs exceeds the per-request limit of %d",
			errBadRequest, expected, s.cfg.MaxTraceVMs)
	}
	return p, nil
}

// --- GET /v1/skus, /v1/datasets, /v1/limits ---------------------------

func (s *Server) handleSKUs(w http.ResponseWriter, r *http.Request) {
	out := make([]api.SKUInfo, 0, len(s.skuOrder))
	for _, name := range s.skuOrder {
		sku := s.skus[name]
		out = append(out, api.SKUInfo{
			Name:            sku.Name,
			CPU:             sku.CPU.Name,
			Cores:           sku.Cores(),
			LocalDRAM:       sku.LocalDRAMGB(),
			CXLDRAM:         sku.CXLDRAMGB(),
			SSDTB:           sku.TotalSSDTB(),
			ReusedSSDTB:     sku.ReusedSSDTB(),
			MemoryCoreRatio: sku.MemoryCoreRatio(),
			HasCXL:          sku.HasCXL(),
		})
	}
	s.writeJSON(w, api.SKUsResponse{SKUs: out})
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	out := make([]api.DatasetInfo, 0, len(s.datasetOrder))
	for _, name := range s.datasetOrder {
		data := s.datasets[name].model.Data()
		out = append(out, api.DatasetInfo{
			Name:         data.Name,
			DefaultCI:    data.DefaultCI,
			Lifetime:     data.Lifetime,
			DerateFactor: data.DerateFactor,
			PUE:          data.PUE,
		})
	}
	s.writeJSON(w, api.DatasetsResponse{Datasets: out})
}

// handleLimits reports the server's operational limits (batch size,
// workload bound, pool shape, rate limit) so clients can size requests
// without tripping 400s.
func (s *Server) handleLimits(w http.ResponseWriter, r *http.Request) {
	resp := api.LimitsResponse{
		Workers:               s.cfg.Workers,
		QueueDepth:            s.cfg.QueueDepth,
		MaxBatchItems:         s.cfg.MaxBatchItems,
		MaxTraceVMs:           s.cfg.MaxTraceVMs,
		MaxDesignCandidates:   s.cfg.MaxDesignCandidates,
		RequestTimeoutSeconds: s.cfg.RequestTimeout.Seconds(),
		RatePerSec:            s.cfg.RatePerSec,
		RateBurst:             s.cfg.RateBurst,
		Replicas:              1,
	}
	if s.ring != nil {
		resp.Replicas = s.ring.size()
	}
	s.writeJSON(w, resp)
}

// --- POST /v1/ciseries ------------------------------------------------

// signalFromPayload builds and validates a gridci signal from request
// JSON; validation failures map to HTTP 400.
func signalFromPayload(name string, samples []api.CISample, periodH float64) (*gsf.CISignal, error) {
	sig := &gsf.CISignal{Name: name, Period: units.Hours(periodH)}
	for _, p := range samples {
		sig.Samples = append(sig.Samples, gsf.CISample{T: units.Hours(p.TH), CI: units.CarbonIntensity(p.CI)})
	}
	if err := sig.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return sig, nil
}

// handleCISeries validates a carbon-intensity timeseries and returns
// its summary statistics plus the effective CI an evaluation would
// use. Validation and a handful of interpolations are far cheaper than
// a request decode, so this runs inline, outside the worker pool.
func (s *Server) handleCISeries(w http.ResponseWriter, r *http.Request) {
	var req api.CISeriesRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if req.Name == "" {
		req.Name = "request"
	}
	d, err := s.lookupDataset(req.Dataset)
	if err != nil {
		s.writeError(w, err)
		return
	}
	sig, err := signalFromPayload(req.Name, req.Series, req.PeriodH)
	if err != nil {
		s.writeError(w, err)
		return
	}
	span := sig.Period
	if span <= 0 {
		span = sig.Samples[len(sig.Samples)-1].T
	}
	eff, err := d.model.EffectiveCI(sig)
	if err != nil {
		s.writeError(w, fmt.Errorf("%w: %v", errBadRequest, err))
		return
	}
	st := sig.Stats(0, span)
	resp := api.CISeriesResponse{
		Name:        sig.Name,
		Samples:     len(sig.Samples),
		PeriodH:     float64(sig.Period),
		Constant:    sig.IsConstant(),
		Mean:        st.Mean,
		Peak:        st.Peak,
		Trough:      st.Trough,
		P10:         sig.Percentile(0.1, 0, span),
		P50:         sig.Percentile(0.5, 0, span),
		P90:         sig.Percentile(0.9, 0, span),
		Dataset:     d.name,
		EffectiveCI: eff,
	}
	s.writeJSON(w, resp)
}

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	body, err := marshalBody(v)
	if err != nil {
		s.writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

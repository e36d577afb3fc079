// Package server implements gsfd, the GSF evaluation service: an
// HTTP daemon that answers carbon-model queries and full framework
// evaluations online instead of through one-shot CLI runs.
//
// Architecture:
//
//	handler -> result cache (LRU+TTL, exact bytes)
//	        -> singleflight (identical in-flight requests coalesce)
//	        -> bounded worker pool (queue full => 429 + Retry-After)
//	        -> gsf.Model / core.Framework (built once per dataset)
//
// Evaluations are deterministic functions of the request (dataset, SKU
// names, carbon intensity, trace seed), so the cache is exact: a hit
// returns byte-identical output. Observability is built in: a
// hand-rolled OpenMetrics /metrics endpoint, /healthz, /readyz, and
// structured request logs via log/slog.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"github.com/greensku/gsf"
	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/core"
	"github.com/greensku/gsf/internal/design"
	"github.com/greensku/gsf/internal/perf"
	"github.com/greensku/gsf/internal/queueing"
)

// Config parameterises the service. The zero value is usable: every
// field falls back to the documented default.
type Config struct {
	// Workers is the evaluation worker pool size. Default: GOMAXPROCS.
	Workers int
	// QueueDepth is the pending-request queue capacity beyond the
	// workers. A full queue sheds load with 429. Default: 64.
	QueueDepth int
	// CacheEntries bounds the result cache. Default: 1024.
	CacheEntries int
	// CacheTTL is the result lifetime. Default: 15 minutes.
	CacheTTL time.Duration
	// RequestTimeout bounds one request end to end, queueing included.
	// Default: 30 seconds.
	RequestTimeout time.Duration
	// MaxTraceVMs bounds the expected VM count of a synthetic
	// workload request (arrival rate x horizon). Default: 100000.
	MaxTraceVMs int
	// MaxBatchItems bounds the item count of one /v1/batch or /v1/sweep
	// request. Default: 256.
	MaxBatchItems int
	// MaxDesignCandidates bounds the candidate count one /v1/design
	// request may enumerate. Default: 4096.
	MaxDesignCandidates int
	// DesignSpace overrides the /v1/design candidate space. Default:
	// the design package's stock space (design.DefaultOptions).
	DesignSpace *design.Space
	// DesignPerf overrides the /v1/design performance protocol —
	// simulation budget, knee bracket. Default: design.DefaultPerfOptions.
	DesignPerf *design.PerfOptions
	// RatePerSec enables per-client rate limiting: each client's token
	// bucket refills at this rate. Zero disables the limiter (the
	// worker-queue 429 path still sheds load). Default: 0.
	RatePerSec float64
	// RateBurst is the per-client token-bucket capacity. Default when
	// limiting is on: 4x RatePerSec, minimum 1.
	RateBurst int
	// SelfURL is this replica's advertised base URL (e.g.
	// "http://10.0.0.1:8080"), required when Peers is set. Default: "".
	SelfURL string
	// Peers lists every replica's base URL (self included or not; it is
	// deduplicated). Two or more distinct members turn on consistent-hash
	// sharding of the evaluation keyspace. Default: none.
	Peers []string
	// Logger receives structured request logs. Default: slog.Default.
	Logger *slog.Logger
	// Audit, when set, threads runtime invariant checking through every
	// framework the service builds; the violation count is exported as
	// the gsfd_audit_violations gauge. Default: nil (auditing off).
	Audit *audit.Recorder
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.CacheTTL <= 0 {
		c.CacheTTL = 15 * time.Minute
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxTraceVMs <= 0 {
		c.MaxTraceVMs = 100000
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.MaxDesignCandidates <= 0 {
		c.MaxDesignCandidates = 4096
	}
	if c.RatePerSec > 0 && c.RateBurst <= 0 {
		c.RateBurst = int(4 * c.RatePerSec)
		if c.RateBurst < 1 {
			c.RateBurst = 1
		}
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// dataset is one servable carbon dataset with its models built once at
// startup (the gsf.Model handle keeps the hot path free of per-request
// dataset validation).
type dataset struct {
	name  string
	model *gsf.Model
	fw    *gsf.Framework
}

// Server is the gsfd service. Construct with New; it is safe for
// concurrent use.
type Server struct {
	cfg     Config
	log     *slog.Logger
	mux     *http.ServeMux
	metrics *Metrics

	datasets map[string]*dataset
	// datasetOrder and skuOrder are sorted by name so catalog listings
	// are deterministic; defaultDataset pins the catalog's first entry
	// (open-source) independently of that ordering.
	datasetOrder   []string
	defaultDataset string
	skus           map[string]gsf.SKU
	skuOrder       []string

	pool    *pool
	cache   *resultCache
	flight  *flightGroup
	ring    *ring    // nil when sharding is off
	limiter *limiter // nil when rate limiting is off

	inflight atomic.Int64 // compute requests currently being served
	ready    atomic.Bool

	// testHook, when set, runs at the start of every pooled
	// computation. Tests use it to hold workers busy deterministically.
	testHook func()
}

// New builds the service: validates and indexes every dataset and SKU,
// starts the worker pool, and wires the routes.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		mux:      http.NewServeMux(),
		metrics:  NewMetrics(),
		datasets: map[string]*dataset{},
		skus:     map[string]gsf.SKU{},
		pool:     newPool(cfg.Workers, cfg.QueueDepth),
		cache:    newResultCache(cfg.CacheEntries, cfg.CacheTTL),
		flight:   newFlightGroup(),
		limiter:  newLimiter(cfg.RatePerSec, cfg.RateBurst),
	}
	if len(cfg.Peers) > 0 {
		ring, err := newRing(cfg.SelfURL, cfg.Peers, cfg.RequestTimeout)
		if err != nil {
			s.pool.close()
			return nil, err
		}
		s.ring = ring
	}

	var fwOpts []gsf.Option
	if cfg.Audit != nil {
		fwOpts = append(fwOpts, gsf.WithAudit(cfg.Audit))
	}
	for _, d := range gsf.DatasetCatalog() {
		m, err := gsf.NewModel(d)
		if err != nil {
			s.pool.close()
			return nil, fmt.Errorf("server: dataset %s: %w", d.Name, err)
		}
		s.datasets[d.Name] = &dataset{name: d.Name, model: m, fw: m.Framework(fwOpts...)}
		s.datasetOrder = append(s.datasetOrder, d.Name)
	}
	s.defaultDataset = s.datasetOrder[0]
	sort.Strings(s.datasetOrder)
	for _, sku := range gsf.SKUCatalog() {
		if _, dup := s.skus[sku.Name]; !dup {
			s.skus[sku.Name] = sku
			s.skuOrder = append(s.skuOrder, sku.Name)
		}
	}
	sort.Strings(s.skuOrder)

	s.metrics.RegisterGauge("gsfd_queue_depth",
		"Evaluations waiting for a worker.", func() float64 { return float64(s.pool.depth()) })
	s.metrics.RegisterGauge("gsfd_workers_busy",
		"Workers currently running an evaluation.", func() float64 { return float64(s.pool.busyWorkers()) })
	s.metrics.RegisterGauge("gsfd_worker_utilization",
		"Busy workers as a fraction of the pool.", s.pool.utilization)
	s.metrics.RegisterGauge("gsfd_evaluations_inflight",
		"Compute requests currently being served.", func() float64 { return float64(s.inflight.Load()) })
	s.metrics.RegisterGauge("gsfd_cache_entries",
		"Entries in the result cache.", func() float64 { return float64(s.cache.len()) })
	// The SLO memo and the shared knee-search columns are process-wide,
	// so these count every lookup in the process since it started.
	s.metrics.RegisterGauge("gsfd_slo_memo_hits",
		"Process-wide SLO-memo hits.", func() float64 { h, _ := perf.SLOCacheStats(); return float64(h) })
	s.metrics.RegisterGauge("gsfd_slo_memo_misses",
		"Process-wide SLO-memo misses.", func() float64 { _, m := perf.SLOCacheStats(); return float64(m) })
	s.metrics.RegisterGauge("gsfd_knee_columns_hits",
		"Process-wide knee searches served shared random columns.",
		func() float64 { h, _ := queueing.ColumnCacheStats(); return float64(h) })
	s.metrics.RegisterGauge("gsfd_knee_columns_misses",
		"Process-wide shared knee-search column fills.",
		func() float64 { _, m := queueing.ColumnCacheStats(); return float64(m) })
	if cfg.Audit != nil {
		s.metrics.RegisterGauge("gsfd_audit_violations",
			"Invariant violations recorded since start (0 when auditing is off).",
			func() float64 { return float64(cfg.Audit.Count()) })
	}

	s.routes()
	s.ready.Store(true)
	return s, nil
}

func (s *Server) routes() {
	s.mux.Handle("POST /v1/percore", s.instrument("/v1/percore", s.limited(postJob(s, s.perCoreJob))))
	s.mux.Handle("POST /v1/savings", s.instrument("/v1/savings", s.limited(postJob(s, s.savingsJob))))
	s.mux.Handle("POST /v1/evaluate", s.instrument("/v1/evaluate", s.limited(postJob(s, s.evaluateJob))))
	s.mux.Handle("POST /v1/batch", s.instrument("/v1/batch", s.limited(s.handleBatch)))
	s.mux.Handle("POST /v1/sweep", s.instrument("/v1/sweep", s.limited(s.handleSweep)))
	s.mux.Handle("POST /v1/ciseries", s.instrument("/v1/ciseries", s.limited(s.handleCISeries)))
	s.mux.Handle("POST /v1/design", s.instrument("/v1/design", s.limited(s.handleDesign)))
	s.mux.Handle("POST /v1/replay", s.instrument("/v1/replay", s.limited(postJob(s, s.replayJob))))
	s.mux.Handle("GET /v1/skus", s.instrument("/v1/skus", s.handleSKUs))
	s.mux.Handle("GET /v1/datasets", s.instrument("/v1/datasets", s.handleDatasets))
	s.mux.Handle("GET /v1/limits", s.instrument("/v1/limits", s.handleLimits))
	s.mux.Handle("GET /metrics", s.metrics.handler())
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ready")
	})
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// AuditViolations reports the invariant violations recorded since
// start; zero when auditing is not configured.
func (s *Server) AuditViolations() int64 {
	if s.cfg.Audit == nil {
		return 0
	}
	return s.cfg.Audit.Count()
}

// SetReady flips the /readyz state; cmd/gsfd marks the server
// not-ready at the start of a graceful drain so load balancers stop
// routing to it before in-flight requests finish.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Close drains the worker pool. In-flight and queued evaluations
// complete; new submissions would panic, so stop the HTTP listener
// first.
func (s *Server) Close() { s.pool.close() }

// statusRecorder captures the response code for logs and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// Flush forwards to the underlying writer so streamed responses keep
// per-record flushing through the instrumentation wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps an endpoint with request metrics and structured
// logging under a fixed endpoint label (bounded metric cardinality).
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		elapsed := time.Since(start)
		batch := batchBucket(rec.Header().Get(batchHeader))
		s.metrics.Requests.with(endpoint, fmt.Sprintf("%d", rec.status), batch).inc()
		s.metrics.Latency.with(endpoint).observe(elapsed.Seconds())
		s.log.Info("request",
			"method", r.Method,
			"endpoint", endpoint,
			"status", rec.status,
			"duration_ms", float64(elapsed.Microseconds())/1000,
			"bytes", rec.bytes,
			"remote", r.RemoteAddr,
		)
	})
}

// cacheKey canonicalises a request into the cache/singleflight key.
// The canonical form hashes every evaluation-relevant field; requests
// that resolve to the same computation (e.g. an explicit CI equal to
// the dataset default vs. CI omitted) share a key.
func cacheKey(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cached looks key up in the result cache and counts a hit; a miss is
// left for compute to count.
func (s *Server) cached(key string) ([]byte, bool) {
	body, ok := s.cache.get(key)
	if ok {
		s.metrics.CacheHits.inc()
	}
	return body, ok
}

// compute serves one deterministic computation: result cache, then
// singleflight dedup, then the bounded pool. It returns the response
// body and whether it came from the cache.
func (s *Server) compute(ctx context.Context, key string, fn func() ([]byte, error)) ([]byte, bool, error) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	if body, ok := s.cached(key); ok {
		return body, true, nil
	}
	s.metrics.CacheMisses.inc()

	call, leader := s.flight.join(key)
	if leader {
		err := s.pool.submit(ctx, func() {
			if s.testHook != nil {
				s.testHook()
			}
			body, err := fn()
			if err == nil {
				s.cache.put(key, body)
			}
			s.flight.finish(key, call, body, err)
		})
		if err != nil {
			// Wake any followers that joined between join and here.
			s.flight.finish(key, call, nil, err)
			if errors.Is(err, ErrQueueFull) {
				s.metrics.Shed.inc()
			}
			return nil, false, err
		}
	} else {
		s.metrics.Deduplicated.inc()
	}
	body, err := call.wait(ctx)
	return body, false, err
}

// httpStatus maps a compute/validation error to a response code:
// client mistakes to 4xx, capacity to 429, deadlines to 503.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, errRateLimited):
		return http.StatusTooManyRequests
	case errors.Is(err, core.ErrBadInput), errors.Is(err, errBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

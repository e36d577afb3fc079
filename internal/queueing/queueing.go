// Package queueing implements the discrete-event simulation substrate
// behind GSF's performance component: an open-loop, FCFS, k-server queue
// with Poisson arrivals and a pluggable service-time distribution.
//
// The paper measures 95th-percentile tail latency versus offered load
// (QPS) on physical servers (Figs. 7–8); this simulator reproduces the
// same measurement protocol — sweep offered load, record latency
// percentiles, find the saturation knee — against modelled service
// times. A VM with k cores serving a request-parallel application maps
// onto a k-server queue.
//
// The kernel is built for sweep throughput: service distributions fold
// their constants once per run (Prepare), samples come from ziggurat
// fast paths, the batched event loop dispatches them over a binary
// heap of server next-free times (batch.go), latency percentiles come
// from quickselect over a pooled buffer, and the sweep APIs
// (CurveContext, TrialsContext) fan out through the shared evaluation
// engine with deterministic, index-slotted results. KneeSearch draws
// its random columns once and shares them across its probes (knee.go).
// The draws that depend on the seed alone, the unit arrival gaps and
// the normals behind a log-normal service column, are also shared
// across unaudited searches through one bounded, process-wide cache;
// each search computes only its own service column, and an audited
// search draws everything itself and checks the shared entry against
// it (batch.go). The scalar per-request loop the batched loop is
// proven against is a test-only oracle (internal/oracle).
package queueing

import (
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/engine"
	"github.com/greensku/gsf/internal/stats"
)

// Sampler draws service times with all distribution constants already
// folded; the event loop calls nothing else per request.
type Sampler interface {
	Sample(r *stats.RNG) float64
}

// ServiceDist describes a request service-time distribution in seconds.
// Sample draws one service time with the per-draw reference samplers,
// re-deriving the distribution's parameters each call. Prepare is the
// once-per-run step the simulator uses: it precomputes derived
// parameters (a log-normal's mu/sigma) and returns the ziggurat fast
// path.
type ServiceDist interface {
	Sample(r *stats.RNG) float64
	Mean() float64
	Prepare() Sampler
}

// LogNormal is a log-normal service-time distribution specified by its
// mean and coefficient of variation, the common model for request
// service times in interactive cloud services.
type LogNormal struct {
	MeanSeconds float64
	CV          float64 // stddev / mean of the service time
}

// Mean returns the distribution mean in seconds.
func (l LogNormal) Mean() float64 { return l.MeanSeconds }

// params returns the underlying normal's mu and sigma.
func (l LogNormal) params() (mu, sigma float64) {
	sigma2 := math.Log(1 + l.CV*l.CV)
	return math.Log(l.MeanSeconds) - sigma2/2, math.Sqrt(sigma2)
}

// Sample draws one service time.
func (l LogNormal) Sample(r *stats.RNG) float64 {
	if l.CV <= 0 {
		return l.MeanSeconds
	}
	mu, sigma := l.params()
	return r.LogNormal(mu, sigma)
}

// Prepare implements ServiceDist: mu and sigma are computed once here
// instead of once per sample (two logs and a square root per request on
// the old path).
func (l LogNormal) Prepare() Sampler {
	if l.CV <= 0 {
		return constSampler(l.MeanSeconds)
	}
	mu, sigma := l.params()
	return fastLogNormal{mu: mu, sigma: sigma}
}

// Exponential is an exponential (M/M/k) service-time distribution.
type Exponential struct{ MeanSeconds float64 }

// Mean returns the distribution mean in seconds.
func (e Exponential) Mean() float64 { return e.MeanSeconds }

// Sample draws one service time.
func (e Exponential) Sample(r *stats.RNG) float64 { return r.Exp(e.MeanSeconds) }

// Prepare implements ServiceDist.
func (e Exponential) Prepare() Sampler { return fastExp(e.MeanSeconds) }

type constSampler float64

func (c constSampler) Sample(*stats.RNG) float64 { return float64(c) }

type fastLogNormal struct{ mu, sigma float64 }

func (s fastLogNormal) Sample(r *stats.RNG) float64 { return r.FastLogNormal(s.mu, s.sigma) }

type fastExp float64

func (m fastExp) Sample(r *stats.RNG) float64 { return r.FastExp(float64(m)) }

// Config describes one simulation run.
type Config struct {
	Servers     int     // parallel servers (VM cores)
	ArrivalRate float64 // offered load in requests/second
	Service     ServiceDist
	Warmup      int // requests discarded before measurement
	Requests    int // measured requests
	Seed        uint64
	// Audit receives invariant violations (event-clock monotonicity,
	// service ordering, heap integrity, percentile ordering, sample
	// domain). Nil falls back to the process default (audit.SetDefault);
	// if that is also nil, checking is disabled and costs nothing.
	Audit audit.Checker
}

// Result summarises one simulation run.
type Result struct {
	Offered     float64 // configured arrival rate
	P50         float64 // seconds
	P95         float64
	P99         float64
	Mean        float64
	Utilization float64 // offered * E[S] / k
	// Saturated reports that the queue was unstable: offered load at
	// or above capacity, detected by latency growth across the run.
	Saturated bool
}

// serverHeap is a min-heap over each server's next-free time. The heap
// is fixed-size (one slot per server), so the only operation the event
// loop needs is rewriting the root and sifting it down — done with a
// typed loop rather than container/heap, whose interface-based Fix
// boxes its arguments and allocates on the hot path. The sift mirrors
// container/heap's down exactly, so equal free-times order as before.
type serverHeap []float64

func (h serverHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r] < h[l] {
			m = r
		}
		if h[i] <= h[m] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// latencyPool recycles measurement buffers across runs: a sweep that
// performs thousands of simulations would otherwise allocate (and
// garbage-collect) a Requests-sized float64 slice per run. Buffers are
// stored by pointer so Put itself does not allocate a slice header.
var latencyPool sync.Pool

// getFloats returns an empty buffer from pool with capacity at least n.
func getFloats(pool *sync.Pool, n int) *[]float64 {
	if p, _ := pool.Get().(*[]float64); p != nil {
		if cap(*p) >= n {
			*p = (*p)[:0]
			return p
		}
	}
	s := make([]float64, 0, n)
	return &s
}

// Run simulates the configured queue and returns latency statistics.
// FCFS dispatch to the earliest-free server is exact for G/G/k: each
// arrival waits until the server that frees first is idle.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: the event loop polls ctx every
// 4096 requests — cheap enough to be invisible in profiles — and
// returns the context error once observed.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	return runBatched(ctx, cfg.WithDefaults())
}

// Validate reports why cfg cannot be simulated: servers and arrival
// rate must be positive, the rate and the service mean finite.
func (cfg Config) Validate() error {
	switch {
	case cfg.Servers <= 0:
		return fmt.Errorf("queueing: servers must be positive, got %d", cfg.Servers)
	case cfg.ArrivalRate <= 0:
		return fmt.Errorf("queueing: arrival rate must be positive, got %v", cfg.ArrivalRate)
	case !finite(cfg.ArrivalRate):
		return fmt.Errorf("queueing: arrival rate must be finite, got %v", cfg.ArrivalRate)
	case cfg.Service == nil:
		return fmt.Errorf("queueing: no service distribution")
	case !finite(cfg.Service.Mean()):
		return fmt.Errorf("queueing: service mean must be finite, got %v", cfg.Service.Mean())
	}
	return nil
}

// finite reports that v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// WithDefaults returns cfg with the request counts RunContext uses
// when cfg leaves them unset: 20000 measured requests after a 10%
// warmup.
func (cfg Config) WithDefaults() Config {
	if cfg.Requests <= 0 {
		cfg.Requests = 20000
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = cfg.Requests / 10
	}
	return cfg
}

// auditHeap verifies the free-server heap still satisfies the min-heap
// property; called periodically from the event loop when auditing is on.
func auditHeap(chk audit.Checker, h serverHeap) {
	for i := 1; i < len(h); i++ {
		if parent := (i - 1) / 2; h[parent] > h[i] {
			audit.Failf(chk, "queueing", "heap-order",
				"free-server heap violated at index %d: parent %g > child %g", i, h[parent], h[i])
			return
		}
	}
}

// Capacity returns the theoretical peak throughput of k servers with
// the given service distribution: k / E[S].
func Capacity(servers int, s ServiceDist) float64 {
	return float64(servers) / s.Mean()
}

// sweepSeed derives the seed of a sweep's i-th run, the convention
// every sweep API in the repository uses (base seed plus index).
func sweepSeed(base uint64, i int) uint64 { return base + uint64(i) }

// Trials runs n independent simulations differing only in seed and
// returns the per-trial P95 values, mirroring the paper's protocol of
// three trials with 99% confidence intervals.
func Trials(cfg Config, n int) ([]float64, error) {
	return TrialsContext(context.Background(), cfg, n)
}

// TrialsContext is Trials with cancellation: trials fan out across the
// evaluation engine (deterministic, index-slotted results, so parallel
// and serial runs agree), the context cancels in-flight simulations,
// and cfg.Audit is threaded through every trial.
func TrialsContext(ctx context.Context, cfg Config, n int) ([]float64, error) {
	res := engine.Map(ctx, 0, n, func(ctx context.Context, i int) (float64, error) {
		c := cfg
		c.Seed = sweepSeed(cfg.Seed, i)
		r, err := RunContext(ctx, c)
		if err != nil {
			return 0, err
		}
		return r.P95, nil
	})
	return engine.Collect(res)
}

// CurvePoint is one point of a latency-versus-load curve.
type CurvePoint struct {
	QPS       float64
	P95       float64
	Saturated bool
}

// Curve sweeps offered load from loFrac to hiFrac of the queue's
// theoretical capacity in the given number of steps and records P95 at
// each point — the measurement behind Figs. 7 and 8.
func Curve(servers int, s ServiceDist, loFrac, hiFrac float64, steps int, seed uint64) ([]CurvePoint, error) {
	return CurveContext(context.Background(), Config{Servers: servers, Service: s, Seed: seed}, loFrac, hiFrac, steps)
}

// CurveContext is Curve with cancellation and full Config control:
// cfg supplies the queue shape, request counts, and the audit checker
// (which the plain Curve API could not thread through); cfg.ArrivalRate
// is overridden per step with the swept load. Steps fan out across the
// evaluation engine with index-slotted results, so the curve is
// identical however many workers run it.
func CurveContext(ctx context.Context, cfg Config, loFrac, hiFrac float64, steps int) ([]CurvePoint, error) {
	if steps < 2 {
		return nil, fmt.Errorf("queueing: curve needs at least 2 steps")
	}
	if cfg.Servers <= 0 || cfg.Service == nil {
		return nil, fmt.Errorf("queueing: curve needs positive servers and a service distribution")
	}
	peak := Capacity(cfg.Servers, cfg.Service)
	res := engine.Map(ctx, 0, steps, func(ctx context.Context, i int) (CurvePoint, error) {
		frac := loFrac + (hiFrac-loFrac)*float64(i)/float64(steps-1)
		c := cfg
		c.ArrivalRate = frac * peak
		c.Seed = sweepSeed(cfg.Seed, i)
		r, err := RunContext(ctx, c)
		if err != nil {
			return CurvePoint{}, err
		}
		return CurvePoint{QPS: r.Offered, P95: r.P95, Saturated: r.Saturated}, nil
	})
	return engine.Collect(res)
}

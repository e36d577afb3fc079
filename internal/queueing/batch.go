package queueing

// The batched structure-of-arrays event loop. Instead of interleaving
// one RNG draw pair with one heap operation per request, the loop fills
// whole arrival-gap and service-time vectors up front through the
// ziggurat bulk fillers and then sweeps the batch through a tight,
// allocation-free dispatch loop.
//
// Bit-identity with the scalar per-request loop (the test-only oracle
// in internal/oracle, which draws one gap and one service time per
// request through Prepare's sampler and sorts once for percentiles)
// rests on three facts, each proven by a differential test:
//
//  1. The bulk fillers interleave (gap, service) draws per request in
//     the exact scalar order — the ziggurat consumes a variable number
//     of 64-bit words per sample, so filling all gaps first would
//     permute the stream (stats.TestPairFillsMatchScalarSequence).
//  2. The server index is a multiset of next-free times with no
//     identities: any structure that extracts the exact minimum makes
//     the same dispatch decisions, so the heap here and the oracle's
//     own heap agree at every server count.
//  3. Each percentile is an interpolation of exact order statistics,
//     so the quickselect summary equals the sort-based one bit for bit
//     (stats.TestSummarizeSelectMatchesSummarize).
//
// Context polling and audit sweeps happen at batch boundaries, every
// 4096 requests. A knee search fills its batches from columns drawn
// once per search instead (see columns); the dispatch loop is the
// same.

import (
	"context"
	"math"
	"sync"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/stats"
)

// eventBatch is the SoA batch size, and so the cadence of context
// polls and audit heap sweeps.
const eventBatch = 4096

// eventBuf holds one batch of pre-sampled arrival gaps and service
// times; pooled so steady-state runs allocate nothing per batch.
type eventBuf struct {
	gaps [eventBatch]float64
	svc  [eventBatch]float64
}

var eventBufPool = sync.Pool{New: func() any { return new(eventBuf) }}

// runBatched is the default event loop behind Run/RunContext.
func runBatched(ctx context.Context, cfg Config) (Result, error) {
	chk := audit.Resolve(cfg.Audit)
	buf := getLatencyBuf(cfg.Requests)
	defer latencyPool.Put(buf)
	if err := sweep(ctx, cfg, chk, nil, buf); err != nil {
		return Result{}, err
	}
	return summarize(cfg, chk, *buf), nil
}

// columns holds one knee search's common random numbers: the
// unit-mean arrival gap and the service time of every request a probe
// simulates. Probes differ only in arrival rate, and the fillers scale
// a unit draw x into meanIA*x, so a probe's gap is meanIA*unit[i]
// (1*x == x exactly) and its service times are the column itself.
type columns struct {
	unit, svc []float64
}

// columnsPool recycles knee-search columns, stored by pointer like the
// latency buffers.
var columnsPool sync.Pool

// getColumns returns columns of length n, reusing pooled storage.
func getColumns(n int) *columns {
	c, _ := columnsPool.Get().(*columns)
	if c == nil || cap(c.unit) < n {
		c = &columns{unit: make([]float64, n), svc: make([]float64, n)}
	}
	c.unit, c.svc = c.unit[:n], c.svc[:n]
	return c
}

// drawColumns returns columns filled from cfg's seed by the same
// fillers, in the same draw order, that runBatched uses, at mean
// arrival gap 1. cfg.Requests and cfg.Warmup must hold their defaults.
func drawColumns(cfg Config) *columns {
	c := getColumns(cfg.Warmup + cfg.Requests)
	fillEvents(cfg.Service.Prepare(), stats.NewRNG(cfg.Seed), c.unit, c.svc, 1)
	return c
}

// sweep runs the dispatch loop and appends each measured request's
// latency, in arrival order, to the empty buffer *lat. With cols nil it
// draws the events from cfg.Seed batch by batch; otherwise it reads
// them from cols, scaled to cfg.ArrivalRate. Only the fill step
// differs: both feed the same dispatch loop bit-identical events.
func sweep(ctx context.Context, cfg Config, chk audit.Checker, cols *columns, lat *[]float64) error {
	var r *stats.RNG
	var sampler Sampler
	if cols == nil {
		r = stats.NewRNG(cfg.Seed)
		sampler = cfg.Service.Prepare()
	}
	latencies := (*lat)[:0]

	total := cfg.Warmup + cfg.Requests
	// All servers start free at t=0; an all-equal slice is already a
	// valid min-heap.
	free := make(serverHeap, cfg.Servers)

	eb := eventBufPool.Get().(*eventBuf)
	defer eventBufPool.Put(eb)

	now := 0.0
	meanIA := 1 / cfg.ArrivalRate
	for base := 0; base < total; base += eventBatch {
		if err := ctx.Err(); err != nil {
			return err
		}
		if chk != nil {
			auditHeap(chk, free)
		}
		n := total - base
		if n > eventBatch {
			n = eventBatch
		}
		gaps, svc := eb.gaps[:n:n], eb.svc[:n:n]
		if cols == nil {
			fillEvents(sampler, r, gaps, svc, meanIA)
		} else {
			// The product the filler computes for this gap; the
			// conversion pins its rounding so it cannot fuse.
			for k, u := range cols.unit[base : base+n] {
				gaps[k] = float64(meanIA * u)
			}
			svc = cols.svc[base : base+n : base+n]
		}
		if chk == nil {
			for k := 0; k < n; k++ {
				now += gaps[k]
				start := free[0]
				if now > start {
					start = now
				}
				done := start + svc[k]
				free[0] = done
				free.siftDown(0)
				if base+k >= cfg.Warmup {
					latencies = append(latencies, done-now)
				}
			}
		} else {
			for k := 0; k < n; k++ {
				prev := now
				now += gaps[k]
				start := free[0]
				if now > start {
					start = now
				}
				done := start + svc[k]
				auditEvent(chk, base+k, svc[k], prev, now, start, done)
				free[0] = done
				free.siftDown(0)
				if base+k >= cfg.Warmup {
					latencies = append(latencies, done-now)
				}
			}
		}
	}
	*lat = latencies
	return nil
}

// saturated reports the queue unstable: the offered load is at or
// above capacity, or the measured window's tail latency grew past
// three times its head — the signature of an unstable queue in a
// finite run. latencies must be in arrival order.
func saturated(cfg Config, latencies []float64) bool {
	q := len(latencies) / 4
	if q == 0 {
		return false
	}
	head := stats.Mean(latencies[:q])
	tail := stats.Mean(latencies[len(latencies)-q:])
	return utilization(cfg) >= 1 || tail > 3*head
}

// utilization is the offered load over capacity: offered * E[S] / k.
func utilization(cfg Config) float64 {
	return cfg.ArrivalRate * cfg.Service.Mean() / float64(cfg.Servers)
}

// summarize computes a run's Result from its arrival-order latencies,
// reading the saturation signal before SummarizeSelect partitions the
// buffer in place.
func summarize(cfg Config, chk audit.Checker, latencies []float64) Result {
	sat := saturated(cfg, latencies)
	sum := stats.SummarizeSelect(latencies)
	res := Result{
		Offered:     cfg.ArrivalRate,
		P50:         sum.P50,
		P95:         sum.P95,
		P99:         sum.P99,
		Mean:        sum.Mean,
		Utilization: utilization(cfg),
		Saturated:   sat,
	}
	if chk != nil {
		if !(res.P50 <= res.P95+audit.SimTol) || !(res.P95 <= res.P99+audit.SimTol) {
			audit.Failf(chk, "queueing", "percentile-order",
				"latency percentiles unordered: P50=%g P95=%g P99=%g", res.P50, res.P95, res.P99)
		}
	}
	return res
}

// fillEvents fills one batch of arrival gaps and service times,
// consuming the RNG in exactly the scalar per-request order: one
// r.FastExp(meanIA) gap, then one sampler draw, per request.
func fillEvents(sampler Sampler, r *stats.RNG, gaps, svc []float64, meanIA float64) {
	switch s := sampler.(type) {
	case fastLogNormal:
		r.FillExpLogNormal(gaps, meanIA, svc, s.mu, s.sigma)
	case fastExp:
		r.FillExpExp(gaps, meanIA, svc, float64(s))
	case constSampler:
		// Constant service draws nothing, so a plain gap fill is
		// already in scalar draw order.
		r.FillExp(gaps, meanIA)
		c := float64(s)
		for k := range svc {
			svc[k] = c
		}
	default:
		for k := range gaps {
			gaps[k] = r.FastExp(meanIA)
			svc[k] = s.Sample(r)
		}
	}
}

// auditEvent checks one dispatched request: samples must stay in the
// distributions' domain (a broken fast sampler would surface here), the
// event clock may only move forward, a request may not start before it
// arrives or complete before it starts, and its latency includes at
// least its own service time.
func auditEvent(chk audit.Checker, i int, s, prev, now, start, done float64) {
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		audit.Failf(chk, "queueing", "sample-domain",
			"service sample %g outside [0, inf) at request %d", s, i)
	}
	if now < prev || math.IsNaN(now) {
		audit.Failf(chk, "queueing", "clock-monotonicity",
			"arrival clock moved backwards: %g -> %g at request %d", prev, now, i)
	}
	if start < now {
		audit.Failf(chk, "queueing", "start-before-arrival",
			"request %d started at %g before arrival %g", i, start, now)
	}
	if done < start {
		audit.Failf(chk, "queueing", "completion-before-start",
			"request %d completed at %g before start %g", i, done, start)
	}
	if lat := done - now; lat < s-audit.SimTol {
		audit.Failf(chk, "queueing", "latency-below-service",
			"request %d latency %g below service time %g", i, lat, s)
	}
}

package queueing

// The batched structure-of-arrays event loop. Instead of interleaving
// one RNG draw pair with one heap operation per request, the loop fills
// whole arrival-gap and service-time vectors up front through the
// ziggurat bulk fillers and then sweeps the batch through a tight,
// allocation-free dispatch loop.
//
// Bit-identity with the scalar reference loop (Config.ReferenceEventLoop)
// rests on three facts, each proven by a differential test:
//
//  1. The bulk fillers interleave (gap, service) draws per request in
//     the exact scalar order — the ziggurat consumes a variable number
//     of 64-bit words per sample, so filling all gaps first would
//     permute the stream (stats.TestPairFillsMatchScalarSequence).
//  2. The server index is a multiset of next-free times with no
//     identities: the heap and the calendar queue extract the same
//     minimum values, so dispatch decisions are identical.
//  3. Each percentile is an interpolation of exact order statistics,
//     so the quickselect summary equals the sort-based one bit for bit
//     (stats.TestSummarizeSelectMatchesSummarize).
//
// Context polling and audit sweeps happen at batch boundaries — the
// same i&4095 == 0 cadence the scalar loop uses. A knee search fills
// its batches from columns drawn once per search instead (see
// columns); the dispatch loops are the same.

import (
	"context"
	"math"
	"sync"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/stats"
)

// eventBatch is the SoA batch size. It matches the scalar loop's
// context-poll cadence (i&4095 == 0) so batching changes neither the
// cancellation latency nor the audit sweep frequency.
const eventBatch = 4096

// calendarMinServers is the server count at which the batched loop
// switches its next-free index from the binary heap to the calendar
// queue. Below it the heap's few cache-hot sift levels win; from here
// up the calendar's O(1) amortized extract-min does (measured
// crossover between 16 and 32 servers; see BenchmarkServerIndex in
// batch_test.go).
const calendarMinServers = 64

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
	fillEvents(cfg, cfg.Service.Prepare(false), stats.NewRNG(cfg.Seed), c.unit, c.svc, 1)
	return c
}

// sweep runs the dispatch loop and appends each measured request's
// latency, in arrival order, to the empty buffer *lat. With cols nil it
// draws the events from cfg.Seed batch by batch; otherwise it reads
// them from cols, scaled to cfg.ArrivalRate. Only the fill step
// differs: both feed the same dispatch loops bit-identical events.
func sweep(ctx context.Context, cfg Config, chk audit.Checker, cols *columns, lat *[]float64) error {
	var r *stats.RNG
	var sampler Sampler
	if cols == nil {
		r = stats.NewRNG(cfg.Seed)
		if !cfg.ReferenceSampling {
			sampler = cfg.Service.Prepare(false)
		}
	}
	latencies := (*lat)[:0]

	total := cfg.Warmup + cfg.Requests
	var free serverHeap
	var cal *calendarQueue
	if cfg.Servers >= calendarMinServers {
		cal = newCalendarQueue(cfg.Servers, calendarSpan(cfg), cfg.ArrivalRate, total)
	} else {
		free = make(serverHeap, cfg.Servers)
	}

	eb := eventBufPool.Get().(*eventBuf)
	defer eventBufPool.Put(eb)

	now := 0.0
	meanIA := 1 / cfg.ArrivalRate
	for base := 0; base < total; base += eventBatch {
		if err := ctx.Err(); err != nil {
			return err
		}
		if chk != nil {
			if cal != nil {
				auditCalendar(chk, cal, cfg.Servers)
			} else {
				auditHeap(chk, free)
			}
		}
		n := total - base
		if n > eventBatch {
			n = eventBatch
		}
		gaps, svc := eb.gaps[:n:n], eb.svc[:n:n]
		if cols == nil {
			fillEvents(cfg, sampler, r, gaps, svc, meanIA)
		} else {
			// The product the filler computes for this gap; the
			// conversion pins its rounding so it cannot fuse.
			for k, u := range cols.unit[base : base+n] {
				gaps[k] = float64(meanIA * u)
			}
			svc = cols.svc[base : base+n : base+n]
		}
		switch {
		case chk == nil && cal != nil:
			for k := 0; k < n; k++ {
				now += gaps[k]
				start := cal.next()
				if now > start {
					start = now
				}
				done := start + svc[k]
				cal.replace(done)
				if base+k >= cfg.Warmup {
					latencies = append(latencies, done-now)
				}
			}
		case chk == nil:
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
		case cal != nil:
			for k := 0; k < n; k++ {
				prev := now
				now += gaps[k]
				start := cal.next()
				if now > start {
					start = now
				}
				done := start + svc[k]
				auditEvent(chk, base+k, svc[k], prev, now, start, done)
				cal.replace(done)
				if base+k >= cfg.Warmup {
					latencies = append(latencies, done-now)
				}
			}
		default:
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
// buffer in place, exactly as the scalar loop reads it before
// Summarize sorts.
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
// consuming the RNG in exactly the scalar loop's per-request order.
func fillEvents(cfg Config, sampler Sampler, r *stats.RNG, gaps, svc []float64, meanIA float64) {
	if cfg.ReferenceSampling {
		// Reference draw order: one reference Exp then one reference
		// service sample per request, parameters re-derived per sample.
		for k := range gaps {
			gaps[k] = r.Exp(meanIA)
			svc[k] = cfg.Service.Sample(r)
		}
		return
	}
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

// auditEvent applies the scalar loop's per-request invariants to one
// batched event, with identical check order and messages.
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

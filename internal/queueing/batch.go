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
// once per search, or partly shared across searches (see columns);
// the dispatch loop is the same.

import (
	"context"
	"math"
	"strconv"
	"sync"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/engine"
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
	buf := getFloats(&latencyPool, cfg.Requests)
	defer latencyPool.Put(buf)
	if err := sweep(ctx, cfg, chk, nil, make(serverHeap, cfg.Servers), buf); err != nil {
		return Result{}, err
	}
	return summarize(cfg, chk, *buf), nil
}

// columns holds one knee search's common random numbers: the
// unit-mean arrival gap and the service time of every request a probe
// simulates. Probes differ only in arrival rate, and the fillers scale
// a unit draw x into meanIA*x, so a probe's gap is meanIA*unit[i]
// (1*x == x exactly) and its service times are the column itself.
//
// The service column is always the search's own. The gap column is
// too, except where the search reads the shared draws (see
// sharedColumns): there unit aliases the shared gaps, which no search
// writes.
type columns struct {
	unit, svc []float64
	// own is the pooled storage behind svc and, unless it is shared,
	// unit.
	own [2]*[]float64
}

// release returns the columns' own storage to columnPool.
func (c *columns) release() {
	for _, b := range c.own {
		if b != nil {
			columnPool.Put(b)
		}
	}
}

// columnPool recycles the columns a search owns, stored by pointer
// like the latency buffers.
var columnPool sync.Pool

// The draws of a knee search that depend on its seed and event count
// alone, the unit arrival gaps and the standard normals behind a
// log-normal service column, are the same for every search on that
// seed, whatever its service mean, CV, server count or bracket. An
// unaudited log-normal search therefore takes them from one bounded,
// process-wide cache and computes only its own service column from
// the normals, through the helper FillExpLogNormal itself uses, so its
// columns equal a fresh draw bit for bit. An audited search draws its
// own columns and, when the cache holds its seed's entry, compares the
// two and records queueing/shared-columns on any difference: an
// audited recompute is never served by the state it checks. Other
// service distributions draw per search.
const (
	// sharedColumnEntries bounds the seeds the cache retains at once.
	sharedColumnEntries = 4
	// maxSharedEvents bounds one entry to 16 bytes per event, 2 MiB;
	// longer searches draw per search.
	maxSharedEvents = 1 << 17
)

// sharedDraws is one retained entry. Its slices are never written
// after the fill and never returned to a pool.
type sharedDraws struct{ unit, norm []float64 }

var sharedColumns = engine.NewCache[sharedDraws](sharedColumnEntries)

// ColumnCacheStats reports the shared knee-search column cache's
// cumulative hits and misses.
func ColumnCacheStats() (hits, misses int64) { return sharedColumns.Stats() }

func sharedKey(seed uint64, n int) string {
	var b [48]byte
	k := strconv.AppendUint(b[:0], seed, 10)
	k = append(k, '/')
	return string(strconv.AppendInt(k, int64(n), 10))
}

// sharedDrawsFor returns the shared draws of n events from seed,
// filling them once however many searches ask at the same time.
func sharedDrawsFor(seed uint64, n int) sharedDraws {
	// The fill cannot fail, so Do returns no error.
	d, _ := sharedColumns.Do(sharedKey(seed, n), func() (sharedDraws, error) {
		buf := make([]float64, 2*n)
		d := sharedDraws{unit: buf[:n:n], norm: buf[n:]}
		stats.NewRNG(seed).FillExpNormal(d.unit, d.norm)
		return d, nil
	})
	return d
}

// drawColumns returns columns of cfg.Warmup+cfg.Requests events from
// cfg's seed, at mean arrival gap 1, equal to what runBatched's fillers
// draw in the same order; the caller releases them. cfg.Requests and
// cfg.Warmup must hold their defaults.
func drawColumns(cfg Config, chk audit.Checker) columns {
	n := cfg.Warmup + cfg.Requests
	var cols columns
	cols.own[0] = getFloats(&columnPool, n)
	cols.svc = (*cols.own[0])[:n]
	sampler := cfg.Service.Prepare()
	ln, logNormal := sampler.(fastLogNormal)
	if logNormal && chk == nil && n <= maxSharedEvents {
		d := sharedDrawsFor(cfg.Seed, n)
		for i, y := range d.norm {
			cols.svc[i] = stats.LogNormalAt(ln.mu, ln.sigma, y)
		}
		cols.unit = d.unit
		return cols
	}
	cols.own[1] = getFloats(&columnPool, n)
	cols.unit = (*cols.own[1])[:n]
	fillEvents(sampler, stats.NewRNG(cfg.Seed), cols.unit, cols.svc, 1)
	if logNormal && chk != nil {
		auditSharedColumns(chk, cfg.Seed, ln, cols)
	}
	return cols
}

// auditSharedColumns compares an audited search's own columns with the
// shared entry for its seed, if the cache retains one.
func auditSharedColumns(chk audit.Checker, seed uint64, ln fastLogNormal, cols columns) {
	d, ok := sharedColumns.Peek(sharedKey(seed, len(cols.unit)))
	if !ok {
		return
	}
	for i, u := range cols.unit {
		if d.unit[i] != u || stats.LogNormalAt(ln.mu, ln.sigma, d.norm[i]) != cols.svc[i] {
			audit.Failf(chk, "queueing", "shared-columns",
				"seed %d: shared draws differ from a fresh draw at event %d", seed, i)
			return
		}
	}
}

// sweep runs the dispatch loop over free, a heap with one slot per
// server that it first resets, and appends each measured request's
// latency, in arrival order, to the empty buffer *lat. With cols nil it
// draws the events from cfg.Seed batch by batch; otherwise it reads
// them from cols, scaled to cfg.ArrivalRate. Only the fill step
// differs: both feed the same dispatch loop bit-identical events.
func sweep(ctx context.Context, cfg Config, chk audit.Checker, cols *columns, free serverHeap, lat *[]float64) error {
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
	clear(free)

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

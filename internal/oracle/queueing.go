package oracle

// The queueing oracle is the scalar per-request event loop that
// internal/queueing's batched structure-of-arrays loop replaced: per
// request, draw one arrival gap and one service time, dispatch to the
// server that frees first, and record the latency; then sort for the
// percentiles. It runs with one of two samplers. FastSampler draws
// through the ziggurat samplers queueing.ServiceDist.Prepare returns,
// in the order the batched loop's pair fillers reproduce, so its
// Results equal queueing.RunContext's bit for bit. ReferenceSampler is
// the original kernel: r.Exp gaps, ServiceDist.Sample service times
// (parameters re-derived per draw), and one copy-and-sort per
// percentile. It draws a different stream, so it agrees with the
// production kernel only statistically.
//
// KneeSearch is the per-probe, floor-first knee search: every probe is
// a whole FastSampler run, where queueing.KneeSearch probes the bracket
// top first, shares one set of random columns across its probes and
// selects one P95 at the end.

import (
	"context"

	"github.com/greensku/gsf/internal/queueing"
	"github.com/greensku/gsf/internal/stats"
)

// Sampler selects how the queueing oracle draws and summarises.
type Sampler int

const (
	// FastSampler draws through ServiceDist.Prepare's ziggurat sampler
	// and r.FastExp gaps, and summarises with one sort.
	FastSampler Sampler = iota
	// ReferenceSampler draws through ServiceDist.Sample and r.Exp
	// gaps, and sorts a copy of the latencies once per percentile.
	ReferenceSampler
)

// Run simulates cfg's queue with the scalar loop, validating and
// defaulting cfg as queueing.RunContext does. cfg.Audit is ignored:
// the oracle checks nothing, it is what gets checked against.
func (s Sampler) Run(ctx context.Context, cfg queueing.Config) (queueing.Result, error) {
	if err := cfg.Validate(); err != nil {
		return queueing.Result{}, err
	}
	cfg = cfg.WithDefaults()

	r := stats.NewRNG(cfg.Seed)
	meanIA := 1 / cfg.ArrivalRate
	gap := func() float64 { return r.FastExp(meanIA) }
	service := cfg.Service.Prepare().Sample
	if s == ReferenceSampler {
		gap = func() float64 { return r.Exp(meanIA) }
		service = cfg.Service.Sample
	}

	// All servers start free at t=0.
	free := make(freeHeap, cfg.Servers)
	latencies := make([]float64, 0, cfg.Requests)
	now := 0.0
	for i := 0; i < cfg.Warmup+cfg.Requests; i++ {
		if i&4095 == 0 {
			if err := ctx.Err(); err != nil {
				return queueing.Result{}, err
			}
		}
		now += gap()
		svc := service(r)
		start := now
		if free[0] > start {
			start = free[0]
		}
		done := start + svc
		free.replaceMin(done)
		if i >= cfg.Warmup {
			latencies = append(latencies, done-now)
		}
	}

	res := queueing.Result{
		Offered:     cfg.ArrivalRate,
		Utilization: cfg.ArrivalRate * cfg.Service.Mean() / float64(cfg.Servers),
	}
	// Saturation: the measured window's tail grows past three times
	// its head, the signature of an unstable queue in a finite run.
	// Read in arrival order, before the summary sorts the buffer.
	if q := len(latencies) / 4; q > 0 {
		head := stats.Mean(latencies[:q])
		tail := stats.Mean(latencies[len(latencies)-q:])
		res.Saturated = res.Utilization >= 1 || tail > 3*head
	}
	if s == ReferenceSampler {
		res.P50 = stats.Percentile(latencies, 50)
		res.P95 = stats.Percentile(latencies, 95)
		res.P99 = stats.Percentile(latencies, 99)
		res.Mean = stats.Mean(latencies)
	} else {
		sum := stats.Summarize(latencies)
		res.P50, res.P95, res.P99, res.Mean = sum.P50, sum.P95, sum.P99, sum.Mean
	}
	return res, nil
}

// freeHeap is a min-heap of server next-free times. The loop only ever
// rewrites the root, so the one operation is replace-then-sift-down.
type freeHeap []float64

func (h freeHeap) replaceMin(v float64) {
	h[0] = v
	for i := 0; ; {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r] < h[m] {
			m = r
		}
		if h[i] <= h[m] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// KneeSearch is the floor-first reference for queueing.KneeSearch,
// with every probe a whole FastSampler run: evaluate the bracket floor,
// then its top, then bisect until the bracket is no wider than tolFrac
// or its midpoint rounds onto an endpoint. queueing.KneeSearch probes
// the top first and returns the same Knee but for Evals. It takes the
// arguments as valid (a service
// distribution, finite 0 < loFrac < hiFrac, tolFrac > 0); checking
// them is queueing.KneeSearch's job.
func KneeSearch(ctx context.Context, cfg queueing.Config, loFrac, hiFrac, tolFrac float64) (queueing.Knee, error) {
	peak := queueing.Capacity(cfg.Servers, cfg.Service)
	var k queueing.Knee
	eval := func(frac float64) (queueing.Result, error) {
		c := cfg
		c.ArrivalRate = frac * peak
		k.Evals++
		return FastSampler.Run(ctx, c)
	}

	lo, err := eval(loFrac)
	if err != nil {
		return queueing.Knee{}, err
	}
	if lo.Saturated {
		// The whole bracket is past the knee; report its lower edge.
		k.Found = true
		k.KneeFrac, k.KneeQPS = loFrac, lo.Offered
		return k, nil
	}
	k.StableFrac, k.StableQPS, k.StableP95 = loFrac, lo.Offered, lo.P95
	hi, err := eval(hiFrac)
	if err != nil {
		return queueing.Knee{}, err
	}
	if !hi.Saturated {
		// Still stable at the top of the bracket: no knee inside.
		k.StableFrac, k.StableQPS, k.StableP95 = hiFrac, hi.Offered, hi.P95
		return k, nil
	}
	k.Found = true
	k.KneeFrac, k.KneeQPS = hiFrac, hi.Offered

	loF, hiF := loFrac, hiFrac
	for hiF-loF > tolFrac {
		mid := loF + (hiF-loF)/2
		if mid == loF || mid == hiF {
			break
		}
		res, err := eval(mid)
		if err != nil {
			return queueing.Knee{}, err
		}
		if res.Saturated {
			hiF = mid
			k.KneeFrac, k.KneeQPS = mid, res.Offered
		} else {
			loF = mid
			k.StableFrac, k.StableQPS, k.StableP95 = mid, res.Offered, res.P95
		}
	}
	return k, nil
}

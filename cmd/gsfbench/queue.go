package main

// The queue suite: the Table III profiling sweep over the green-SKU
// catalog, timed through three arms that must produce identical factor
// matrices. The batch arm is the production kernel,
// perf.TableIIIContext (batched event loop, SLO memo, parallel cells).
// The other two run internal/oracle's scalar loop through tableIII
// below, a restatement of perf's per-cell scaling loop: the fast arm
// with the oracle's fast sampler, memoized and parallel like the batch
// arm; the reference arm with its reference sampler, serial and
// unmemoized, approximating the pre-optimization kernel. The suite also
// times the adaptive knee search and the Figs. 7–8 saturation curve. It
// lives here rather than in internal/experiments so that no production
// package imports the oracle.

import (
	"context"
	"fmt"
	"math"
	"time"

	"github.com/greensku/gsf/internal/apps"
	"github.com/greensku/gsf/internal/engine"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/oracle"
	"github.com/greensku/gsf/internal/perf"
	"github.com/greensku/gsf/internal/queueing"
)

// kneeBenchResult measures the adaptive knee search against the
// fixed-step sweep it replaces.
type kneeBenchResult struct {
	Servers        int     `json:"servers"`
	KneeFrac       float64 `json:"knee_frac"`
	Evals          int     `json:"evals"`
	FixedStepEvals int     `json:"fixed_step_evals"`
	Seconds        float64 `json:"seconds"`
}

// queueKernelBenchResult is the queue suite's measurement.
type queueKernelBenchResult struct {
	SKUs             []string `json:"skus"`
	Cells            int      `json:"cells"`
	Requests         int      `json:"requests"`
	BatchSeconds     float64  `json:"batch_seconds"`
	FastSeconds      float64  `json:"fast_seconds"`
	ReferenceSeconds float64  `json:"reference_seconds"`
	// BatchSpeedup is fast/batch: what the batched event loop buys
	// over the scalar loop with the same samplers. Speedup is
	// reference/fast, what the fast samplers and single-sort summary
	// buy, and CumulativeSpeedup is reference/batch.
	BatchSpeedup      float64          `json:"batch_speedup"`
	Speedup           float64          `json:"speedup"`
	CumulativeSpeedup float64          `json:"cumulative_speedup"`
	FactorsIdentical  bool             `json:"factors_identical"`
	SLOCacheHits      int64            `json:"slo_cache_hits"`
	SLOCacheMisses    int64            `json:"slo_cache_misses"`
	Knee              kneeBenchResult  `json:"knee"`
	Curve             curveBenchResult `json:"curve"`
}

// curveBenchResult times the queueing saturation curve behind
// Figs. 7–8.
type curveBenchResult struct {
	Servers int          `json:"servers"`
	Steps   int          `json:"steps"`
	Seconds float64      `json:"seconds"`
	Points  []curvePoint `json:"points"`
}

// curvePoint is one measured point of the saturation curve.
type curvePoint struct {
	QPS       float64 `json:"qps"`
	P95       float64 `json:"p95_seconds"`
	Saturated bool    `json:"saturated"`
}

// The saturation curve's queue parallelism and load points.
const curveServers, curveSteps = 64, 8

// factorMatrix is one green SKU's Table III: app → generation → factor.
type factorMatrix = map[string]map[int]perf.Factor

// runFunc simulates one queue configuration.
type runFunc func(context.Context, queueing.Config) (queueing.Result, error)

// sloPoint is a baseline's SLO measurement: P95 at the SLO load.
type sloPoint struct{ p95, load float64 }

// tableIII restates perf.TableIIIContext's per-cell scaling loop over
// run: every app against every baseline generation, cells fanned out
// over opt.Workers. A latency-critical cell measures the baseline's SLO
// point (through slo when it is non-nil), then takes the smallest core
// step inside the capacity band whose P95 at the SLO load is stable and
// within the slack. Throughput cells simulate nothing, so they come
// from perf directly. On the production kernel the matrix equals
// perf.TableIIIContext's (TestTableIIIRestatementMatchesPerf).
func tableIII(ctx context.Context, green hw.SKU, opt perf.Options, run runFunc, slo *engine.Cache[sloPoint]) (factorMatrix, error) {
	simulate := func(ctx context.Context, cores int, load float64, s queueing.LogNormal) (queueing.Result, error) {
		return run(ctx, queueing.Config{Servers: cores, ArrivalRate: load, Service: s, Requests: opt.Requests, Seed: opt.Seed})
	}
	measureSLO := func(ctx context.Context, a apps.App, baseline hw.SKU) (sloPoint, error) {
		s := queueing.LogNormal{MeanSeconds: perf.ServiceTime(a, perf.ProfileOf(baseline, false)), CV: a.CV}
		load := opt.LoadFraction * queueing.Capacity(opt.BaselineCores, s)
		res, err := simulate(ctx, opt.BaselineCores, load, s)
		return sloPoint{p95: res.P95, load: load}, err
	}
	cell := func(ctx context.Context, a apps.App, baseline hw.SKU) (perf.Factor, error) {
		if !a.LatencyCritical {
			return perf.ScalingFactorContext(ctx, a, green, baseline, false, opt)
		}
		var pt sloPoint
		var err error
		if slo != nil {
			pt, err = slo.Do(a.Name+"|"+baseline.Name, func() (sloPoint, error) { return measureSLO(ctx, a, baseline) })
		} else {
			pt, err = measureSLO(ctx, a, baseline)
		}
		if err != nil {
			return perf.Factor{}, err
		}
		f := perf.Factor{App: a.Name, Baseline: baseline.Name, Value: math.Inf(1)}
		slow := perf.Slowdown(a, perf.ProfileOf(green, false), perf.ProfileOf(baseline, false))
		s := queueing.LogNormal{MeanSeconds: perf.ServiceTime(a, perf.ProfileOf(green, false)), CV: a.CV}
		for _, cores := range opt.CoreSteps {
			scale := float64(cores) / float64(opt.BaselineCores)
			if slow > opt.CapacityBand*scale {
				continue
			}
			res, err := simulate(ctx, cores, pt.load, s)
			if err != nil {
				return perf.Factor{}, err
			}
			if !res.Saturated && res.P95 <= pt.p95*opt.SLOSlack {
				f.Value, f.Adoptable = scale, true
				break
			}
		}
		return f, nil
	}

	all := apps.All()
	factors, err := engine.Collect(engine.Map(ctx, opt.Workers, len(all)*3, func(ctx context.Context, i int) (perf.Factor, error) {
		return cell(ctx, all[i/3], hw.BaselineForGeneration(i%3+1))
	}))
	if err != nil {
		return nil, err
	}
	out := factorMatrix{}
	for i, f := range factors {
		name := all[i/3].Name
		if out[name] == nil {
			out[name] = map[int]perf.Factor{}
		}
		out[name][i%3+1] = f
	}
	return out, nil
}

// queueKernelBench profiles every green SKU in the catalog against all
// three baseline generations (the Table III protocol) once per arm and
// checks the three factor matrices are identical: the fast samplers
// may change latencies in distribution, but they must never flip a
// factor bin. (The batch and fast arms are in fact bit-identical; the
// queueing walls prove that stronger property.) requests <= 0 keeps
// the paper protocol's default; seed 0 keeps its seed.
func queueKernelBench(ctx context.Context, requests int, seed uint64) (queueKernelBenchResult, error) {
	greens := []hw.SKU{hw.GreenSKUEfficient(), hw.GreenSKUCXL(), hw.GreenSKUFull()}
	popt := perf.DefaultOptions()
	if requests > 0 {
		popt.Requests = requests
	}
	if seed != 0 {
		popt.Seed = seed
	}
	res := queueKernelBenchResult{Requests: popt.Requests, FactorsIdentical: true}

	sweep := func(table func(hw.SKU) (factorMatrix, error)) ([]factorMatrix, float64, error) {
		out := make([]factorMatrix, 0, len(greens))
		start := time.Now()
		for _, g := range greens {
			m, err := table(g)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, m)
		}
		return out, time.Since(start).Seconds(), nil
	}

	perf.ResetSLOCache()
	batch, batchSec, err := sweep(func(g hw.SKU) (factorMatrix, error) { return perf.TableIIIContext(ctx, g, popt) })
	if err != nil {
		return queueKernelBenchResult{}, err
	}
	res.SLOCacheHits, res.SLOCacheMisses = perf.SLOCacheStats()

	memo := engine.NewCache[sloPoint](perf.DefaultSLOCacheEntries)
	fast, fastSec, err := sweep(func(g hw.SKU) (factorMatrix, error) {
		return tableIII(ctx, g, popt, oracle.FastSampler.Run, memo)
	})
	if err != nil {
		return queueKernelBenchResult{}, err
	}

	serial := popt
	serial.Workers = 1
	reference, refSec, err := sweep(func(g hw.SKU) (factorMatrix, error) {
		return tableIII(ctx, g, serial, oracle.ReferenceSampler.Run, nil)
	})
	if err != nil {
		return queueKernelBenchResult{}, err
	}

	res.BatchSeconds, res.FastSeconds, res.ReferenceSeconds = batchSec, fastSec, refSec
	if batchSec > 0 {
		res.BatchSpeedup = fastSec / batchSec
		res.CumulativeSpeedup = refSec / batchSec
	}
	if fastSec > 0 {
		res.Speedup = refSec / fastSec
	}
	for i, g := range greens {
		res.SKUs = append(res.SKUs, g.Name)
		for app, gens := range batch[i] {
			res.Cells += len(gens)
			for gen, f := range gens {
				if fast[i][app][gen] != f || reference[i][app][gen] != f {
					res.FactorsIdentical = false
				}
			}
		}
	}

	// Knee search versus the fixed-step sweep at the same resolution.
	const loFrac, hiFrac, tolFrac = 0.5, 1.2, 0.01
	kcfg := queueing.Config{
		Servers:  64,
		Service:  queueing.LogNormal{MeanSeconds: 0.005, CV: 1.5},
		Requests: popt.Requests,
		Seed:     popt.Seed,
	}
	start := time.Now()
	knee, err := queueing.KneeSearch(ctx, kcfg, loFrac, hiFrac, tolFrac)
	if err != nil {
		return queueKernelBenchResult{}, err
	}
	res.Knee = kneeBenchResult{
		Servers:        kcfg.Servers,
		KneeFrac:       knee.KneeFrac,
		Evals:          knee.Evals,
		FixedStepEvals: int((hiFrac - loFrac) / tolFrac),
		Seconds:        time.Since(start).Seconds(),
	}
	return res, nil
}

// curveBench sweeps offered load from half to past the queue's
// theoretical capacity in steps points (the Figs. 7–8 protocol) and
// times the sweep.
func curveBench(steps int, seed uint64) (curveBenchResult, error) {
	start := time.Now()
	pts, err := queueing.Curve(curveServers, queueing.LogNormal{MeanSeconds: 0.005, CV: 1.5}, 0.5, 1.1, steps, seed)
	if err != nil {
		return curveBenchResult{}, err
	}
	res := curveBenchResult{Servers: curveServers, Steps: steps, Seconds: time.Since(start).Seconds()}
	for _, p := range pts {
		res.Points = append(res.Points, curvePoint{QPS: p.QPS, P95: p.P95, Saturated: p.Saturated})
	}
	return res, nil
}

// runQueue is the queue suite: it measures, prints and gates. -quick
// shortens every simulation to 4,000 requests and the curve to 4
// points.
func runQueue(ctx context.Context, opt options) (any, error) {
	requests, steps := 0, curveSteps
	if opt.quick {
		requests, steps = 4000, 4
	}
	kernel, err := queueKernelBench(ctx, requests, opt.seed)
	if err != nil {
		return nil, err
	}
	if kernel.Curve, err = curveBench(steps, opt.seed); err != nil {
		return nil, err
	}
	fmt.Printf("queue kernel: TableIII over %d SKUs, %d cells, %d requests/run\n",
		len(kernel.SKUs), kernel.Cells, kernel.Requests)
	fmt.Printf("  batch     %8.3fs   (SLO memo: %d hits / %d misses)\n",
		kernel.BatchSeconds, kernel.SLOCacheHits, kernel.SLOCacheMisses)
	fmt.Printf("  fast      %8.3fs   batch speedup %.2fx   (oracle scalar loop)\n", kernel.FastSeconds, kernel.BatchSpeedup)
	fmt.Printf("  reference %8.3fs   fast speedup %.2fx   (oracle reference samplers)\n", kernel.ReferenceSeconds, kernel.Speedup)
	fmt.Printf("  cumulative %7.2fx   factors-identical: %v\n", kernel.CumulativeSpeedup, kernel.FactorsIdentical)
	fmt.Printf("  knee search: frac %.3f in %d evals (fixed-step: %d) %.3fs\n",
		kernel.Knee.KneeFrac, kernel.Knee.Evals, kernel.Knee.FixedStepEvals, kernel.Knee.Seconds)
	fmt.Printf("  saturation curve: %d servers, %d points in %.3fs\n", kernel.Curve.Servers, kernel.Curve.Steps, kernel.Curve.Seconds)

	if !kernel.FactorsIdentical {
		return kernel, fmt.Errorf("kernel arms produced different scaling factors — a fast path is wrong")
	}
	if opt.queueMinSpeedup > 0 && kernel.Speedup < opt.queueMinSpeedup {
		return kernel, fmt.Errorf("queueing kernel speedup %.2fx below the %.2fx gate", kernel.Speedup, opt.queueMinSpeedup)
	}
	if opt.queueMinBatchSpeedup > 0 && kernel.BatchSpeedup < opt.queueMinBatchSpeedup {
		return kernel, fmt.Errorf("batched kernel speedup %.2fx below the %.2fx gate", kernel.BatchSpeedup, opt.queueMinBatchSpeedup)
	}
	if opt.queueMinCumulative > 0 && kernel.CumulativeSpeedup < opt.queueMinCumulative {
		return kernel, fmt.Errorf("cumulative kernel speedup %.2fx below the %.2fx gate", kernel.CumulativeSpeedup, opt.queueMinCumulative)
	}
	return kernel, nil
}

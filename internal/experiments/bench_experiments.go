package experiments

// Performance benchmark results with a machine-readable trajectory:
// the ROADMAP's north star wants the hot paths to run as fast as the
// hardware allows, which needs a recorded baseline to regress against.
// cmd/gsfbench times the allocation sweep and the large-fleet replay
// against the internal/oracle linear scan (that timing lives in the
// command, so this package stays oracle-free) and records them here as
// AllocBenchResult and AllocScaleResult rows; QueueBench times the
// queueing saturation curve behind Figs. 7–8 and QueueKernelBench the
// Table III profiling sweep. The artifact writers below give CI the
// numbers to archive and gate on.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/perf"
	"github.com/greensku/gsf/internal/queueing"
)

// AllocBenchResult is the allocation sweep's measurement.
type AllocBenchResult struct {
	Traces            int     `json:"traces"`
	VMs               int     `json:"vms"`
	ServersPerClass   int     `json:"servers_per_class"`
	Policy            string  `json:"policy"`
	IndexedSeconds    float64 `json:"indexed_seconds"`
	ReferenceSeconds  float64 `json:"reference_seconds"`
	Speedup           float64 `json:"speedup"`
	DecisionIdentical bool    `json:"decision_identical"`
	Placed            int     `json:"placed"`
	Rejected          int     `json:"rejected"`
}

// AllocScaleResult is one row of the artifact's scale table: the
// columnar streaming replay against the oracle at a large fleet size.
type AllocScaleResult struct {
	Traces            int     `json:"traces"`
	VMs               int     `json:"vms"`
	ServersPerClass   int     `json:"servers_per_class"`
	Policy            string  `json:"policy"`
	ColumnarSeconds   float64 `json:"columnar_seconds"`
	ReferenceSeconds  float64 `json:"reference_seconds"`
	Speedup           float64 `json:"speedup"`
	DecisionIdentical bool    `json:"decision_identical"`
	Placed            int     `json:"placed"`
	Rejected          int     `json:"rejected"`
}

// QueueBenchOptions sizes the queueing saturation-curve benchmark.
type QueueBenchOptions struct {
	Servers int // queue parallelism; 0 defaults to 64
	Steps   int // load points; 0 defaults to 8
	Seed    uint64
}

// QueuePoint is one measured point of the saturation curve.
type QueuePoint struct {
	QPS       float64 `json:"qps"`
	P95       float64 `json:"p95_seconds"`
	Saturated bool    `json:"saturated"`
}

// QueueBenchResult is the queueing benchmark's measurement.
type QueueBenchResult struct {
	Servers int          `json:"servers"`
	Steps   int          `json:"steps"`
	Seconds float64      `json:"seconds"`
	Points  []QueuePoint `json:"points"`
}

// QueueBench sweeps offered load from half to past the queue's
// theoretical capacity (the Fig. 7–8 protocol) and times the sweep.
func QueueBench(opt QueueBenchOptions) (QueueBenchResult, error) {
	servers := opt.Servers
	if servers <= 0 {
		servers = 64
	}
	steps := opt.Steps
	if steps <= 0 {
		steps = 8
	}
	dist := queueing.LogNormal{MeanSeconds: 0.005, CV: 1.5}
	start := time.Now()
	pts, err := queueing.Curve(servers, dist, 0.5, 1.1, steps, opt.Seed)
	if err != nil {
		return QueueBenchResult{}, err
	}
	res := QueueBenchResult{Servers: servers, Steps: steps, Seconds: time.Since(start).Seconds()}
	for _, p := range pts {
		res.Points = append(res.Points, QueuePoint{QPS: p.QPS, P95: p.P95, Saturated: p.Saturated})
	}
	return res, nil
}

// QueueKernelBenchOptions sizes the queueing-kernel benchmark.
type QueueKernelBenchOptions struct {
	// Requests per simulation; 0 uses the paper protocol's default.
	Requests int
	Seed     uint64
}

// KneeBenchResult measures the adaptive knee search against the
// fixed-step sweep it replaces, plus the fluid-guided variant
// (Config.FluidApprox) that concentrates discrete-event cost near the
// knee.
type KneeBenchResult struct {
	Servers        int     `json:"servers"`
	KneeFrac       float64 `json:"knee_frac"`
	Evals          int     `json:"evals"`
	FixedStepEvals int     `json:"fixed_step_evals"`
	Seconds        float64 `json:"seconds"`
	// The fluid-guided search: analytic bracket narrowing plus a
	// closed-form screening probe. FluidKneeFrac must land within the
	// bisection resolution of KneeFrac (fluid_test.go bounds it).
	FluidKneeFrac float64 `json:"fluid_knee_frac"`
	FluidEvals    int     `json:"fluid_evals"`
	FluidSimEvals int     `json:"fluid_sim_evals"`
	FluidSeconds  float64 `json:"fluid_seconds"`
}

// QueueKernelBenchResult is the queueing-kernel benchmark's
// measurement: the TableIII profiling sweep over the green-SKU catalog
// through three kernels. The batch arm is the default kernel (batched
// SoA event loop plus everything below); the fast arm is the prior
// scalar kernel (Config.ReferenceEventLoop with ziggurat sampling,
// single-sort statistics, SLO memoization); the reference arm is a
// reference-shaped run (scalar loop, bit-exact samplers, no memo,
// serial) approximating the pre-optimization kernel.
type QueueKernelBenchResult struct {
	SKUs             []string `json:"skus"`
	Cells            int      `json:"cells"`
	Requests         int      `json:"requests"`
	BatchSeconds     float64  `json:"batch_seconds"`
	FastSeconds      float64  `json:"fast_seconds"`
	ReferenceSeconds float64  `json:"reference_seconds"`
	// BatchSpeedup is fast/batch: what the batched event loop buys
	// over the prior fast kernel. Speedup is reference/fast, the PR 5
	// gate, and CumulativeSpeedup is reference/batch.
	BatchSpeedup      float64         `json:"batch_speedup"`
	Speedup           float64         `json:"speedup"`
	CumulativeSpeedup float64         `json:"cumulative_speedup"`
	FactorsIdentical  bool            `json:"factors_identical"`
	SLOCacheHits      int64           `json:"slo_cache_hits"`
	SLOCacheMisses    int64           `json:"slo_cache_misses"`
	Knee              KneeBenchResult `json:"knee"`
}

// QueueKernelBench profiles every green SKU in the catalog against all
// three baseline generations (the Table III protocol), once per kernel
// arm (batched, fast-scalar, reference-shaped), and verifies all three
// produce identical factor matrices — the fast paths may change
// latencies in distribution, but they must never flip a factor bin.
// (Batched versus the scalar loop is in fact bit-identical; the
// queueing differential wall proves that stronger property.)
func QueueKernelBench(ctx context.Context, opt QueueKernelBenchOptions) (QueueKernelBenchResult, error) {
	greens := []hw.SKU{hw.GreenSKUEfficient(), hw.GreenSKUCXL(), hw.GreenSKUFull()}

	popt := perf.DefaultOptions()
	if opt.Requests > 0 {
		popt.Requests = opt.Requests
	}
	if opt.Seed != 0 {
		popt.Seed = opt.Seed
	}

	res := QueueKernelBenchResult{Requests: popt.Requests, FactorsIdentical: true}

	sweep := func(o perf.Options) ([]map[string]map[int]perf.Factor, float64, error) {
		out := make([]map[string]map[int]perf.Factor, 0, len(greens))
		start := time.Now()
		for _, g := range greens {
			m, err := perf.TableIIIContext(ctx, g, o)
			if err != nil {
				return nil, 0, err
			}
			out = append(out, m)
		}
		return out, time.Since(start).Seconds(), nil
	}

	// Batch arm: the default kernel (batched SoA event loop).
	perf.ResetSLOCache()
	batch, batchSec, err := sweep(popt)
	if err != nil {
		return QueueKernelBenchResult{}, err
	}
	res.SLOCacheHits, res.SLOCacheMisses = perf.SLOCacheStats()

	// Fast arm: the prior scalar kernel, everything else equal.
	fopt := popt
	fopt.ReferenceEventLoop = true
	perf.ResetSLOCache()
	fast, fastSec, err := sweep(fopt)
	if err != nil {
		return QueueKernelBenchResult{}, err
	}

	ref := popt
	ref.Workers = 1
	ref.ReferenceSampling = true
	ref.ReferenceEventLoop = true
	ref.DisableSLOMemo = true
	reference, refSec, err := sweep(ref)
	if err != nil {
		return QueueKernelBenchResult{}, err
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
		return QueueKernelBenchResult{}, err
	}
	res.Knee = KneeBenchResult{
		Servers:        kcfg.Servers,
		KneeFrac:       knee.KneeFrac,
		Evals:          knee.Evals,
		FixedStepEvals: int((hiFrac - loFrac) / tolFrac),
		Seconds:        time.Since(start).Seconds(),
	}

	// The fluid-guided variant of the same search.
	fcfg := kcfg
	fcfg.FluidApprox = true
	start = time.Now()
	fknee, err := queueing.KneeSearch(ctx, fcfg, loFrac, hiFrac, tolFrac)
	if err != nil {
		return QueueKernelBenchResult{}, err
	}
	res.Knee.FluidKneeFrac = fknee.KneeFrac
	res.Knee.FluidEvals = fknee.FluidEvals
	res.Knee.FluidSimEvals = fknee.Evals
	res.Knee.FluidSeconds = time.Since(start).Seconds()
	return res, nil
}

// QueueArtifact is the BENCH_queue.json schema: the queueing-kernel
// sweep measurement, versioned like BenchArtifact.
type QueueArtifact struct {
	Schema string                 `json:"schema"`
	Kernel QueueKernelBenchResult `json:"kernel"`
}

// WriteQueueArtifact encodes the artifact as indented JSON.
func WriteQueueArtifact(w io.Writer, a QueueArtifact) error {
	if a.Schema == "" {
		a.Schema = BenchSchema
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		return fmt.Errorf("experiments: encoding queue artifact: %w", err)
	}
	return nil
}

// BenchArtifact is the BENCH_alloc.json schema: one allocation sweep
// measurement plus one queueing curve, versioned so later changes can
// extend it without breaking readers. Scale is the additive
// large-fleet table (e.g. the million-server row); absent when the
// suite ran without a scale size.
type BenchArtifact struct {
	Schema   string             `json:"schema"`
	Alloc    AllocBenchResult   `json:"alloc"`
	Queueing QueueBenchResult   `json:"queueing"`
	Scale    []AllocScaleResult `json:"scale,omitempty"`
}

// BenchSchema is the current artifact schema identifier.
const BenchSchema = "gsf-bench/v1"

// WriteBenchArtifact encodes the artifact as indented JSON.
func WriteBenchArtifact(w io.Writer, a BenchArtifact) error {
	if a.Schema == "" {
		a.Schema = BenchSchema
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		return fmt.Errorf("experiments: encoding bench artifact: %w", err)
	}
	return nil
}

// ScaleArtifact is the standalone scale-suite artifact (CI's
// bench-scale upload); the same rows also ride along in
// BenchArtifact.Scale when the alloc suite runs with a scale size.
type ScaleArtifact struct {
	Schema string             `json:"schema"`
	Scale  []AllocScaleResult `json:"scale"`
}

// WriteScaleArtifact encodes the artifact as indented JSON.
func WriteScaleArtifact(w io.Writer, a ScaleArtifact) error {
	if a.Schema == "" {
		a.Schema = BenchSchema
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		return fmt.Errorf("experiments: encoding scale artifact: %w", err)
	}
	return nil
}

package design

import (
	"context"
	"fmt"

	"github.com/greensku/gsf/internal/apps"
	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/carbon"
	"github.com/greensku/gsf/internal/engine"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/perf"
	"github.com/greensku/gsf/internal/queueing"
	"github.com/greensku/gsf/internal/units"
)

// PerfOptions configure the performance objective.
type PerfOptions struct {
	// Base is the measurement protocol shared with package perf: VM
	// size, request count, seed, SLO slack. Its Requests/Seed drive the
	// knee searches with common random numbers, so every candidate sees
	// the same arrival sequence and scores are exactly reproducible.
	Base perf.Options
	// KneeLo and KneeHi bracket the sustainable-load search as
	// fractions of theoretical capacity; KneeTol is the bisection
	// resolution (queueing.KneeSearch). KneeHi should equal the SLO
	// operating load (Base.LoadFraction): a design that is stable all
	// the way up then has its StableP95 measured at exactly the load
	// the baseline's SLO point was, making the two directly comparable.
	KneeLo, KneeHi, KneeTol float64
}

// DefaultPerfOptions returns the paper's protocol with the knee
// bracket topping out at the SLO operating load.
func DefaultPerfOptions() PerfOptions {
	base := perf.DefaultOptions()
	return PerfOptions{Base: base, KneeLo: 0.5, KneeHi: base.LoadFraction, KneeTol: 0.02}
}

// perfScoreCacheEntries bounds the per-evaluator score memo. Distinct
// performance profiles are few — CPU choice times CXL population — so
// this is far above any real space.
const perfScoreCacheEntries = 256

// Evaluator scores candidate SKUs on the three frontier objectives
// under one carbon dataset and CI. It is safe for concurrent use: the
// search driver fans Evaluate across engine workers.
//
// The expensive objective is performance: a full portfolio score costs
// five adaptive knee searches. The evaluator memoises scores by
// performance profile (perf.ProfileOf, which is independent of DIMM
// sizes, SSDs, and GPUs), so a thousand-candidate space typically pays
// for only a handful of simulations; everything else is served from
// the memo with bit-identical values. Knee searches are memoised by
// the queue they simulate (kneeKey), which distinct profiles often
// share. Both memos are per evaluator.
type Evaluator struct {
	Model *carbon.Model
	CI    units.CarbonIntensity
	Perf  PerfOptions

	baseline hw.SKU
	scores   *engine.Cache[float64]
	knees    *engine.Cache[queueing.Knee]
	// optKey is Perf formatted for memo keys, once per evaluator;
	// Perf must not change after NewEvaluator.
	optKey string
	// audit checks the knee searches; nil falls back to the process
	// default. CheckFrontier sets it on its fresh evaluator.
	audit audit.Checker
}

// NewEvaluator returns an evaluator over the model's dataset. A zero
// ci selects the dataset default.
func NewEvaluator(m *carbon.Model, ci units.CarbonIntensity, popt PerfOptions) *Evaluator {
	if ci == 0 {
		ci = m.Data.DefaultCI
	}
	return &Evaluator{
		Model:    m,
		CI:       ci,
		Perf:     popt,
		baseline: hw.BaselineGen3(),
		scores:   engine.NewCache[float64](perfScoreCacheEntries),
		knees:    engine.NewCache[queueing.Knee](perfScoreCacheEntries),
		optKey:   perfOptionsKey(popt),
	}
}

// Evaluate scores one SKU on all three objectives.
func (e *Evaluator) Evaluate(ctx context.Context, sku hw.SKU) (Point, error) {
	rack, err := e.Model.Rack(sku)
	if err != nil {
		return Point{}, err
	}
	pc, err := e.Model.PerCore(sku, e.CI)
	if err != nil {
		return Point{}, err
	}
	score, err := e.PerfScore(ctx, sku)
	if err != nil {
		return Point{}, err
	}
	return Point{SKU: sku, Obj: Objectives{
		CarbonPerCore: float64(pc.Total()),
		PerfPerCore:   score,
		CoresPerRack:  float64(rack.Cores),
	}}, nil
}

// perfOptionsKey formats everything in opt that changes a simulated
// value. Workers and DisableSLOMemo are normalised out: they never
// change an answer.
func perfOptionsKey(opt PerfOptions) string {
	opt.Base.Workers = 0
	opt.Base.DisableSLOMemo = false
	return fmt.Sprintf("%#v", opt)
}

// profileKey identifies a performance profile minus its SKU name — the
// fields ServiceTime actually reads — plus the evaluator's options.
func (e *Evaluator) profileKey(p perf.Profile) string {
	return fmt.Sprintf("%v|%v|%v|%v|%s",
		p.CPUScore, p.LLCPerCoreMiB, p.BWPerCoreGBs, p.MemLatencyNs, e.optKey)
}

// kneeKey identifies a knee search by exactly what it reads: the
// service mean and CV, plus the options, which carry the server count,
// request count, seed and bracket. Apps and profiles that ServiceTime
// maps onto the same mean share one search.
func (e *Evaluator) kneeKey(mean, cv float64) string {
	return fmt.Sprintf("%v|%v|%s", mean, cv, e.optKey)
}

// KneeStats reports the evaluator's knee-memo hits and misses; every
// miss is one knee search.
func (e *Evaluator) KneeStats() (hits, misses int64) { return e.knees.Stats() }

// PerfScore is the portfolio per-core capacity of the SKU relative to
// the Gen3 baseline: for every latency-critical workload class the
// representative app's sustainable throughput on an 8-core VM (an
// adaptive knee search, gated on the baseline's memoised SLO point),
// and for the DevOps build class the analytic throughput ratio — all
// weighted by the production core-hour mix. 1.0 means one candidate
// core delivers exactly one baseline core's portfolio capacity; a
// class whose latency SLO cannot be met at any searched load
// contributes zero, so inadoptable designs are penalised, not hidden.
//
// CXL-bearing SKUs are scored with the fully CXL-backed profile — the
// conservative end of the paper's §III slowdown range.
func (e *Evaluator) PerfScore(ctx context.Context, sku hw.SKU) (float64, error) {
	if err := sku.Validate(); err != nil {
		return 0, err
	}
	p := perf.ProfileOf(sku, sku.HasCXL())
	return e.scores.Do(e.profileKey(p), func() (float64, error) {
		return e.perfScore(ctx, p)
	})
}

func (e *Evaluator) perfScore(ctx context.Context, green perf.Profile) (float64, error) {
	base := perf.ProfileOf(e.baseline, false)
	var sum, wsum float64
	for _, a := range apps.Representatives() {
		ratio, err := e.classRatio(ctx, a, green, base)
		if err != nil {
			return 0, err
		}
		w := apps.ClassShares[a.Class]
		sum += w * ratio
		wsum += w
	}
	// DevOps builds are throughput workloads: their per-core capacity
	// ratio is the analytic inverse slowdown, averaged over the class.
	builds := apps.ByClass()[apps.DevOps]
	if len(builds) > 0 {
		var dev float64
		for _, a := range builds {
			dev += perf.ServiceTime(a, base) / perf.ServiceTime(a, green)
		}
		w := apps.ClassShares[apps.DevOps]
		sum += w * dev / float64(len(builds))
		wsum += w
	}
	if wsum == 0 {
		return 0, fmt.Errorf("design: no workload classes to score")
	}
	return sum / wsum, nil
}

// classRatio is one latency-critical class's capacity ratio: the
// candidate's sustainable QPS over the baseline's, or zero when the
// candidate blows the class SLO (its p95 at the highest stable load
// exceeds the baseline's memoised SLO point by more than the slack).
func (e *Evaluator) classRatio(ctx context.Context, a apps.App, green, base perf.Profile) (float64, error) {
	slo, _, err := perf.SLOContext(ctx, a, e.baseline, e.Perf.Base)
	if err != nil {
		return 0, err
	}
	baseKnee, err := e.knee(ctx, a, base)
	if err != nil {
		return 0, err
	}
	if baseKnee.StableQPS <= 0 {
		return 0, fmt.Errorf("design: baseline found no stable load for %s", a.Name)
	}
	greenKnee, err := e.knee(ctx, a, green)
	if err != nil {
		return 0, err
	}
	if greenKnee.StableQPS <= 0 || greenKnee.StableP95 > slo*e.Perf.Base.SLOSlack {
		return 0, nil
	}
	return greenKnee.StableQPS / baseKnee.StableQPS, nil
}

// knee runs (or serves from the memo) the adaptive sustainable-load
// search for one app on one profile's VM.
func (e *Evaluator) knee(ctx context.Context, a apps.App, p perf.Profile) (queueing.Knee, error) {
	svc := queueing.LogNormal{MeanSeconds: perf.ServiceTime(a, p), CV: a.CV}
	return e.knees.Do(e.kneeKey(svc.MeanSeconds, svc.CV), func() (queueing.Knee, error) {
		cfg := queueing.Config{
			Servers:  e.Perf.Base.BaselineCores,
			Service:  svc,
			Requests: e.Perf.Base.Requests,
			Seed:     e.Perf.Base.Seed,
			Audit:    e.audit,
		}
		return queueing.KneeSearch(ctx, cfg, e.Perf.KneeLo, e.Perf.KneeHi, e.Perf.KneeTol)
	})
}

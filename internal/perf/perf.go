// Package perf implements GSF's performance component (§IV-B, §V): it
// profiles a GreenSKU's per-application performance relative to the
// baseline SKUs and produces scaling factors — how many GreenSKU cores
// are needed per baseline core to meet the application's SLO.
//
// The measurement protocol follows the paper:
//
//  1. Run the app on the baseline SKU with an 8-core VM; set the SLO to
//     the p95 latency at 90% of the baseline's peak saturation
//     throughput.
//  2. Re-run on the GreenSKU with 8, 10, and 12 cores at the same
//     offered load; the scaling factor is cores/8 for the smallest core
//     count that meets the SLO.
//  3. If 12 cores do not suffice, the factor is reported as ">1.5" and
//     the app cannot adopt the GreenSKU.
package perf

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"github.com/greensku/gsf/internal/apps"
	"github.com/greensku/gsf/internal/engine"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/queueing"
)

// Memory latencies in nanoseconds (§III): local DDR5 vs CXL-attached
// DDR4 at medium load.
const (
	LocalMemLatencyNs = 140
	CXLMemLatencyNs   = 280
)

// Profile is the per-core performance feature vector of a SKU as seen
// by one VM.
type Profile struct {
	SKU           string
	CPUScore      float64
	LLCPerCoreMiB float64
	BWPerCoreGBs  float64
	MemLatencyNs  float64
}

// refProfile is the Gen3 baseline, the normalisation point for the
// application sensitivity vectors.
var refProfile = Profile{
	CPUScore:      1.0,
	LLCPerCoreMiB: 4.8,
	BWPerCoreGBs:  5.75,
	MemLatencyNs:  LocalMemLatencyNs,
}

// ProfileOf derives the performance profile of a SKU. cxlBacked marks a
// VM whose memory is served from CXL-attached DRAM (doubling effective
// memory latency); VMs on CXL SKUs whose footprint fits local DDR5 use
// cxlBacked=false.
func ProfileOf(sku hw.SKU, cxlBacked bool) Profile {
	p := Profile{
		SKU:           sku.Name,
		CPUScore:      sku.CPU.CPUScore,
		LLCPerCoreMiB: sku.CPU.LLCPerCoreMiB(),
		BWPerCoreGBs:  sku.MemBWPerCoreGBs(),
		MemLatencyNs:  LocalMemLatencyNs,
	}
	if cxlBacked {
		p.MemLatencyNs = CXLMemLatencyNs
	}
	return p
}

// ServiceTime returns the app's mean per-request service time on the
// given profile, in seconds.
func ServiceTime(a apps.App, p Profile) float64 {
	s := a.BaseServiceMS / 1000
	s *= math.Pow(refProfile.CPUScore/p.CPUScore, a.FreqSens)
	s *= math.Pow(refProfile.LLCPerCoreMiB/p.LLCPerCoreMiB, a.LLCSens)
	if p.BWPerCoreGBs < a.BWDemandGBs {
		s *= a.BWDemandGBs / p.BWPerCoreGBs
	}
	s *= 1 + a.MemLatSens*(p.MemLatencyNs/LocalMemLatencyNs-1)
	return s
}

// Slowdown returns the app's service-time ratio on profile p relative
// to profile base (>1 means slower).
func Slowdown(a apps.App, p, base Profile) float64 {
	return ServiceTime(a, p) / ServiceTime(a, base)
}

// Factor is a scaling factor: GreenSKU cores per baseline core.
type Factor struct {
	App       string
	Baseline  string
	Value     float64 // 1, 1.25, or 1.5
	Adoptable bool    // false means "> 1.5": scaling defeats the savings
}

// String renders the factor as in Table III.
func (f Factor) String() string {
	if !f.Adoptable {
		return ">1.5"
	}
	if f.Value == math.Trunc(f.Value) {
		return fmt.Sprintf("%.0f", f.Value)
	}
	return fmt.Sprintf("%.2f", f.Value)
}

// Options tunes the SLO measurement.
type Options struct {
	BaselineCores int     // VM size on the baseline (paper: 8)
	CoreSteps     []int   // candidate GreenSKU VM sizes (paper: 8, 10, 12)
	LoadFraction  float64 // SLO load as a fraction of baseline peak (paper: 0.9)
	// CapacityBand is the tolerated shortfall in peak saturation
	// throughput versus the baseline: a core count qualifies when the
	// VM's peak is within this factor of the baseline's (the paper
	// selects "the minimum number of cores ... that achieves a peak
	// saturation throughput closest to" the baseline's).
	CapacityBand float64
	// SLOSlack bounds how far past the SLO knee the simulated p95 may
	// land before the configuration is rejected outright.
	SLOSlack float64
	Requests int
	Seed     uint64
	// Workers bounds TableIIIContext's parallel fan-out over
	// (app, generation) cells; <= 0 selects GOMAXPROCS, 1 forces the
	// serial order. Results are index-slotted and deterministic either
	// way, so Workers never changes an answer (and is excluded from
	// ProfileKey and the SLO memo key).
	Workers int
	// DisableSLOMemo bypasses the process-wide SLO memoization, forcing
	// every ScalingFactor call to re-simulate its baseline SLO point.
	// Benchmarks use it to measure the unmemoized kernel; results are
	// identical either way.
	DisableSLOMemo bool
}

// DefaultOptions returns the paper's measurement protocol.
func DefaultOptions() Options {
	return Options{
		BaselineCores: 8,
		CoreSteps:     []int{8, 10, 12},
		LoadFraction:  0.9,
		CapacityBand:  1.05,
		SLOSlack:      2.0,
		Requests:      30000,
		Seed:          20240400,
	}
}

// DefaultSLOCacheEntries sizes the process-wide SLO memo: every
// latency-critical app against every baseline generation and option
// variant a sweep plausibly touches.
const DefaultSLOCacheEntries = 512

// sloPoint is one memoized SLO measurement.
type sloPoint struct {
	P95  float64
	Load float64
}

// sloCache memoizes SLO runs process-wide (LRU + singleflight): a sweep
// that profiles N green SKUs against the same baselines simulates each
// (app, baseline, seed) SLO point once, not N times. The simulators are
// seeded, so a cached point is bit-identical to a recomputed one.
var sloCache atomic.Pointer[engine.Cache[sloPoint]]

func init() { sloCache.Store(engine.NewCache[sloPoint](DefaultSLOCacheEntries)) }

// ResetSLOCache drops every memoized SLO point. Benchmarks use it to
// measure cold-start behaviour; production code never needs it.
func ResetSLOCache() { sloCache.Store(engine.NewCache[sloPoint](DefaultSLOCacheEntries)) }

// SLOCacheStats reports cumulative SLO-memo hits and misses.
func SLOCacheStats() (hits, misses int64) { return sloCache.Load().Stats() }

// sloKey fingerprints one SLO measurement: the app's full sensitivity
// vector, the baseline SKU, and exactly the options that influence the
// simulated run. Sweep-shape knobs (CoreSteps, CapacityBand, SLOSlack,
// Workers, DisableSLOMemo) are excluded so option variants that differ
// only in the green-side search share the same baseline point.
func sloKey(a apps.App, baseline hw.SKU, opt Options) string {
	k := Options{
		BaselineCores: opt.BaselineCores,
		LoadFraction:  opt.LoadFraction,
		Requests:      opt.Requests,
		Seed:          opt.Seed,
	}
	return fmt.Sprintf("%#v|%#v|%#v", a, baseline, k)
}

// SLO computes the baseline SKU's service-level objective for the app:
// the p95 latency at LoadFraction of the baseline's peak throughput,
// plus the offered load it was measured at.
func SLO(a apps.App, baseline hw.SKU, opt Options) (p95 float64, load float64, err error) {
	return SLOContext(context.Background(), a, baseline, opt)
}

// SLOContext is SLO with cancellation. Measurements are memoized
// process-wide unless opt.DisableSLOMemo is set; concurrent callers for
// the same point share one simulation (singleflight), and errors are
// never cached.
func SLOContext(ctx context.Context, a apps.App, baseline hw.SKU, opt Options) (p95 float64, load float64, err error) {
	if !a.LatencyCritical {
		return 0, 0, fmt.Errorf("perf: %s is not latency-critical; use ThroughputSlowdown", a.Name)
	}
	if opt.DisableSLOMemo {
		return sloRun(ctx, a, baseline, opt)
	}
	pt, err := sloCache.Load().Do(sloKey(a, baseline, opt), func() (sloPoint, error) {
		p95, load, err := sloRun(ctx, a, baseline, opt)
		return sloPoint{P95: p95, Load: load}, err
	})
	if err != nil {
		return 0, 0, err
	}
	return pt.P95, pt.Load, nil
}

// sloRun performs the actual baseline SLO simulation.
func sloRun(ctx context.Context, a apps.App, baseline hw.SKU, opt Options) (p95 float64, load float64, err error) {
	s := queueing.LogNormal{MeanSeconds: ServiceTime(a, ProfileOf(baseline, false)), CV: a.CV}
	load = opt.LoadFraction * queueing.Capacity(opt.BaselineCores, s)
	res, err := queueing.RunContext(ctx, queueing.Config{
		Servers:     opt.BaselineCores,
		ArrivalRate: load,
		Service:     s,
		Requests:    opt.Requests,
		Seed:        opt.Seed,
	})
	if err != nil {
		return 0, 0, err
	}
	return res.P95, load, nil
}

// ScalingFactor runs the paper's scaling search for one app: the
// smallest GreenSKU VM size in opt.CoreSteps whose p95 at the
// baseline's SLO load stays within the SLO.
func ScalingFactor(a apps.App, green, baseline hw.SKU, cxlBacked bool, opt Options) (Factor, error) {
	return ScalingFactorContext(context.Background(), a, green, baseline, cxlBacked, opt)
}

// ScalingFactorContext is ScalingFactor with cancellation.
func ScalingFactorContext(ctx context.Context, a apps.App, green, baseline hw.SKU, cxlBacked bool, opt Options) (Factor, error) {
	f := Factor{App: a.Name, Baseline: baseline.Name}
	if !a.LatencyCritical {
		// Throughput apps scale linearly with cores: bin the
		// slowdown directly.
		slow := Slowdown(a, ProfileOf(green, cxlBacked), ProfileOf(baseline, false))
		return binSlowdown(f, slow, opt), nil
	}
	slo, load, err := SLOContext(ctx, a, baseline, opt)
	if err != nil {
		return Factor{}, err
	}
	slow := Slowdown(a, ProfileOf(green, cxlBacked), ProfileOf(baseline, false))
	s := queueing.LogNormal{MeanSeconds: ServiceTime(a, ProfileOf(green, cxlBacked)), CV: a.CV}
	for _, cores := range opt.CoreSteps {
		// Peak-throughput criterion: the scaled VM's saturation
		// throughput (cores/S) must be within CapacityBand of the
		// baseline's (baselineCores/S_base), i.e. slow <= band*scale.
		scale := float64(cores) / float64(opt.BaselineCores)
		if slow > opt.CapacityBand*scale {
			continue
		}
		// Latency criterion: the simulated p95 at the SLO load must
		// not blow past the knee.
		res, err := queueing.RunContext(ctx, queueing.Config{
			Servers:     cores,
			ArrivalRate: load,
			Service:     s,
			Requests:    opt.Requests,
			Seed:        opt.Seed,
		})
		if err != nil {
			return Factor{}, err
		}
		if !res.Saturated && res.P95 <= slo*opt.SLOSlack {
			f.Value = scale
			f.Adoptable = true
			return f, nil
		}
	}
	f.Value = math.Inf(1)
	return f, nil
}

func binSlowdown(f Factor, slow float64, opt Options) Factor {
	for _, cores := range opt.CoreSteps {
		scale := float64(cores) / float64(opt.BaselineCores)
		// A throughput app meets the baseline's rate when
		// cores/serviceTime matches: scale >= slow (with the same
		// 5% tolerance the latency path gets from SLO slack).
		if scale*1.05 >= slow {
			f.Value = scale
			f.Adoptable = true
			return f
		}
	}
	f.Value = math.Inf(1)
	return f
}

// TableIII computes the full scaling-factor matrix: every app against
// every baseline generation (Gen1, Gen2, Gen3), as in Table III.
func TableIII(green hw.SKU, opt Options) (map[string]map[int]Factor, error) {
	return TableIIIContext(context.Background(), green, opt)
}

// TableIIIContext is TableIII with cancellation. The (app, generation)
// cells are independent seeded simulations, so they fan out across the
// evaluation engine (opt.Workers bounds the pool); results are slotted
// by cell index, making the parallel table identical to the serial one.
func TableIIIContext(ctx context.Context, green hw.SKU, opt Options) (map[string]map[int]Factor, error) {
	all := apps.All()
	cells := engine.Map(ctx, opt.Workers, len(all)*3, func(ctx context.Context, i int) (Factor, error) {
		a := all[i/3]
		gen := i%3 + 1
		return ScalingFactorContext(ctx, a, green, hw.BaselineForGeneration(gen), false, opt)
	})
	factors, err := engine.Collect(cells)
	if err != nil {
		return nil, err
	}
	out := map[string]map[int]Factor{}
	for i, f := range factors {
		a := all[i/3]
		if out[a.Name] == nil {
			out[a.Name] = map[int]Factor{}
		}
		out[a.Name][i%3+1] = f
	}
	return out, nil
}

// ProfileKey fingerprints a TableIII computation: the green SKU's full
// hardware description, the measurement options, and the app set. Two
// identical keys are guaranteed to produce identical factor matrices
// (the simulators are seeded), which is what makes profiling safe to
// memoize across a sweep. Execution knobs that cannot change the
// answer (Workers, DisableSLOMemo) are normalised out of the key.
func ProfileKey(green hw.SKU, opt Options) string {
	opt.Workers = 0
	opt.DisableSLOMemo = false
	names := make([]string, 0, len(apps.All()))
	for _, a := range apps.All() {
		names = append(names, a.Name)
	}
	return fmt.Sprintf("%#v|%#v|%v", green, opt, names)
}

// ThroughputSlowdown returns the normalised completion-time ratio of a
// DevOps app on the given SKU relative to Gen3, the metric of Table II.
func ThroughputSlowdown(a apps.App, sku hw.SKU, cxlBacked bool) float64 {
	return Slowdown(a, ProfileOf(sku, cxlBacked), ProfileOf(hw.BaselineGen3(), false))
}

// LowLoadLatency returns the p95 latency at "low" load (30% of the
// SKU's own peak, per §VI) for the app on the SKU with the given VM
// core count.
func LowLoadLatency(a apps.App, sku hw.SKU, cores int, cxlBacked bool, opt Options) (float64, error) {
	s := queueing.LogNormal{MeanSeconds: ServiceTime(a, ProfileOf(sku, cxlBacked)), CV: a.CV}
	res, err := queueing.Run(queueing.Config{
		Servers:     cores,
		ArrivalRate: 0.3 * queueing.Capacity(cores, s),
		Service:     s,
		Requests:    opt.Requests,
		Seed:        opt.Seed,
	})
	if err != nil {
		return 0, err
	}
	return res.P95, nil
}

// Package core is GSF itself: the framework of §IV that composes the
// carbon model, performance, maintenance, adoption, VM allocation,
// cluster sizing, and growth-buffer components (Fig. 6) to estimate the
// datacenter emissions of deploying a GreenSKU at scale.
//
// Each component lives in its own package with explicit inputs and
// outputs; core wires them in the paper's dependency order:
//
//	performance -> scaling factors -> adoption -+
//	carbon model -> CO2e-per-core --------------+-> allocation/sizing
//	maintenance -> out-of-service overhead -----+        |
//	                                growth buffer <------+
//	                                        |
//	                         cluster & datacenter emissions
package core

import (
	"context"
	"fmt"
	"math"

	"github.com/greensku/gsf/internal/adoption"
	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/buffer"
	"github.com/greensku/gsf/internal/carbon"
	"github.com/greensku/gsf/internal/cluster"
	"github.com/greensku/gsf/internal/engine"
	"github.com/greensku/gsf/internal/fleet"
	"github.com/greensku/gsf/internal/gridci"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/maintenance"
	"github.com/greensku/gsf/internal/perf"
	"github.com/greensku/gsf/internal/trace"
	"github.com/greensku/gsf/internal/units"
)

// DefaultProfileCacheEntries is the profile cache capacity New
// configures: enough for every SKU in the catalog plus sweep variants.
const DefaultProfileCacheEntries = 64

// Framework bundles the component implementations. The zero value is
// not usable; construct with New.
type Framework struct {
	Carbon *carbon.Model
	Perf   perf.Options
	AFRs   maintenance.ComponentAFRs
	FIP    maintenance.FIP
	Buffer buffer.Params
	Policy alloc.Policy
	Fleet  fleet.Params
	// Workers bounds the evaluation engine's parallelism for sweeps and
	// batches; <= 0 means GOMAXPROCS.
	Workers int
	// Audit receives invariant violations from every component the
	// pipeline runs; install it with SetAudit (or gsf.WithAudit) so the
	// carbon model is rewired too. Nil falls back to the process
	// default (audit.SetDefault); if that is also nil, checking is
	// disabled and costs nothing.
	Audit audit.Checker

	// profiles memoizes TableIII scaling-factor matrices keyed by
	// perf.ProfileKey, so a sweep profiles each SKU once. Nil disables
	// memoization (every evaluation profiles from scratch).
	profiles *engine.Cache[map[string]map[int]perf.Factor]
}

// New assembles a framework over a carbon model with the paper's
// default component settings.
func New(m *carbon.Model) *Framework {
	return &Framework{
		Carbon:   m,
		Perf:     perf.DefaultOptions(),
		AFRs:     maintenance.DefaultAFRs(),
		FIP:      maintenance.FIP{Effectiveness: 0.75},
		Buffer:   buffer.DefaultParams(),
		Policy:   alloc.BestFit,
		Fleet:    fleet.Default(),
		profiles: engine.NewCache[map[string]map[int]perf.Factor](DefaultProfileCacheEntries),
	}
}

// SetAudit threads an invariant checker through the framework: the
// sizing and allocation layers receive it per evaluation, and the
// carbon model is replaced by a shallow copy carrying it (models from
// gsf.Model are shared across frameworks and documented immutable, so
// the original is never mutated).
func (f *Framework) SetAudit(c audit.Checker) {
	f.Audit = c
	if f.Carbon != nil {
		cm := *f.Carbon
		cm.Audit = c
		f.Carbon = &cm
	}
}

// SetProfileCacheSize resizes the profile memoization cache; n <= 0
// disables memoization. The cache is replaced, dropping prior entries.
func (f *Framework) SetProfileCacheSize(n int) {
	if n <= 0 {
		f.profiles = nil
		return
	}
	f.profiles = engine.NewCache[map[string]map[int]perf.Factor](n)
}

// ProfileCacheStats reports cumulative profile-cache hits and misses;
// zeros when memoization is disabled.
func (f *Framework) ProfileCacheStats() (hits, misses int64) {
	if f.profiles == nil {
		return 0, 0
	}
	return f.profiles.Stats()
}

// profileFor returns the TableIII factor matrix for the green SKU,
// memoized on (SKU fingerprint, measurement options, app set).
//
// The cached matrix is shared across evaluations without copying:
// nothing in the pipeline mutates it (adoption.Build and Evaluate treat
// factors as read-only).
func (f *Framework) profileFor(ctx context.Context, green hw.SKU) (map[string]map[int]perf.Factor, error) {
	if f.profiles == nil {
		return perf.TableIIIContext(ctx, green, f.Perf)
	}
	return f.profiles.Do(perf.ProfileKey(green, f.Perf), func() (map[string]map[int]perf.Factor, error) {
		return perf.TableIIIContext(ctx, green, f.Perf)
	})
}

// Input is one GreenSKU evaluation request: the design, the baseline
// fleet it would join, and the target workload.
type Input struct {
	Green hw.SKU
	// Baseline is the current-generation SKU the savings are measured
	// against (the paper's Gen3).
	Baseline hw.SKU
	// Workload is the VM trace the cluster must host.
	Workload trace.Trace
	// CI is the grid carbon intensity; zero uses the dataset default.
	CI units.CarbonIntensity
	// CISignal, when set, replaces the scalar CI with a time-varying
	// grid intensity: operational emissions integrate the signal over
	// the server lifetime. Mutually exclusive with a non-zero CI. A
	// constant signal is bit-identical to passing its value as CI.
	CISignal *gridci.Signal
	// CXLBacked evaluates the performance component as if VM memory
	// were served from CXL (used for GreenSKU-CXL sensitivity runs).
	CXLBacked bool
	// Factors, if non-nil, reuses precomputed scaling factors
	// (they are carbon-intensity independent, so sweeps across CI
	// should share them).
	Factors map[string]map[int]perf.Factor
}

// Evaluation is the framework's output for one GreenSKU.
type Evaluation struct {
	// Factors are the performance component's scaling factors.
	Factors map[string]map[int]perf.Factor
	// Adoption is the per-(app, generation) adoption table.
	Adoption adoption.Table
	// PerCoreGreen/PerCoreBase are rack-amortised lifetime emissions.
	PerCoreGreen carbon.PerCore
	PerCoreBase  carbon.PerCore
	// PerCoreSavings is the Table IV/VIII-style headline.
	PerCoreSavings carbon.Savings
	// Mix is the right-sized mixed cluster for the workload.
	Mix cluster.Mix
	// Buffered attaches the growth buffer.
	Buffered buffer.Buffered
	// Maintenance compares out-of-service overheads.
	Maintenance []maintenance.Overhead
	// ClusterSavings is the end-to-end cluster-level carbon saving
	// including the growth buffer (Fig. 11/12's y-axis).
	ClusterSavings float64
	// DCSavings scales the cluster saving by compute's share of
	// datacenter emissions (the paper's "net cloud emissions").
	DCSavings float64
}

// Evaluate runs the full GSF pipeline for one design.
func (f *Framework) Evaluate(in Input) (Evaluation, error) {
	return f.EvaluateContext(context.Background(), in)
}

// EvaluateContext runs the full GSF pipeline for one design, honouring
// cancellation and deadlines down into the allocation and queueing
// simulators' inner loops.
func (f *Framework) EvaluateContext(ctx context.Context, in Input) (Evaluation, error) {
	var ev Evaluation
	if f.Carbon == nil {
		return ev, fmt.Errorf("%w: no carbon model", ErrNotConfigured)
	}
	if err := in.Validate(); err != nil {
		return ev, err
	}
	ci := in.CI
	if in.CISignal != nil {
		// The lifetime integral of the signal collapses to an exact
		// effective scalar; a constant signal yields its constant
		// bit-for-bit, keeping the two paths byte-identical.
		eff, err := f.Carbon.EffectiveCI(in.CISignal, 0)
		if err != nil {
			return ev, fmt.Errorf("%w: CI signal: %v", ErrBadInput, err)
		}
		ci = eff
	} else if ci == 0 {
		ci = f.Carbon.Data.DefaultCI
	}

	// Performance component: scaling factors per baseline generation,
	// memoized so sweeps profile each SKU once.
	var err error
	ev.Factors = in.Factors
	if ev.Factors == nil {
		ev.Factors, err = f.profileFor(ctx, in.Green)
		if err != nil {
			return ev, err
		}
	}

	// Carbon model: per-core emissions for the GreenSKU and each
	// baseline generation.
	ev.PerCoreGreen, err = f.Carbon.PerCore(in.Green, ci)
	if err != nil {
		return ev, err
	}
	basePC := map[int]carbon.PerCore{}
	for gen := 1; gen <= 3; gen++ {
		pc, err := f.Carbon.PerCore(hw.BaselineForGeneration(gen), ci)
		if err != nil {
			return ev, err
		}
		basePC[gen] = pc
	}
	ev.PerCoreBase, err = f.Carbon.PerCore(in.Baseline, ci)
	if err != nil {
		return ev, err
	}
	ev.PerCoreSavings, err = f.Carbon.SavingsVs(in.Green, in.Baseline, ci)
	if err != nil {
		return ev, err
	}

	// Adoption component.
	ev.Adoption, err = adoption.Build(ev.Factors, ev.PerCoreGreen, basePC)
	if err != nil {
		return ev, err
	}

	// Maintenance component.
	serverRatio := float64(in.Baseline.Cores()) / float64(in.Green.Cores())
	emissionRatio := float64(ev.PerCoreGreen.Total()) * float64(in.Green.Cores()) /
		(float64(ev.PerCoreBase.Total()) * float64(in.Baseline.Cores()))
	ev.Maintenance, err = maintenance.Compare([]maintenance.Input{
		{SKU: in.Baseline, ServerRatio: 1, EmissionRatio: 1},
		{SKU: in.Green, ServerRatio: serverRatio, EmissionRatio: emissionRatio},
	}, f.AFRs, f.FIP)
	if err != nil {
		return ev, err
	}

	// VM allocation + cluster sizing.
	baseClass := ClassOf(in.Baseline, false)
	greenClass := ClassOf(in.Green, true)
	sizer := &cluster.Sizer{
		Base:   baseClass,
		Green:  greenClass,
		Policy: f.Policy,
		Decide: ev.Adoption.Decider(),
		Audit:  f.Audit,
	}
	ev.Mix, err = sizer.MixedSizeContext(ctx, in.Workload)
	if err != nil {
		return ev, err
	}

	// Growth buffer.
	ev.Buffered, err = f.Buffer.Apply(ev.Mix)
	if err != nil {
		return ev, err
	}

	// Cluster- and datacenter-level savings.
	baseIn := cluster.SavingsInput{Class: baseClass, PerCore: ev.PerCoreBase}
	greenIn := cluster.SavingsInput{Class: greenClass, PerCore: ev.PerCoreGreen}
	ev.ClusterSavings = f.Buffer.Savings(ev.Buffered, baseIn, greenIn)
	breakdown, err := fleet.Analyze(f.Fleet)
	if err != nil {
		return ev, err
	}
	ev.DCSavings = fleet.DCSavings(ev.ClusterSavings, breakdown)

	if chk := audit.Resolve(f.Audit); chk != nil {
		f.auditEvaluation(chk, in, baseClass, greenClass, ev)
	}
	return ev, nil
}

// auditEvaluation checks the pipeline-level invariants that no single
// component can see: the buffered cluster still covers the workload's
// peak demand, and fleet attenuation never amplifies cluster savings.
func (f *Framework) auditEvaluation(chk audit.Checker, in Input, baseClass, greenClass alloc.ServerClass, ev Evaluation) {
	if ev.Buffered.BufferServers < 0 {
		audit.Failf(chk, "core", "negative-buffer",
			"trace %s: %d buffer servers", in.Workload.Name, ev.Buffered.BufferServers)
	}
	// Buffered capacity >= peak demand. Full-node VMs requesting more
	// than one baseline server consume only the server they pin, so the
	// requested peak is not a lower bound for them (mirrors the guard
	// in cluster's sizing audit).
	skipPeak := false
	for _, v := range in.Workload.VMs {
		if v.FullNode && (v.Cores > baseClass.Cores || float64(v.Memory) > float64(baseClass.Memory)) {
			skipPeak = true
			break
		}
	}
	if !skipPeak {
		st := trace.Summarise(in.Workload)
		cores := (ev.Buffered.Mix.NBase+ev.Buffered.BufferServers)*baseClass.Cores +
			ev.Buffered.Mix.NGreen*greenClass.Cores
		if cores < st.PeakCoreDmd {
			audit.Failf(chk, "core", "buffered-capacity-below-peak",
				"trace %s: buffered capacity %d cores below peak demand %d",
				in.Workload.Name, cores, st.PeakCoreDmd)
		}
	}
	// DCSavings scales ClusterSavings by compute's share of datacenter
	// emissions, a fraction in [0, 1]: attenuation only.
	if math.Abs(ev.DCSavings) > math.Abs(ev.ClusterSavings)+audit.CarbonTol {
		audit.Failf(chk, "core", "dc-savings-amplified",
			"trace %s: |DC savings| %g exceeds |cluster savings| %g",
			in.Workload.Name, ev.DCSavings, ev.ClusterSavings)
	}
}

// ClassOf is the allocator's view of a SKU: its name, cores, and
// total and local DRAM.
func ClassOf(sku hw.SKU, green bool) alloc.ServerClass {
	return alloc.ClassOf(sku.Name, sku.Cores(), sku.TotalDRAMGB(), sku.LocalDRAMGB(), green)
}

// SweepCI evaluates the design across carbon intensities, reusing the
// CI-independent scaling factors (Fig. 11/12).
func (f *Framework) SweepCI(in Input, cis []units.CarbonIntensity) ([]Evaluation, error) {
	return f.SweepContext(context.Background(), in, cis)
}

// SweepContext evaluates the design across carbon intensities on the
// evaluation engine: the CI-independent scaling factors are profiled
// once, then the per-CI evaluations fan across f.Workers workers with
// results in cis order — identical to the serial path, since each
// evaluation is a pure function of its input.
func (f *Framework) SweepContext(ctx context.Context, in Input, cis []units.CarbonIntensity) ([]Evaluation, error) {
	factors := in.Factors
	if factors == nil {
		var err error
		factors, err = f.profileFor(ctx, in.Green)
		if err != nil {
			return nil, err
		}
	}
	results := engine.Map(ctx, f.Workers, len(cis), func(ctx context.Context, i int) (Evaluation, error) {
		run := in
		run.CI = cis[i]
		run.Factors = factors
		return f.EvaluateContext(ctx, run)
	})
	return engine.Collect(results)
}

// JobResult is one outcome of an EvaluateAll batch.
type JobResult struct {
	Eval Evaluation
	Err  error
}

// EvaluateAll fans independent evaluation jobs across the engine and
// returns per-job outcomes slotted by input index: job i's result is
// always at index i, and one job's failure (or panic) does not disturb
// the others.
func (f *Framework) EvaluateAll(ctx context.Context, inputs []Input) []JobResult {
	results := engine.Map(ctx, f.Workers, len(inputs), func(ctx context.Context, i int) (Evaluation, error) {
		return f.EvaluateContext(ctx, inputs[i])
	})
	out := make([]JobResult, len(results))
	for i, r := range results {
		out[i] = JobResult{Eval: r.Value, Err: r.Err}
	}
	return out
}

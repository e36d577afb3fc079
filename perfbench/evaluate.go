package main

import (
	"context"
	"fmt"

	"github.com/greensku/gsf"
	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/perf"
	"github.com/greensku/gsf/internal/trace"
)

// Evaluate workload inputs: evalTraces distinct traces per run, cycled
// through, each one week at trace.DefaultParams' arrival rate (~4000
// VMs; the default horizon is two weeks), large enough that sizing
// dominates an evaluation.
const (
	evalTraces   = 32
	evalArrivals = 24.0
	evalHours    = 24 * 7.0
)

type evalEnv struct {
	fw     *gsf.Framework
	traces []trace.Trace
}

func newEvalEnv(seed uint64) (*evalEnv, error) {
	// Every repetition starts from a cold process-wide SLO memo, so each
	// pays the same profiling cost.
	perf.ResetSLOCache()
	m, err := gsf.NewModel(gsf.OpenSourceData())
	if err != nil {
		return nil, err
	}
	e := &evalEnv{fw: m.Framework()}
	for i := 0; i < evalTraces; i++ {
		p := trace.DefaultParams(fmt.Sprintf("perfbench-%d", i), seed*evalTraces+uint64(i))
		p.ArrivalsPerHour, p.HorizonHours = evalArrivals, evalHours
		tr, err := trace.Generate(p)
		if err != nil {
			return nil, err
		}
		e.traces = append(e.traces, tr)
	}
	// A small first evaluation fills the profile cache, as the first
	// request to a long-running service does.
	p := trace.DefaultParams("perfbench-warm", seed)
	p.HorizonHours = 24
	warm, err := trace.Generate(p)
	if err != nil {
		return nil, err
	}
	if _, err := e.fw.EvaluateContext(context.Background(), evalInput(warm)); err != nil {
		return nil, err
	}
	return e, nil
}

func evalInput(tr trace.Trace) gsf.Input {
	return gsf.Input{Green: gsf.GreenSKUFull(), Baseline: gsf.BaselineGen3(), Workload: tr}
}

// runEvaluate times Framework.EvaluateContext. Counts: cache_hits and
// cache_hit_pct are profile-cache lookups.
func runEvaluate(cfg config) (outcome, error) {
	ctx := context.Background()
	env, setups, err := setUp(func() (*evalEnv, error) { return newEvalEnv(cfg.seed) }, nil)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{setups: setups, counts: map[string]float64{}}
	hits0, misses0 := env.fw.ProfileCacheStats()
	first := make([]*gsf.Evaluation, len(env.traces))
	err = measure(cfg, &out, func() {
		out.latencies, out.failed = loop(cfg, func(i int) error {
			k := i % len(env.traces)
			ev, err := env.fw.EvaluateContext(ctx, evalInput(env.traces[k]))
			if err != nil {
				return err
			}
			if first[k] == nil {
				first[k] = &ev
			} else if !sameEvaluation(*first[k], ev) {
				out.note(fmt.Errorf("trace %s: evaluation changed between repetitions", env.traces[k].Name))
			}
			return nil
		})
	})
	if err != nil {
		return outcome{}, err
	}
	out.attempted = len(out.latencies)
	hits, misses := env.fw.ProfileCacheStats()
	out.counts["cache_hits"] = float64(hits - hits0)
	out.counts["cache_hit_pct"] = hitPct(hits-hits0, misses-misses0)

	// Outside the window: each distinct answer must survive an
	// independent replay of its cluster sizes.
	for k, ev := range first {
		if ev == nil {
			continue
		}
		if err := checkSizing(ctx, env.fw, evalInput(env.traces[k]), *ev); err != nil {
			out.note(err)
		}
	}
	return out, nil
}

func sameEvaluation(a, b gsf.Evaluation) bool {
	return a.Mix == b.Mix && a.Buffered == b.Buffered &&
		a.ClusterSavings == b.ClusterSavings && a.DCSavings == b.DCSavings &&
		a.PerCoreSavings.Total == b.PerCoreSavings.Total
}

func serverClass(sku hw.SKU, green bool) alloc.ServerClass {
	return alloc.ClassOf(sku.Name, sku.Cores(), sku.TotalDRAMGB(), sku.LocalDRAMGB(), green)
}

// checkSizing replays the trace against the sized clusters: the
// all-baseline size and the mixed size must each host every VM, and one
// server fewer of the searched kind must not.
func checkSizing(ctx context.Context, fw *gsf.Framework, in gsf.Input, ev gsf.Evaluation) error {
	base, green := serverClass(in.Baseline, false), serverClass(in.Green, true)
	decide := ev.Adoption.Decider()
	hosts := func(what string, nBase, nGreen int, want bool) error {
		res, err := alloc.SimulateContext(ctx, in.Workload, alloc.Config{
			Base: base, NBase: nBase, Green: green, NGreen: nGreen,
			Policy: fw.Policy, PreferNonEmpty: true,
		}, decide)
		if err != nil {
			return err
		}
		if (res.Rejected == 0) != want {
			return fmt.Errorf("trace %s: %s (%d baseline + %d green servers) rejected %d VMs",
				in.Workload.Name, what, nBase, nGreen, res.Rejected)
		}
		return nil
	}
	m := ev.Mix
	if err := hosts("baseline-only size", m.BaselineOnly, 0, true); err != nil {
		return err
	}
	if err := hosts("baseline-only size less one", m.BaselineOnly-1, 0, false); err != nil {
		return err
	}
	if err := hosts("mixed size", m.NBase, m.NGreen, true); err != nil {
		return err
	}
	if m.NGreen > 0 {
		return hosts("mixed size less one green", m.NBase, m.NGreen-1, false)
	}
	return nil
}

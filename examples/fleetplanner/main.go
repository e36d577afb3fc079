// Fleet planner: the end-to-end deployment workflow a capacity team
// would run with GSF. It chains the repository's subsystems:
//
//  1. search the SKU design space for the carbon-optimal feasible
//     design at the region's carbon intensity (§VIII),
//  2. right-size a mixed cluster for a production-like workload —
//     evaluating the optimal design and the catalog GreenSKUs in one
//     fan-out on the evaluation engine,
//  3. plan the donor harvest that supplies the reused components (§III),
//  4. size the growth buffer (§IV-D),
//
// and report the resulting carbon position.
//
//	go run ./examples/fleetplanner
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/greensku/gsf/internal/buffer"
	"github.com/greensku/gsf/internal/carbon"
	"github.com/greensku/gsf/internal/carbondata"
	"github.com/greensku/gsf/internal/cluster"
	"github.com/greensku/gsf/internal/core"
	"github.com/greensku/gsf/internal/design"
	"github.com/greensku/gsf/internal/growth"
	"github.com/greensku/gsf/internal/harvest"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/trace"
	"github.com/greensku/gsf/internal/units"
)

func main() {
	const region = "Azure-us-east"
	const regionCI = units.CarbonIntensity(0.095)
	data := carbondata.OpenSource()
	m, err := carbon.New(data)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Design: carbon-optimal SKU for this grid.
	best, err := design.MinCarbon(design.DefaultSpace(), design.DefaultConstraints(), m, regionCI)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[design]  %s: optimal SKU %s (%.1f kgCO2e/core, %.1f%% savings over %d candidates)\n",
		region, best.SKU.Name, float64(best.PerCore), best.Savings*100, best.Candidates)

	// 2. Cluster: size a mixed fleet for a two-week workload. The
	// optimal design and the catalog GreenSKUs are evaluated in one
	// engine fan-out; each SKU's performance profile is computed once.
	fw := core.New(m)
	workload, err := trace.Generate(trace.DefaultParams("fleetplanner", 20240407))
	if err != nil {
		log.Fatal(err)
	}
	candidates := []hw.SKU{best.SKU, hw.GreenSKUEfficient(), hw.GreenSKUCXL()}
	evs, err := evaluateFleet(context.Background(), fw, candidates, workload, regionCI)
	if err != nil {
		log.Fatal(err)
	}
	ev := evs[0] // the optimal design drives the rest of the plan
	fmt.Printf("[cluster] %d all-baseline servers -> %d baseline + %d green\n",
		ev.Mix.BaselineOnly, ev.Mix.NBase, ev.Mix.NGreen)
	fmt.Printf("[cluster] savings %.1f%% cluster-level, %.1f%% datacenter-level\n",
		ev.ClusterSavings*100, ev.DCSavings*100)
	for i, sku := range candidates[1:] {
		alt := evs[i+1]
		fmt.Printf("[cluster] alternative %-18s would save %.1f%% cluster-level\n",
			sku.Name, alt.ClusterSavings*100)
	}

	// 3. Supply: harvest donors for the reused components.
	demand := harvest.DemandFor(best.SKU)
	if demand.DIMMs == 0 && demand.SSDs == 0 {
		fmt.Println("[harvest] design reuses no components; no donors needed")
	} else {
		plan, err := harvest.PlanFleet(best.SKU, ev.Mix.NGreen, harvest.Donor2018(),
			harvest.DefaultYield(), data)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[harvest] %d donor servers supply %d GreenSKUs (bottleneck: %s; avoids %.1f tCO2e embodied)\n",
			plan.Donors, plan.SKUs, plan.Bottleneck, float64(plan.AvoidedEmbodied)/1000)
	}

	// 4. Buffer: validate the growth buffer against simulated demand.
	minBuf, err := growth.MinimalBuffer(growth.DefaultParams(),
		[]float64{0.05, 0.10, 0.15, 0.20, 0.30}, 0.02)
	if err != nil {
		log.Fatal(err)
	}
	policy := buffer.Params{Fraction: minBuf}
	buf, err := policy.Apply(ev.Mix)
	if err != nil {
		log.Fatal(err)
	}
	baseIn := cluster.SavingsInput{Class: core.ClassOf(hw.BaselineGen3(), false), PerCore: ev.PerCoreBase}
	greenIn := cluster.SavingsInput{Class: core.ClassOf(best.SKU, true), PerCore: ev.PerCoreGreen}
	fmt.Printf("[buffer]  %.0f%% buffer (%d baseline servers) keeps stockouts <2%%; buffered savings %.1f%%\n",
		minBuf*100, buf.BufferServers, policy.Savings(buf, baseIn, greenIn)*100)
}

// evaluateFleet evaluates every candidate against the same baseline
// and workload in one engine fan-out, returning evaluations in
// candidate order.
func evaluateFleet(ctx context.Context, fw *core.Framework, skus []hw.SKU, workload trace.Trace, ci units.CarbonIntensity) ([]core.Evaluation, error) {
	inputs := make([]core.Input, len(skus))
	for i, sku := range skus {
		inputs[i] = core.Input{
			Green:    sku,
			Baseline: hw.BaselineGen3(),
			Workload: workload,
			CI:       ci,
		}
	}
	results := fw.EvaluateAll(ctx, inputs)
	evs := make([]core.Evaluation, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("evaluate %s: %w", skus[i].Name, r.Err)
		}
		evs[i] = r.Eval
	}
	return evs, nil
}

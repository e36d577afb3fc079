package experiments

// Extension experiments: mechanisms the paper describes in prose (or
// defers to future work) that the reproduction implements as full
// substrates — memory tiering, SSD stripe planning, power derating and
// oversubscription, growth-buffer sizing, and the §VIII design-space
// search.

import (
	"fmt"
	"io"

	"github.com/greensku/gsf/internal/analysis"
	"github.com/greensku/gsf/internal/carbon"
	"github.com/greensku/gsf/internal/carbondata"
	"github.com/greensku/gsf/internal/design"
	"github.com/greensku/gsf/internal/growth"
	"github.com/greensku/gsf/internal/harvest"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/memtier"
	"github.com/greensku/gsf/internal/power"
	"github.com/greensku/gsf/internal/report"
	"github.com/greensku/gsf/internal/storage"
)

// MemTier runs the Pond-style tiering study behind GreenSKU-CXL's
// "98% of applications incur <5% slowdown" claim.
func MemTier() (memtier.StudyResult, error) {
	return memtier.Study(20000, 20240403)
}

// RenderMemTier writes the study.
func RenderMemTier(w io.Writer, r memtier.StudyResult) error {
	t := report.Table{
		Title:  "Memory tiering (Pond-style prediction on GreenSKU-CXL)",
		Header: []string{"metric", "measured", "paper"},
	}
	t.AddRow("VMs under 5% slowdown", report.Pct(r.UnderFivePct), "98%")
	t.AddRow("mean untouched memory", report.Pct(r.MeanUntouched), "~50%")
	t.AddRow("memory served from CXL", report.Pct(r.CXLShare), "-")
	t.AddRow("memory of fully-CXL apps", report.Pct(r.EntirelyCXLShare), "~20% of core-hours")
	t.AddRow("p99 VM slowdown", fmt.Sprintf("%.3fx", r.P99Slowdown), "-")
	return t.Render(w)
}

// StoragePlan stripes GreenSKU-Full's reused SSDs against the new-drive
// envelope (§III's RAID mitigation).
func StoragePlan() (storage.ReusePlan, error) {
	return storage.PlanGreenSKUFull()
}

// RenderStoragePlan writes the plan.
func RenderStoragePlan(w io.Writer, plan storage.ReusePlan) error {
	t := report.Table{
		Title:  "Reused-SSD stripe plan (target: new E1.S, 2.3 GB/s & 600 IOPS)",
		Header: []string{"set", "drives", "capacity (TB)", "write GB/s", "IOPS"},
	}
	for i, s := range plan.Sets {
		t.AddRow(fmt.Sprint(i), fmt.Sprint(len(s.Members)),
			fmt.Sprintf("%.0f", s.CapacityTB()),
			fmt.Sprintf("%.1f", s.WriteGBs()), fmt.Sprintf("%.0f", s.IOPS()))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "  leftover drives: %d (paper: reuse has no adoption side effects)\n", plan.Leftover)
	return err
}

// PowerStudyResult bundles the derating curve and the rack
// oversubscription check behind §V's power-limit arithmetic.
type PowerStudyResult struct {
	Curve    power.Curve
	Loads    []float64
	Derates  []float64
	RackOver power.OversubscriptionResult
}

// PowerStudy evaluates the default derating curve and a 35-server rack
// of GreenSKU-class servers against the 15 kW cap.
func PowerStudy() (PowerStudyResult, error) {
	c := power.Default()
	r := PowerStudyResult{Curve: c}
	for u := 0.0; u <= 1.0001; u += 0.1 {
		r.Loads = append(r.Loads, u)
		r.Derates = append(r.Derates, c.Derate(u))
	}
	over, err := power.Oversubscription(c, power.AzureLike(), 850, 35, 14500, 5000, 20240405)
	if err != nil {
		return r, err
	}
	r.RackOver = over
	return r, nil
}

// Render writes the power study.
func (r PowerStudyResult) Render(w io.Writer) error {
	if err := report.RenderSeries(w, "SPEC-load derating curve (Table VI: 0.44 at 40%)", "load", "P/TDP",
		[]report.Series{{Name: "derate", X: r.Loads, Y: r.Derates}}); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "  35-server rack vs 14.5 kW budget: mean %.0f W, p99 %.0f W, breach probability %.4f\n",
		float64(r.RackOver.MeanPower), float64(r.RackOver.P99Power), r.RackOver.BreachProb)
	return err
}

// GrowthStudyResult holds the buffer-sizing sweep.
type GrowthStudyResult struct {
	Results []growth.Result
	Minimal float64
}

// GrowthStudy sweeps buffer fractions and finds the smallest one that
// keeps stockouts under 2% of weeks.
func GrowthStudy() (GrowthStudyResult, error) {
	p := growth.DefaultParams()
	fractions := []float64{0, 0.05, 0.10, 0.15, 0.20, 0.30}
	results, err := growth.SweepBuffers(p, fractions)
	if err != nil {
		return GrowthStudyResult{}, err
	}
	min, err := growth.MinimalBuffer(p, fractions, 0.02)
	if err != nil {
		return GrowthStudyResult{}, err
	}
	return GrowthStudyResult{Results: results, Minimal: min}, nil
}

// Render writes the sweep.
func (r GrowthStudyResult) Render(w io.Writer) error {
	t := report.Table{
		Title:  "Growth-buffer sizing (one year, 6-week procurement lead time)",
		Header: []string{"buffer", "stockout weeks", "stockout prob", "mean idle"},
	}
	for _, res := range r.Results {
		t.AddRow(report.Pct(res.BufferFraction), fmt.Sprint(res.StockoutWeeks),
			fmt.Sprintf("%.3f", res.StockoutProb), report.Pct(res.MeanIdleFraction))
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "  minimal buffer under 2%% stockout: %s (GSF's buffer component defaults to 15%%)\n",
		report.Pct(r.Minimal))
	return err
}

// LifetimeResult holds the extend-vs-replace comparison per baseline
// generation.
type LifetimeResult struct {
	Studies []analysis.LifetimeStudy
	Gens    []int
}

// Lifetime evaluates extending each deployed generation at age six
// versus replacing it with GreenSKU-Full (§VII-B's discussion of
// lifetime extension as an alternative strategy).
func Lifetime() (LifetimeResult, error) {
	var out LifetimeResult
	for gen := 1; gen <= 3; gen++ {
		st, err := analysis.EvaluateLifetimeExtension("open-source", gen, 6, hw.GreenSKUFull(), 0)
		if err != nil {
			return out, err
		}
		out.Studies = append(out.Studies, st)
		out.Gens = append(out.Gens, gen)
	}
	return out, nil
}

// Render writes the comparison.
func (r LifetimeResult) Render(w io.Writer) error {
	t := report.Table{
		Title:  "Lifetime extension vs GreenSKU replacement at CI 0.1 (per delivered Gen3-equivalent core-year)",
		Header: []string{"generation", "extend kgCO2e", "replace kgCO2e", "winner", "break-even CI"},
	}
	for i, st := range r.Studies {
		winner := "extend"
		if st.ReplaceWins {
			winner = "replace"
		}
		t.AddRow(fmt.Sprintf("Gen%d", r.Gens[i]),
			fmt.Sprintf("%.2f", float64(st.Extend.PerCoreYear)),
			fmt.Sprintf("%.2f", float64(st.Replace.PerCoreYear)),
			winner,
			fmt.Sprintf("%.3f", float64(st.BreakEvenCI)))
	}
	return t.Render(w)
}

// DesignSearchResult is the carbon-optimal design of the §VIII
// component space at two grid intensities.
type DesignSearchResult struct {
	Optimum design.Optimum
	// HighCI is the optimum at a coal-heavy grid, showing the design
	// shift away from reuse.
	HighCI design.Optimum
}

// DesignSearch ranks every feasible design of the §VIII space on
// carbon per core under the open dataset.
func DesignSearch() (DesignSearchResult, error) {
	m, err := carbon.New(carbondata.OpenSource())
	if err != nil {
		return DesignSearchResult{}, err
	}
	space, cons := design.DefaultSpace(), design.DefaultConstraints()
	var out DesignSearchResult
	if out.Optimum, err = design.MinCarbon(space, cons, m, 0); err != nil {
		return out, err
	}
	out.HighCI, err = design.MinCarbon(space, cons, m, 0.7)
	return out, err
}

// Render writes both optima.
func (r DesignSearchResult) Render(w io.Writer) error {
	t := report.Table{
		Title:  "§VIII design-space search (open data)",
		Header: []string{"method", "best design", "per-core kgCO2e", "savings", "designs evaluated"},
	}
	row := func(name string, res design.Optimum) {
		t.AddRow(name, res.SKU.Name, fmt.Sprintf("%.1f", float64(res.PerCore)),
			report.Pct(res.Savings), fmt.Sprint(res.Candidates))
	}
	row("exhaustive @ CI 0.1", r.Optimum)
	row("exhaustive @ CI 0.7", r.HighCI)
	return t.Render(w)
}

// HarvestResult sizes the donor pool for a 1000-server GreenSKU-Full
// fleet.
type HarvestResult struct {
	Plan harvest.Plan
}

// Harvest plans the reuse supply chain (§III's decommissioned donors).
func Harvest() (HarvestResult, error) {
	plan, err := harvest.PlanFleet(hw.GreenSKUFull(), 1000, harvest.Donor2018(),
		harvest.DefaultYield(), carbondata.OpenSource())
	if err != nil {
		return HarvestResult{}, err
	}
	return HarvestResult{Plan: plan}, nil
}

// Render writes the harvest plan.
func (r HarvestResult) Render(w io.Writer) error {
	t := report.Table{
		Title:  "Harvest plan: 1000 GreenSKU-Fulls from decommissioned 2018 donors",
		Header: []string{"metric", "value"},
	}
	t.AddRow("donor servers required", fmt.Sprint(r.Plan.Donors))
	t.AddRow("bottleneck component", r.Plan.Bottleneck)
	t.AddRow("spare harvested DIMMs", fmt.Sprint(r.Plan.SpareDIMMs))
	t.AddRow("spare harvested SSDs", fmt.Sprint(r.Plan.SpareSSDs))
	t.AddRow("embodied avoided (fleet)", fmt.Sprintf("%.0f tCO2e", float64(r.Plan.AvoidedEmbodied)/1000))
	return t.Render(w)
}

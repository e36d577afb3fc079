package experiments

import (
	"context"
	"fmt"
	"io"

	"github.com/greensku/gsf/internal/adoption"
	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/analysis"
	"github.com/greensku/gsf/internal/carbon"
	"github.com/greensku/gsf/internal/carbondata"
	"github.com/greensku/gsf/internal/cluster"
	"github.com/greensku/gsf/internal/core"
	"github.com/greensku/gsf/internal/engine"
	"github.com/greensku/gsf/internal/fleet"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/perf"
	"github.com/greensku/gsf/internal/report"
	"github.com/greensku/gsf/internal/stats"
	"github.com/greensku/gsf/internal/trace"
	"github.com/greensku/gsf/internal/units"
)

// SavingsTable computes a Table IV/VIII-style per-core savings table
// under the named dataset.
func SavingsTable(dataset string) ([]carbon.Savings, error) {
	d, ok := carbondata.Datasets()[dataset]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown dataset %q", dataset)
	}
	m, err := carbon.New(d)
	if err != nil {
		return nil, err
	}
	base := hw.BaselineGen3()
	var rows []carbon.Savings
	for _, sku := range hw.TableIVConfigs()[1:] { // skip the baseline row
		s, err := m.SavingsVs(sku, base, d.DefaultCI)
		if err != nil {
			return nil, err
		}
		rows = append(rows, s)
	}
	return rows, nil
}

// RenderSavingsTable writes the table with the paper's reference
// column.
func RenderSavingsTable(w io.Writer, title string, rows []carbon.Savings, paper map[string][3]int) error {
	t := report.Table{
		Title:  title,
		Header: []string{"SKU", "operational", "embodied", "total", "paper (op/emb/total)"},
	}
	for _, r := range rows {
		ref := "-"
		if p, ok := paper[r.SKU]; ok {
			ref = fmt.Sprintf("%d%% / %d%% / %d%%", p[0], p[1], p[2])
		}
		t.AddRow(r.SKU, report.Pct(r.Operational), report.Pct(r.Embodied), report.Pct(r.Total), ref)
	}
	return t.Render(w)
}

// PaperTable4 and PaperTable8 are the published reference values.
var (
	PaperTable4 = map[string][3]int{
		"Baseline-Resized":   {3, 6, 4},
		"GreenSKU-Efficient": {29, 14, 23},
		"GreenSKU-CXL":       {23, 25, 24},
		"GreenSKU-Full":      {17, 43, 28},
	}
	PaperTable8 = map[string][3]int{
		"Baseline-Resized":   {6, 10, 8},
		"GreenSKU-Efficient": {16, 14, 15},
		"GreenSKU-CXL":       {15, 32, 24},
		"GreenSKU-Full":      {14, 38, 26},
	}
)

// PackingOptions sizes the Fig. 9/10 study.
type PackingOptions struct {
	Traces  int    // how many of the 35 production-like traces to use
	Dataset string // carbon dataset driving adoption decisions
	Green   hw.SKU
}

// DefaultPackingOptions uses all 35 traces and GreenSKU-Full, as in
// Fig. 9.
func DefaultPackingOptions() PackingOptions {
	return PackingOptions{Traces: 35, Dataset: "open-source", Green: hw.GreenSKUFull()}
}

// PackingResult is the Fig. 9/10 dataset: one comparison per trace.
type PackingResult struct {
	PerTrace []cluster.PackingComparison
	// CDF inputs (Fig. 9): mean packing densities per trace.
	BaseCore, BaseMem   []float64
	GreenCore, GreenMem []float64
	// CDF inputs (Fig. 10): mean per-server max memory utilisation.
	BaseMaxMem, GreenMaxMem []float64
	// LocalFit is the fraction of green-server observations whose
	// touched memory fits in local DDR5 (paper: almost all; only 3%
	// of traces need CXL).
	LocalFit float64
}

// Packing runs the packing study.
func Packing(opt PackingOptions) (PackingResult, error) {
	return PackingContext(context.Background(), opt)
}

// PackingContext runs the packing study on the evaluation engine: the
// per-trace comparisons are independent, so they fan across GOMAXPROCS
// workers with results in suite order — identical to the serial loop.
func PackingContext(ctx context.Context, opt PackingOptions) (PackingResult, error) {
	var out PackingResult
	suite, err := trace.ProductionSuite()
	if err != nil {
		return out, err
	}
	if opt.Traces > 0 && opt.Traces < len(suite) {
		suite = suite[:opt.Traces]
	}
	sizer, err := NewSizerContext(ctx, opt.Dataset, opt.Green)
	if err != nil {
		return out, err
	}
	pcs, err := engine.Collect(engine.Map(ctx, 0, len(suite),
		func(ctx context.Context, i int) (cluster.PackingComparison, error) {
			return sizer.ComparePackingContext(ctx, suite[i])
		}))
	if err != nil {
		return out, err
	}
	var localFit, observed float64
	for _, pc := range pcs {
		out.PerTrace = append(out.PerTrace, pc)
		out.BaseCore = append(out.BaseCore, pc.Baseline.CorePacking)
		out.BaseMem = append(out.BaseMem, pc.Baseline.MemPacking)
		out.GreenCore = append(out.GreenCore, pc.Green.CorePacking)
		out.GreenMem = append(out.GreenMem, pc.Green.MemPacking)
		out.BaseMaxMem = append(out.BaseMaxMem, pc.Baseline.MaxMemUtil)
		out.GreenMaxMem = append(out.GreenMaxMem, pc.Green.MaxMemUtil)
		localFit += pc.Green.LocalFitsFrac
		observed++
	}
	if observed > 0 {
		out.LocalFit = localFit / observed
	}
	return out, nil
}

// NewSizer builds a cluster sizer for a GreenSKU whose adoption
// decisions follow the named carbon dataset at its default carbon
// intensity: the performance component supplies scaling factors, the
// carbon model per-core emissions, and the adoption component the
// per-VM directives.
func NewSizer(dataset string, green hw.SKU) (*cluster.Sizer, error) {
	return NewSizerContext(context.Background(), dataset, green)
}

// NewSizerContext is NewSizer with cancellation of the profiling runs.
func NewSizerContext(ctx context.Context, dataset string, green hw.SKU) (*cluster.Sizer, error) {
	d, ok := carbondata.Datasets()[dataset]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown dataset %q", dataset)
	}
	m, err := carbon.New(d)
	if err != nil {
		return nil, err
	}
	factors, err := perf.TableIIIContext(ctx, green, perf.DefaultOptions())
	if err != nil {
		return nil, err
	}
	greenPC, err := m.PerCore(green, d.DefaultCI)
	if err != nil {
		return nil, err
	}
	basePC := map[int]carbon.PerCore{}
	for gen := 1; gen <= 3; gen++ {
		pc, err := m.PerCore(hw.BaselineForGeneration(gen), d.DefaultCI)
		if err != nil {
			return nil, err
		}
		basePC[gen] = pc
	}
	table, err := adoption.Build(factors, greenPC, basePC)
	if err != nil {
		return nil, err
	}
	base := hw.BaselineGen3()
	return &cluster.Sizer{
		Base:   alloc.ServerClass{Name: base.Name, Cores: base.Cores(), Memory: base.TotalDRAMGB(), LocalMemory: base.LocalDRAMGB()},
		Green:  alloc.ServerClass{Name: green.Name, Cores: green.Cores(), Memory: green.TotalDRAMGB(), LocalMemory: green.LocalDRAMGB(), Green: true},
		Policy: alloc.BestFit,
		Decide: table.Decider(),
	}, nil
}

// RenderFig9 writes the packing-density CDFs.
func (r PackingResult) RenderFig9(w io.Writer) error {
	series := func(name string, vals []float64) report.Series {
		s := report.Series{Name: name}
		for _, p := range stats.CDF(vals) {
			s.X = append(s.X, p.Value)
			s.Y = append(s.Y, p.Fraction)
		}
		return s
	}
	if _, err := fmt.Fprintln(w, "Fig. 9: CDFs of mean packing density per trace (paper: baseline packs cores tighter, GreenSKU-Full packs memory tighter)"); err != nil {
		return err
	}
	for _, pair := range []struct {
		label string
		base  []float64
		green []float64
	}{
		{"core packing", r.BaseCore, r.GreenCore},
		{"memory packing", r.BaseMem, r.GreenMem},
	} {
		err := report.RenderSeries(w, pair.label, "density", "CDF", []report.Series{
			series("baseline", pair.base),
			series("greensku", pair.green),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// RenderFig10 writes the memory-utilisation CDF and CXL headroom.
func (r PackingResult) RenderFig10(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Fig. 10: per-server max memory utilisation; green servers fit local DDR5 %.1f%% of the time (paper: ~97%% of traces)\n",
		r.LocalFit*100); err != nil {
		return err
	}
	series := func(name string, vals []float64) report.Series {
		s := report.Series{Name: name}
		for _, p := range stats.CDF(vals) {
			s.X = append(s.X, p.Value)
			s.Y = append(s.Y, p.Fraction)
		}
		return s
	}
	return report.RenderSeries(w, "max memory utilisation", "utilisation", "CDF", []report.Series{
		series("baseline", r.BaseMaxMem),
		series("greensku", r.GreenMaxMem),
	})
}

// CISweepOptions sizes the Fig. 11/12 study.
type CISweepOptions struct {
	Dataset string
	// CIs are the swept carbon intensities; nil uses 8 points over
	// 0.005..0.45 kgCO2e/kWh (the figures' x range).
	CIs       []units.CarbonIntensity
	TraceSeed uint64
}

// DefaultCISweepOptions matches the figures.
func DefaultCISweepOptions(dataset string) CISweepOptions {
	return CISweepOptions{
		Dataset: dataset,
		CIs: []units.CarbonIntensity{
			0.005, 0.035, 0.07, 0.1, 0.15, 0.22, 0.35, 0.45,
		},
		TraceSeed: 20240401,
	}
}

// CISweepResult is the Fig. 11/12 content: cluster-level savings per
// GreenSKU design across carbon intensities.
type CISweepResult struct {
	CIs []units.CarbonIntensity
	// Savings maps SKU name -> per-CI cluster savings.
	Savings map[string][]float64
	// Regions are the annotated vertical lines.
	Regions []struct {
		Region string
		CI     units.CarbonIntensity
	}
	// AvgClusterSavings and DCSavings summarise the best design
	// averaged over the annotated regions (the Fig. 12 companion
	// claim: "average cluster-level savings of 14% ... data
	// center-level savings of 7%").
	AvgClusterSavings float64
	DCSavings         float64
}

// CISweep evaluates the three GreenSKUs across carbon intensities on a
// synthetic production trace.
func CISweep(opt CISweepOptions) (CISweepResult, error) {
	return CISweepContext(context.Background(), opt)
}

// CISweepContext runs the sweep on the evaluation engine: the three
// GreenSKU designs fan out in parallel, and each design's per-CI
// evaluations fan again inside Framework.SweepContext, sharing one
// profile cache so each SKU is profiled exactly once.
func CISweepContext(ctx context.Context, opt CISweepOptions) (CISweepResult, error) {
	var out CISweepResult
	d, ok := carbondata.Datasets()[opt.Dataset]
	if !ok {
		return out, fmt.Errorf("experiments: unknown dataset %q", opt.Dataset)
	}
	m, err := carbon.New(d)
	if err != nil {
		return out, err
	}
	fw := core.New(m)
	p := trace.DefaultParams("ci-sweep", opt.TraceSeed)
	p.HorizonHours = 24 * 7
	tr, err := trace.Generate(p)
	if err != nil {
		return out, err
	}
	out.CIs = opt.CIs
	out.Savings = map[string][]float64{}
	greens := []hw.SKU{hw.GreenSKUEfficient(), hw.GreenSKUCXL(), hw.GreenSKUFull()}
	perGreen, err := engine.Collect(engine.Map(ctx, 0, len(greens),
		func(ctx context.Context, i int) ([]float64, error) {
			evs, err := fw.SweepContext(ctx, core.Input{
				Green:    greens[i],
				Baseline: hw.BaselineGen3(),
				Workload: tr,
			}, opt.CIs)
			if err != nil {
				return nil, err
			}
			vals := make([]float64, len(evs))
			for j, ev := range evs {
				vals[j] = ev.ClusterSavings
			}
			return vals, nil
		}))
	if err != nil {
		return out, err
	}
	for i, green := range greens {
		out.Savings[green.Name] = perGreen[i]
	}
	out.Regions = carbondata.RegionCI

	// Summary over the annotated regions: best design per region.
	breakdown, err := fleet.Analyze(fw.Fleet)
	if err != nil {
		return out, err
	}
	var sum float64
	for _, region := range out.Regions {
		best := 0.0
		for _, vals := range out.Savings {
			v := interpolate(opt.CIs, vals, region.CI)
			if v > best {
				best = v
			}
		}
		sum += best
	}
	out.AvgClusterSavings = sum / float64(len(out.Regions))
	out.DCSavings = fleet.DCSavings(out.AvgClusterSavings, breakdown)
	return out, nil
}

func interpolate(xs []units.CarbonIntensity, ys []float64, x units.CarbonIntensity) float64 {
	if len(xs) == 0 {
		return 0
	}
	if x <= xs[0] {
		return ys[0]
	}
	for i := 1; i < len(xs); i++ {
		if x <= xs[i] {
			frac := float64(x-xs[i-1]) / float64(xs[i]-xs[i-1])
			return ys[i-1] + frac*(ys[i]-ys[i-1])
		}
	}
	return ys[len(ys)-1]
}

// Render writes the sweep as a shared-axis table plus the summary.
func (r CISweepResult) Render(w io.Writer, title string) error {
	series := make([]report.Series, 0, len(r.Savings))
	for _, name := range []string{"GreenSKU-Efficient", "GreenSKU-CXL", "GreenSKU-Full"} {
		vals, ok := r.Savings[name]
		if !ok {
			continue
		}
		s := report.Series{Name: name}
		for i, ci := range r.CIs {
			s.X = append(s.X, float64(ci))
			s.Y = append(s.Y, vals[i]*100)
		}
		series = append(series, s)
	}
	if err := report.RenderSeries(w, title, "kgCO2e/kWh", "cluster savings (%)", series); err != nil {
		return err
	}
	for _, region := range r.Regions {
		if _, err := fmt.Fprintf(w, "  region %-22s CI=%.3f\n", region.Region, float64(region.CI)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "  average cluster savings %.1f%% -> datacenter savings %.1f%% (paper: 14%% -> 7%% open data; 8%% net internal)\n",
		r.AvgClusterSavings*100, r.DCSavings*100)
	return err
}

// Sec7Result packages §VII's equivalence analyses.
type Sec7Result struct {
	RenewableIncrease float64     // paper: 0.026
	EfficiencyGain    float64     // paper: 0.28
	Lifetime          units.Hours // paper: ~13 years
	TCOGap            float64     // paper: ~0.05
}

// Sec7 computes what each alternative strategy must deliver to match
// GreenSKU-Full's savings.
func Sec7() (Sec7Result, error) {
	return Sec7Context(context.Background())
}

// Sec7Context is Sec7 with cancellation; the per-SKU TCO evaluations
// run on the evaluation engine.
func Sec7Context(ctx context.Context) (Sec7Result, error) {
	var out Sec7Result
	var err error
	// Datacenter-wide GreenSKU-Full savings of ~8% at Azure's
	// operating point (§VII uses the internal result).
	out.RenewableIncrease, err = analysis.RenewableIncreaseFor(0.08, 0.58, 0.81)
	if err != nil {
		return out, err
	}
	out.EfficiencyGain, err = analysis.EfficiencyGainFor(0.08, 0.37)
	if err != nil {
		return out, err
	}
	// Per-core 28% savings, roughly half of server emissions
	// operational.
	out.Lifetime, err = analysis.LifetimeExtensionFor(0.28, 0.475, units.Years(6))
	if err != nil {
		return out, err
	}
	m, err := carbon.New(analysis.TCODataset())
	if err != nil {
		return out, err
	}
	skus := hw.TableIVConfigs()
	totals, err := engine.Collect(engine.Map(ctx, 0, len(skus),
		func(_ context.Context, i int) (float64, error) {
			pc, err := m.PerCore(skus[i], m.Data.DefaultCI)
			if err != nil {
				return 0, err
			}
			return float64(pc.Total()), nil
		}))
	if err != nil {
		return out, err
	}
	costOpt := 0.0
	for _, total := range totals {
		if costOpt == 0 || total < costOpt {
			costOpt = total
		}
	}
	full, err := m.PerCore(hw.GreenSKUFull(), m.Data.DefaultCI)
	if err != nil {
		return out, err
	}
	out.TCOGap = float64(full.Total())/costOpt - 1
	return out, nil
}

// Render writes the §VII summary.
func (r Sec7Result) Render(w io.Writer) error {
	t := report.Table{
		Title:  "§VII: what alternatives must deliver to match GreenSKU-Full",
		Header: []string{"strategy", "required", "paper"},
	}
	t.AddRow("more renewables", fmt.Sprintf("+%.1f pp", r.RenewableIncrease*100), "+2.6 pp")
	t.AddRow("uniform energy efficiency", fmt.Sprintf("+%.0f%%", r.EfficiencyGain*100), "+28%")
	t.AddRow("server lifetime", fmt.Sprintf("%.1f years", r.Lifetime.YearsValue()), "13 years")
	t.AddRow("TCO premium of GreenSKU", report.Pct(r.TCOGap), "~5%")
	return t.Render(w)
}

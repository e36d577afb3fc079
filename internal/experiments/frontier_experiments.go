package experiments

// Frontier study: the SKU design-space search (§VIII's "how would you
// design the next GreenSKU" question). The design package enumerates
// the hardware neighbourhood around the paper's platform — CPU bin,
// DDR4-behind-CXL ratio, reused-SSD tiers, optional accelerators —
// scores every feasible candidate on embodied+operational carbon per
// core, portfolio performance per core, and rack density, and keeps
// the Pareto frontier. The paper's five Table IV configurations ride
// along as extra candidates so the artifact explains where each lands:
// on the frontier, or dominated and by what.

import (
	"context"
	"fmt"
	"io"

	"github.com/greensku/gsf/internal/design"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/report"
	"github.com/greensku/gsf/internal/units"
)

// DefaultFrontierOptions searches the stock design space with the
// paper's five Table IV configurations classified against the result.
func DefaultFrontierOptions() design.Options {
	opt := design.DefaultOptions()
	opt.Extra = hw.TableIVConfigs()
	return opt
}

// QuickFrontierOptions trims the space and the simulation budget for
// artifact regeneration and CI: two CPU bins, one CXL corner, one
// accelerator option, and short knee searches. The verdicts keep their
// meaning — the trimmed space still straddles the paper's designs.
func QuickFrontierOptions() design.Options {
	opt := DefaultFrontierOptions()
	opt.Space = design.Space{
		CPUs:            []hw.CPUSpec{hw.Genoa, hw.Bergamo},
		LocalDIMMCounts: []int{12},
		LocalDIMMGBs:    []units.GB{64, 96},
		CXLDIMMCounts:   []int{0, 8},
		NewSSDCounts:    []int{3},
		ReusedSSDCounts: []int{0},
		GPUOptions:      []design.GPUOption{{}, {Spec: hw.L4, Count: 2}},
	}
	opt.Perf.Base.Requests = 1500
	opt.Perf.KneeLo, opt.Perf.KneeHi, opt.Perf.KneeTol = 0.5, 0.9, 0.1
	return opt
}

// FrontierResult is the study output: the searched frontier plus the
// paper-SKU verdicts.
type FrontierResult struct {
	design.Result
}

// Frontier runs the design-space search.
func Frontier(opt design.Options) (FrontierResult, error) {
	return FrontierContext(context.Background(), opt)
}

// FrontierContext is Frontier with cancellation; candidate evaluation
// fans out on the evaluation engine.
func FrontierContext(ctx context.Context, opt design.Options) (FrontierResult, error) {
	res, err := design.Search(ctx, opt)
	if err != nil {
		return FrontierResult{}, err
	}
	return FrontierResult{Result: res}, nil
}

// Render writes the frontier and the paper-SKU verdicts as one table.
func (r FrontierResult) Render(w io.Writer, title string) error {
	t := report.Table{
		Title:  title,
		Header: []string{"kind", "sku", "kgCO2e/core", "perf/core", "cores/rack", "verdict"},
	}
	for _, p := range r.Frontier {
		t.AddRow("frontier", p.SKU.Name,
			fmt.Sprintf("%.2f", p.Obj.CarbonPerCore),
			fmt.Sprintf("%.3f", p.Obj.PerfPerCore),
			fmt.Sprintf("%.0f", p.Obj.CoresPerRack),
			"non-dominated")
	}
	for _, v := range r.Verdicts {
		verdict := "on frontier"
		if !v.OnFrontier {
			verdict = "dominated by " + v.DominatedBy
		}
		t.AddRow("paper", v.Point.SKU.Name,
			fmt.Sprintf("%.2f", v.Point.Obj.CarbonPerCore),
			fmt.Sprintf("%.3f", v.Point.Obj.PerfPerCore),
			fmt.Sprintf("%.0f", v.Point.Obj.CoresPerRack),
			verdict)
	}
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "  %d candidates under %s at %.3f kgCO2e/kWh, %d on the frontier\n",
		r.Candidates, r.Dataset, float64(r.CI), len(r.Frontier))
	return err
}

// CSVRows renders the study for the artifact file: frontier rows
// first (ascending carbon), then one verdict row per paper SKU — the
// explanation artifact for where each Table IV design lands.
func (r FrontierResult) CSVRows() ([]string, [][]string) {
	header := []string{"kind", "sku", "carbon_per_core_kgco2e", "perf_per_core",
		"cores_per_rack", "on_frontier", "dominated_by"}
	rows := make([][]string, 0, len(r.Frontier)+len(r.Verdicts))
	row := func(kind string, p design.Point, on bool, dom string) []string {
		return []string{kind, p.SKU.Name,
			fmt.Sprintf("%.4f", p.Obj.CarbonPerCore),
			fmt.Sprintf("%.4f", p.Obj.PerfPerCore),
			fmt.Sprintf("%.0f", p.Obj.CoresPerRack),
			fmt.Sprintf("%v", on), dom}
	}
	for _, p := range r.Frontier {
		rows = append(rows, row("frontier", p, true, ""))
	}
	for _, v := range r.Verdicts {
		rows = append(rows, row("paper", v.Point, v.OnFrontier, v.DominatedBy))
	}
	return header, rows
}

package experiments

// SKU-diversity study (§II design goal D2): cloud providers must limit
// how many SKU types they deploy, because every option adds operational
// complexity and buffer fragmentation. This experiment quantifies what
// a second GreenSKU type actually buys: it sizes (a) a cluster with
// GreenSKU-Full alone and (b) a cluster deploying GreenSKU-Full plus
// GreenSKU-Efficient, with each VM routed to the most carbon-efficient
// SKU that adopts it, and compares the savings.

import (
	"context"
	"fmt"
	"io"

	"github.com/greensku/gsf/internal/adoption"
	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/carbon"
	"github.com/greensku/gsf/internal/carbondata"
	"github.com/greensku/gsf/internal/cluster"
	"github.com/greensku/gsf/internal/core"
	"github.com/greensku/gsf/internal/engine"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/report"
	"github.com/greensku/gsf/internal/trace"
)

// DiversityResult compares one- and two-GreenSKU deployments.
type DiversityResult struct {
	SingleMix     cluster.Mix
	SingleSavings float64
	MultiMix      cluster.MultiMix
	MultiSavings  float64
	// ExtraSavings is what the second SKU type buys.
	ExtraSavings float64
}

// Diversity runs the study on a production-like trace under the open
// dataset.
func Diversity() (DiversityResult, error) {
	return DiversityContext(context.Background())
}

// DiversityContext runs the study on the evaluation engine: the two
// GreenSKUs' performance profiles are computed in parallel, and the
// sizing searches honour cancellation.
func DiversityContext(ctx context.Context) (DiversityResult, error) {
	var out DiversityResult
	d := carbondata.OpenSource()
	m, err := carbon.New(d)
	if err != nil {
		return out, err
	}
	base := hw.BaselineGen3()
	full := hw.GreenSKUFull()
	eff := hw.GreenSKUEfficient()

	greens := []hw.SKU{full, eff} // ordered by per-core carbon: Full is greener
	tables, err := engine.Collect(engine.Map(ctx, 0, len(greens),
		func(ctx context.Context, i int) (adoption.Table, error) {
			return adoptionTable(ctx, m, greens[i])
		}))
	if err != nil {
		return out, err
	}

	p := trace.DefaultParams("diversity", 20240408)
	p.HorizonHours = 24 * 7
	tr, err := trace.Generate(p)
	if err != nil {
		return out, err
	}

	baseClass := core.ClassOf(base, false)
	greenClasses := []alloc.ServerClass{core.ClassOf(full, true), core.ClassOf(eff, true)}

	// (a) single-SKU cluster: GreenSKU-Full only.
	single := &cluster.Sizer{Base: baseClass, Green: greenClasses[0], Policy: alloc.BestFit, Decide: tables[0].Decider()}
	out.SingleMix, err = single.MixedSizeContext(ctx, tr)
	if err != nil {
		return out, err
	}

	// (b) two-SKU cluster: route each VM to the first (greenest) pool
	// whose adoption table accepts it.
	multiDecide := func(vm trace.VM) alloc.MultiDecision {
		scales := make([]float64, len(tables))
		for i, table := range tables {
			dec := table.Decider()(vm)
			if dec.Adopt {
				scales[i] = dec.Scale
			}
		}
		return alloc.MultiDecision{Scales: scales}
	}
	multi := &cluster.MultiSizer{Base: baseClass, Greens: greenClasses, Policy: alloc.BestFit, Decide: multiDecide}
	out.MultiMix, err = multi.SizeContext(ctx, tr)
	if err != nil {
		return out, err
	}

	perCoreOf := func(sku hw.SKU) (carbon.PerCore, error) { return m.PerCore(sku, d.DefaultCI) }
	basePC, err := perCoreOf(base)
	if err != nil {
		return out, err
	}
	fullPC, err := perCoreOf(full)
	if err != nil {
		return out, err
	}
	effPC, err := perCoreOf(eff)
	if err != nil {
		return out, err
	}
	basePCIn := cluster.SavingsInput{Class: baseClass, PerCore: basePC}
	out.SingleSavings = cluster.Savings(out.SingleMix, basePCIn,
		cluster.SavingsInput{Class: greenClasses[0], PerCore: fullPC})
	out.MultiSavings = cluster.MultiSavings(out.MultiMix, basePCIn, []cluster.SavingsInput{
		{Class: greenClasses[0], PerCore: fullPC},
		{Class: greenClasses[1], PerCore: effPC},
	})
	out.ExtraSavings = out.MultiSavings - out.SingleSavings
	return out, nil
}

// Render writes the comparison.
func (r DiversityResult) Render(w io.Writer) error {
	t := report.Table{
		Title:  "SKU diversity (D2): does a second GreenSKU type pay for its complexity?",
		Header: []string{"deployment", "baseline", "green servers", "cluster savings"},
	}
	t.AddRow("GreenSKU-Full only",
		fmt.Sprint(r.SingleMix.NBase), fmt.Sprint(r.SingleMix.NGreen), report.Pct(r.SingleSavings))
	t.AddRow("GreenSKU-Full + GreenSKU-Efficient",
		fmt.Sprint(r.MultiMix.NBase),
		fmt.Sprintf("%d + %d", r.MultiMix.NGreens[0], r.MultiMix.NGreens[1]),
		report.Pct(r.MultiSavings))
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "  second SKU type adds %+.2f pp of savings (paper deploys few SKU types: D2's complexity rarely pays)\n",
		r.ExtraSavings*100)
	return err
}

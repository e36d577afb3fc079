// Command gsf regenerates the paper's tables and figures from the GSF
// reproduction.
//
// Usage:
//
//	gsf list                      list available experiments
//	gsf run <experiment> [...]    run one or more experiments
//	gsf all                       run everything (slow: full packing study)
//	gsf all -quick                run everything with reduced trace counts
//	gsf artifact [dir]            write the artifact's output files (Table VII)
//
// Paper experiments: fig1 fig2 fig7 fig8 fig9 fig10 fig11 fig12 table1
// table2 table3 table4 table8 sec5 maintenance sec7 lowload.
// Extension studies: memtier storage power growth lifetime harvest
// diversity dynci, and two views of the §VIII design space: search
// (its carbon-optimal design) and frontier (its Pareto set).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"github.com/greensku/gsf/internal/experiments"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/units"
)

func ciOf(v float64) units.CarbonIntensity { return units.CarbonIntensity(v) }

type runner func(w io.Writer, quick bool) error

var registry = map[string]runner{
	"fig1": func(w io.Writer, _ bool) error {
		r, err := experiments.Fig1()
		if err != nil {
			return err
		}
		return r.Render(w)
	},
	"fig2": func(w io.Writer, _ bool) error {
		r, err := experiments.Fig2()
		if err != nil {
			return err
		}
		return r.Render(w)
	},
	"table1": func(w io.Writer, _ bool) error {
		return experiments.Table1(w)
	},
	"sec5": func(w io.Writer, _ bool) error {
		e, err := experiments.Sec5WorkedExample()
		if err != nil {
			return err
		}
		return e.Render(w)
	},
	"maintenance": func(w io.Writer, _ bool) error {
		rows, err := experiments.Sec5Maintenance()
		if err != nil {
			return err
		}
		return experiments.RenderMaintenance(w, rows)
	},
	"fig7": func(w io.Writer, _ bool) error {
		curves, err := experiments.Fig7()
		if err != nil {
			return err
		}
		for _, ac := range curves {
			if err := experiments.RenderCurves(w, "Fig. 7", ac); err != nil {
				return err
			}
		}
		return nil
	},
	"table2": func(w io.Writer, _ bool) error {
		r, err := experiments.Table2()
		if err != nil {
			return err
		}
		return r.Render(w)
	},
	"table3": func(w io.Writer, _ bool) error {
		factors, err := experiments.Table3(hw.GreenSKUEfficient())
		if err != nil {
			return err
		}
		return experiments.RenderTable3(w, factors)
	},
	"fig8": func(w io.Writer, _ bool) error {
		r, err := experiments.Fig8()
		if err != nil {
			return err
		}
		return r.Render(w)
	},
	"lowload": func(w io.Writer, _ bool) error {
		r, err := experiments.LowLoad()
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "§VI low-load latency medians: vs Gen1 %.3f (paper 0.92), vs Gen2 %.3f (paper 0.98), vs Gen3 %.3f (paper 1.16)\n",
			r.MedianVsGen1, r.MedianVsGen2, r.MedianVsGen3)
		return err
	},
	"fig9": func(w io.Writer, quick bool) error {
		r, err := packing[quick]()
		if err != nil {
			return err
		}
		return r.RenderFig9(w)
	},
	"fig10": func(w io.Writer, quick bool) error {
		r, err := packing[quick]()
		if err != nil {
			return err
		}
		return r.RenderFig10(w)
	},
	"table4": func(w io.Writer, _ bool) error {
		rows, err := experiments.SavingsTable("paper-calibrated")
		if err != nil {
			return err
		}
		return experiments.RenderSavingsTable(w,
			"Table IV: per-core savings vs Gen3 baseline (paper-calibrated data)", rows, experiments.PaperTable4)
	},
	"table8": func(w io.Writer, _ bool) error {
		rows, err := experiments.SavingsTable("open-source")
		if err != nil {
			return err
		}
		return experiments.RenderSavingsTable(w,
			"Table VIII: per-core savings vs Gen3 baseline (open data)", rows, experiments.PaperTable8)
	},
	"fig11": func(w io.Writer, quick bool) error {
		r, err := experiments.CISweep(sweepOpt("paper-calibrated", quick))
		if err != nil {
			return err
		}
		return r.Render(w, "Fig. 11: cluster savings vs carbon intensity (paper-calibrated data)")
	},
	"fig12": func(w io.Writer, quick bool) error {
		r, err := experiments.CISweep(sweepOpt("open-source", quick))
		if err != nil {
			return err
		}
		return r.Render(w, "Fig. 12: cluster savings vs carbon intensity (open data)")
	},
	"sec7": func(w io.Writer, _ bool) error {
		r, err := experiments.Sec7()
		if err != nil {
			return err
		}
		return r.Render(w)
	},
	"memtier": func(w io.Writer, _ bool) error {
		r, err := experiments.MemTier()
		if err != nil {
			return err
		}
		return experiments.RenderMemTier(w, r)
	},
	"storage": func(w io.Writer, _ bool) error {
		plan, err := experiments.StoragePlan()
		if err != nil {
			return err
		}
		return experiments.RenderStoragePlan(w, plan)
	},
	"power": func(w io.Writer, _ bool) error {
		r, err := experiments.PowerStudy()
		if err != nil {
			return err
		}
		return r.Render(w)
	},
	"growth": func(w io.Writer, _ bool) error {
		r, err := experiments.GrowthStudy()
		if err != nil {
			return err
		}
		return r.Render(w)
	},
	"search": func(w io.Writer, _ bool) error {
		r, err := experiments.DesignSearch()
		if err != nil {
			return err
		}
		return r.Render(w)
	},
	"lifetime": func(w io.Writer, _ bool) error {
		r, err := experiments.Lifetime()
		if err != nil {
			return err
		}
		return r.Render(w)
	},
	"harvest": func(w io.Writer, _ bool) error {
		r, err := experiments.Harvest()
		if err != nil {
			return err
		}
		return r.Render(w)
	},
	"diversity": func(w io.Writer, _ bool) error {
		r, err := experiments.Diversity()
		if err != nil {
			return err
		}
		return r.Render(w)
	},
	"frontier": func(w io.Writer, quick bool) error {
		opt := experiments.DefaultFrontierOptions()
		if quick {
			opt = experiments.QuickFrontierOptions()
		}
		r, err := experiments.Frontier(opt)
		if err != nil {
			return err
		}
		return r.Render(w, "Frontier: SKU design-space search (carbon/perf/density Pareto set)")
	},
	"dynci": func(w io.Writer, quick bool) error {
		opt := experiments.DefaultDynCIOptions()
		if quick {
			opt.Traces = 6
		}
		r, err := experiments.DynCI(opt)
		if err != nil {
			return err
		}
		return r.Render(w, "Dynamic CI: carbon-aware temporal scheduling under a diurnal grid")
	},
}

// packing runs the Fig. 9/10 study at most once per process for each
// quick setting: fig9 and fig10 render the same result.
var packing = map[bool]func() (experiments.PackingResult, error){
	false: sync.OnceValues(func() (experiments.PackingResult, error) {
		return experiments.Packing(experiments.DefaultPackingOptions())
	}),
	true: sync.OnceValues(func() (experiments.PackingResult, error) {
		opt := experiments.DefaultPackingOptions()
		opt.Traces = 8
		return experiments.Packing(opt)
	}),
}

func sweepOpt(dataset string, quick bool) experiments.CISweepOptions {
	opt := experiments.DefaultCISweepOptions(dataset)
	if quick {
		opt.CIs = opt.CIs[:0]
		for _, ci := range []float64{0.01, 0.1, 0.35} {
			opt.CIs = append(opt.CIs, ciOf(ci))
		}
	}
	return opt
}

func names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gsf:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: gsf {list|run <experiment>...|all|artifact [dir]} [-quick]")
	}
	fs := flag.NewFlagSet("gsf", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "reduce trace counts and sweep points")
	cmd := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	switch cmd {
	case "artifact":
		dir := "generated_figures"
		if rest := fs.Args(); len(rest) > 0 {
			dir = rest[0]
		}
		written, err := experiments.WriteArtifacts(dir, *quick)
		if err != nil {
			return err
		}
		for _, p := range written {
			fmt.Fprintln(w, "wrote", p)
		}
		return nil
	case "list":
		for _, name := range names() {
			fmt.Fprintln(w, name)
		}
		return nil
	case "all":
		for _, name := range names() {
			fmt.Fprintf(w, "== %s ==\n", name)
			if err := registry[name](w, *quick); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	case "run":
		targets := fs.Args()
		if len(targets) == 0 {
			return fmt.Errorf("run: name at least one experiment (see 'gsf list')")
		}
		for _, name := range targets {
			r, ok := registry[name]
			if !ok {
				return fmt.Errorf("unknown experiment %q (see 'gsf list')", name)
			}
			if err := r(w, *quick); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	return fmt.Errorf("unknown command %q", cmd)
}

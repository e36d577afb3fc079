package design

import (
	"context"
	"fmt"
	"math"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/carbon"
	"github.com/greensku/gsf/internal/carbondata"
	"github.com/greensku/gsf/internal/engine"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/units"
)

// Options configure one frontier search.
type Options struct {
	Space       Space
	Constraints Constraints
	Dataset     string
	// CI is the grid carbon intensity; zero selects the dataset default.
	CI      units.CarbonIntensity
	Perf    PerfOptions
	Epsilon Objectives
	// Workers bounds the parallel candidate fan-out; <= 0 selects
	// GOMAXPROCS, 1 forces serial order. The frontier is byte-identical
	// either way.
	Workers int
	// Extra SKUs are evaluated alongside the generated candidates and
	// classified against the final frontier — the frontier experiment
	// passes the paper's five Table IV configurations here.
	Extra []hw.SKU
	// Audit receives design invariant violations (frontier recompute
	// drift, mutual domination). Nil falls back to the process default.
	Audit audit.Checker
}

// DefaultGPUOptions spans the accelerator corner of the space: no
// card, and two or four of each catalog part.
func DefaultGPUOptions() []GPUOption {
	opts := []GPUOption{{}}
	for _, g := range hw.GPUCatalog() {
		for _, n := range []int{2, 4} {
			opts = append(opts, GPUOption{Spec: g, Count: n})
		}
	}
	return opts
}

// DefaultOptions returns the stock search: the paper's design
// neighbourhood widened with the accelerator dimension, evaluated on
// the open dataset at its default CI.
func DefaultOptions() Options {
	sp := DefaultSpace()
	sp.GPUOptions = DefaultGPUOptions()
	return Options{
		Space:       sp,
		Constraints: DefaultConstraints(),
		Dataset:     "open-source",
		Perf:        DefaultPerfOptions(),
		Epsilon:     DefaultEpsilon(),
	}
}

// Candidates materialises the space's candidate SKUs in enumeration
// order: every design that satisfies the platform constraints and fits
// at least one server per rack under the dataset's power cap. The rack
// pre-check keeps undeployable corners (a GPU population blowing the
// rack power budget) out of the evaluation fan-out, so an evaluation
// error downstream always signals a real fault, never a bad corner of
// the space.
func Candidates(sp Space, c Constraints, m *carbon.Model) ([]hw.SKU, error) {
	skus := sp.feasible(c)
	out := skus[:0]
	for _, sku := range skus {
		rack, err := m.Rack(sku)
		if err != nil {
			return nil, err
		}
		if rack.Cores > 0 {
			out = append(out, sku)
		}
	}
	return out, nil
}

// Optimum is the carbon-optimal candidate of a space.
type Optimum struct {
	SKU     hw.SKU
	PerCore units.KgCO2e
	// Savings is the per-core saving against the Gen3 baseline.
	Savings float64
	// Candidates counts the designs ranked.
	Candidates int
}

// MinCarbon returns the candidate with the least carbon per core at ci
// (zero selects the dataset default), ties going to the first in
// enumeration order: the carbon-only corner of the space, for callers
// that want one design rather than a frontier.
func MinCarbon(sp Space, c Constraints, m *carbon.Model, ci units.CarbonIntensity) (Optimum, error) {
	if ci == 0 {
		ci = m.Data.DefaultCI
	}
	skus, err := Candidates(sp, c, m)
	if err != nil {
		return Optimum{}, err
	}
	best := Optimum{PerCore: units.KgCO2e(math.Inf(1)), Candidates: len(skus)}
	for _, sku := range skus {
		pc, err := m.PerCore(sku, ci)
		if err != nil {
			return Optimum{}, err
		}
		if pc.Total() < best.PerCore {
			best.SKU, best.PerCore = sku, pc.Total()
		}
	}
	if math.IsInf(float64(best.PerCore), 1) {
		return Optimum{}, fmt.Errorf("design: no feasible candidates in the space")
	}
	base, err := m.PerCore(hw.BaselineGen3(), ci)
	if err != nil {
		return Optimum{}, err
	}
	best.Savings = 1 - float64(best.PerCore)/float64(base.Total())
	return best, nil
}

// Verdict classifies one extra SKU against the searched frontier.
type Verdict struct {
	Point Point
	// OnFrontier reports the SKU survived as a frontier point.
	OnFrontier bool
	// DominatedBy names the first frontier point (in Points order)
	// that beats it; empty when OnFrontier.
	DominatedBy string
}

// Result is the output of one frontier search.
type Result struct {
	Dataset string
	CI      units.CarbonIntensity
	// Candidates counts evaluated designs (generated plus Extra).
	Candidates int
	// Frontier is the non-dominated set, ascending carbon order.
	Frontier []Point
	// Verdicts classify Options.Extra, in input order.
	Verdicts []Verdict
}

// Run is one design search split into the steps a streaming caller
// needs: NewRun enumerates, Evaluate scores one candidate, and Rank
// builds the frontier and classifies the extras. Search is the three
// in sequence; gsfd's /v1/design calls them one by one so it can cache
// and stream each candidate.
type Run struct {
	// SKUs are the candidates in enumeration order, Options.Extra
	// last; Evaluate and Rank index into it.
	SKUs []hw.SKU
	opt  Options
	ev   *Evaluator
}

// NewRun resolves the dataset, builds the carbon model and enumerates
// the candidates. It evaluates nothing, so a caller can bound
// len(SKUs) first; an empty SKUs is not an error here.
func NewRun(opt Options) (*Run, error) {
	data, ok := carbondata.Datasets()[opt.Dataset]
	if !ok {
		return nil, fmt.Errorf("design: unknown dataset %q", opt.Dataset)
	}
	m, err := carbon.New(data)
	if err != nil {
		return nil, err
	}
	m.Audit = opt.Audit
	skus, err := Candidates(opt.Space, opt.Constraints, m)
	if err != nil {
		return nil, err
	}
	return &Run{SKUs: append(skus, opt.Extra...), opt: opt, ev: NewEvaluator(m, opt.CI, opt.Perf)}, nil
}

// Evaluate scores candidate i on the run's one shared evaluator, whose
// memos make the fan-out cheap. It is safe for concurrent use.
func (r *Run) Evaluate(ctx context.Context, i int) (Point, error) {
	return r.ev.Evaluate(ctx, r.SKUs[i])
}

// Rank inserts the evaluated points into the frontier, classifies the
// evaluated extras, and audits the frontier with CheckFrontier under
// Options.Audit. pts[i] is SKUs[i]'s point; ok[i] false leaves it out
// (a candidate that failed to evaluate), and a nil ok takes them all.
// Insertion runs in index order, and because the dominance order is a
// strict partial order the frontier does not depend on that order
// anyway.
func (r *Run) Rank(ctx context.Context, pts []Point, ok []bool) Result {
	f := NewFrontier(r.opt.Epsilon)
	for i, p := range pts {
		if ok == nil || ok[i] {
			f.Insert(p)
		}
	}
	out := Result{Dataset: r.opt.Dataset, CI: r.ev.CI, Candidates: len(r.SKUs), Frontier: f.Points()}
	for i := len(r.SKUs) - len(r.opt.Extra); i < len(pts); i++ {
		if ok != nil && !ok[i] {
			continue
		}
		v := Verdict{Point: pts[i], DominatedBy: f.DominatedBy(pts[i])}
		v.OnFrontier = v.DominatedBy == ""
		out.Verdicts = append(out.Verdicts, v)
	}
	CheckFrontier(ctx, audit.Resolve(r.opt.Audit), r.ev, f)
	return out
}

// Search generates, evaluates, and ranks the design space: NewRun,
// every candidate's Evaluate fanned out through the engine, then Rank.
// The serial and parallel runs are byte-identical.
func Search(ctx context.Context, opt Options) (Result, error) {
	run, err := NewRun(opt)
	if err != nil {
		return Result{}, err
	}
	if len(run.SKUs) == 0 {
		return Result{}, fmt.Errorf("design: no feasible candidates in the space")
	}
	pts, err := engine.Collect(engine.Map(ctx, engine.Workers(opt.Workers), len(run.SKUs), run.Evaluate))
	if err != nil {
		return Result{}, err
	}
	return run.Rank(ctx, pts, nil), nil
}

// CheckFrontier audits a finished frontier: every point's objectives
// must recompute exactly through the carbon model and a fresh,
// unmemoised performance evaluation (catching an optimizer that
// mutates or mislabels points), and no frontier point may beat
// another (catching broken pruning). A nil checker skips everything.
func CheckFrontier(ctx context.Context, c audit.Checker, ev *Evaluator, f *Frontier) {
	if c == nil || f == nil {
		return
	}
	// Fresh caches, no process-wide SLO memo, and audited knee
	// searches, which draw their own columns: the recompute must not be
	// served by the state under test.
	fopt := ev.Perf
	fopt.Base.DisableSLOMemo = true
	fresh := NewEvaluator(ev.Model, ev.CI, fopt)
	fresh.audit = c
	pts := f.Points()
	for _, p := range pts {
		pc, err := fresh.Model.PerCore(p.SKU, fresh.CI)
		if err != nil {
			audit.Failf(c, "design", "frontier-recompute", "%s: %v", p.SKU.Name, err)
			continue
		}
		rack, err := fresh.Model.Rack(p.SKU)
		if err != nil {
			audit.Failf(c, "design", "frontier-recompute", "%s: %v", p.SKU.Name, err)
			continue
		}
		if !audit.Close(float64(pc.Total()), p.Obj.CarbonPerCore, audit.CarbonTol) {
			audit.Failf(c, "design", "frontier-carbon",
				"%s: stored %v kg/core, carbon model says %v", p.SKU.Name, p.Obj.CarbonPerCore, float64(pc.Total()))
		}
		if float64(rack.Cores) != p.Obj.CoresPerRack {
			audit.Failf(c, "design", "frontier-density",
				"%s: stored %v cores/rack, carbon model says %d", p.SKU.Name, p.Obj.CoresPerRack, rack.Cores)
		}
		score, err := fresh.PerfScore(ctx, p.SKU)
		if err != nil && ctx.Err() != nil {
			break // a cancelled recompute proves nothing either way
		} else if err != nil {
			audit.Failf(c, "design", "frontier-recompute", "%s: %v", p.SKU.Name, err)
		} else if !audit.Close(score, p.Obj.PerfPerCore, audit.CarbonTol) {
			audit.Failf(c, "design", "frontier-perf",
				"%s: stored score %v, perf model says %v", p.SKU.Name, p.Obj.PerfPerCore, score)
		}
	}
	for i, p := range pts {
		for j, q := range pts {
			if i != j && f.Beats(p, q) {
				audit.Failf(c, "design", "frontier-domination",
					"frontier point %s beats frontier point %s", p.SKU.Name, q.SKU.Name)
			}
		}
	}
}

package design

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/greensku/gsf/internal/apps"
	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/carbon"
	"github.com/greensku/gsf/internal/carbondata"
	"github.com/greensku/gsf/internal/engine"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/perf"
	"github.com/greensku/gsf/internal/queueing"
	"github.com/greensku/gsf/internal/units"
)

// tinySpace is a small but non-trivial space: two CPUs, a CXL corner,
// and a GPU option — eight feasible candidates over three distinct
// performance profiles.
func tinySpace() Space {
	return Space{
		CPUs:            []hw.CPUSpec{hw.Genoa, hw.Bergamo},
		LocalDIMMCounts: []int{12},
		LocalDIMMGBs:    []units.GB{64, 96},
		CXLDIMMCounts:   []int{0, 8},
		NewSSDCounts:    []int{3},
		ReusedSSDCounts: []int{0},
		GPUOptions:      []GPUOption{{}, {Spec: hw.L4, Count: 2}},
	}
}

func tinyOptions() Options {
	opt := DefaultOptions()
	opt.Space = tinySpace()
	opt.Perf.Base.Requests = 1500
	opt.Perf.KneeLo, opt.Perf.KneeHi, opt.Perf.KneeTol = 0.5, 0.9, 0.1
	return opt
}

func TestPerfScoreBaselineExactlyOne(t *testing.T) {
	m, err := carbon.New(carbondata.OpenSource())
	if err != nil {
		t.Fatal(err)
	}
	popt := DefaultPerfOptions()
	popt.Base.Requests = 1500
	popt.KneeTol = 0.1
	ev := NewEvaluator(m, 0, popt)
	score, err := ev.PerfScore(context.Background(), hw.BaselineGen3())
	if err != nil {
		t.Fatal(err)
	}
	if score != 1 {
		t.Fatalf("baseline portfolio score = %v, want exactly 1 (same knees on both sides)", score)
	}
}

func TestSearchSerialMatchesParallel(t *testing.T) {
	ctx := context.Background()
	serial := tinyOptions()
	serial.Workers = 1
	parallel := tinyOptions()
	parallel.Workers = 0
	parallel.Extra = hw.TableIVConfigs()
	serial.Extra = hw.TableIVConfigs()

	a, err := Search(ctx, serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(ctx, parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("serial and parallel searches differ:\nserial:   %+v\nparallel: %+v", a, b)
	}
}

func TestSearchVerdictsClassifyPaperSKUs(t *testing.T) {
	opt := tinyOptions()
	opt.Extra = hw.TableIVConfigs()
	res, err := Search(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	if len(res.Verdicts) != len(opt.Extra) {
		t.Fatalf("%d verdicts for %d extra SKUs", len(res.Verdicts), len(opt.Extra))
	}
	onFrontier := map[string]bool{}
	for _, p := range res.Frontier {
		onFrontier[p.SKU.Name] = true
	}
	for i, v := range res.Verdicts {
		if v.Point.SKU.Name != opt.Extra[i].Name {
			t.Errorf("verdict %d is for %s, want %s", i, v.Point.SKU.Name, opt.Extra[i].Name)
		}
		if v.OnFrontier == (v.DominatedBy != "") {
			t.Errorf("%s: OnFrontier=%v with DominatedBy=%q", v.Point.SKU.Name, v.OnFrontier, v.DominatedBy)
		}
		if v.OnFrontier && !onFrontier[v.Point.SKU.Name] {
			t.Errorf("%s marked on-frontier but absent from the frontier", v.Point.SKU.Name)
		}
		if v.DominatedBy != "" && !onFrontier[v.DominatedBy] {
			t.Errorf("%s dominated by %s, which is not a frontier point", v.Point.SKU.Name, v.DominatedBy)
		}
	}
}

// TestRunRankMasksUnevaluated drives Search's steps by hand: Rank over
// every evaluated point equals Search, and a false ok entry leaves that
// candidate out of the frontier and, for an extra, out of the verdicts.
func TestRunRankMasksUnevaluated(t *testing.T) {
	ctx := context.Background()
	opt := tinyOptions()
	opt.Extra = hw.TableIVConfigs()
	want, err := Search(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	run, err := NewRun(opt)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]Point, len(run.SKUs))
	for i := range pts {
		if pts[i], err = run.Evaluate(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	if got := run.Rank(ctx, pts, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("NewRun+Evaluate+Rank differs from Search:\n got %+v\nwant %+v", got, want)
	}

	// Drop the first generated candidate on the frontier and the first
	// extra.
	extra := len(pts) - len(opt.Extra)
	ok := make([]bool, len(pts))
	for i := range ok {
		ok[i] = true
	}
	ok[extra] = false
	dropped := ""
	for i, sku := range run.SKUs[:extra] {
		for _, p := range want.Frontier {
			if dropped == "" && p.SKU.Name == sku.Name {
				ok[i], dropped = false, sku.Name
			}
		}
	}
	if dropped == "" {
		t.Fatal("no generated candidate on the frontier")
	}
	got := run.Rank(ctx, pts, ok)
	for _, p := range got.Frontier {
		if p.SKU.Name == dropped {
			t.Errorf("unevaluated %s is on the frontier", dropped)
		}
	}
	if len(got.Verdicts) != len(want.Verdicts)-1 || got.Verdicts[0].Point.SKU.Name != want.Verdicts[1].Point.SKU.Name {
		t.Errorf("verdicts %+v, want all but the first of %+v", got.Verdicts, want.Verdicts)
	}
	if got.Candidates != want.Candidates {
		t.Errorf("candidates %d, want %d (every enumerated SKU counts)", got.Candidates, want.Candidates)
	}
}

func TestSearchRejectsUndeployableSpace(t *testing.T) {
	// A rack power cap below one server's draw leaves every design
	// fitting zero servers per rack: Candidates must filter them all
	// and Search must report an empty space rather than erroring deep
	// in evaluation.
	data := carbondata.OpenSource()
	data.RackPowerCap = 600 // 500 W rack misc leaves a 100 W budget
	m, err := carbon.New(data)
	if err != nil {
		t.Fatal(err)
	}
	skus, err := Candidates(tinySpace(), DefaultConstraints(), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(skus) != 0 {
		t.Fatalf("%d candidates survive a 100 W rack budget", len(skus))
	}
}

func TestCheckFrontierCanary(t *testing.T) {
	ctx := context.Background()
	m, err := carbon.New(carbondata.OpenSource())
	if err != nil {
		t.Fatal(err)
	}
	popt := DefaultPerfOptions()
	popt.Base.Requests = 1500
	popt.KneeLo, popt.KneeHi, popt.KneeTol = 0.5, 0.9, 0.1
	ev := NewEvaluator(m, 0, popt)
	p, err := ev.Evaluate(ctx, hw.BaselineGen3())
	if err != nil {
		t.Fatal(err)
	}

	clean := NewFrontier(DefaultEpsilon())
	clean.Insert(p)
	rec := audit.NewRecorder()
	CheckFrontier(ctx, rec, ev, clean)
	if n := rec.Count(); n != 0 {
		t.Fatalf("clean frontier recorded %d violations: %v", n, rec.Violations())
	}

	// A broken optimizer that drifts a stored objective must be caught
	// by the recompute invariants.
	broken := p
	broken.Obj.CarbonPerCore += 1
	broken.Obj.PerfPerCore *= 0.5
	broken.Obj.CoresPerRack += 80
	f := NewFrontier(DefaultEpsilon())
	f.Insert(broken)
	rec = audit.NewRecorder()
	CheckFrontier(ctx, rec, ev, f)
	counts := rec.Counts()
	for _, want := range []string{"design/frontier-carbon", "design/frontier-perf", "design/frontier-density"} {
		if counts[want] == 0 {
			t.Errorf("mutated frontier point did not trip %s (counts: %v)", want, counts)
		}
	}
}

// TestCheckFrontierCancelledRecordsNothing audits a clean frontier
// under a cancelled context, as a stream whose client went away does:
// the recompute cannot finish, and that is not a violation.
func TestCheckFrontierCancelledRecordsNothing(t *testing.T) {
	opt := tinyOptions()
	run, err := NewRun(opt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := run.Evaluate(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFrontier(DefaultEpsilon())
	f.Insert(p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := audit.NewRecorder()
	CheckFrontier(ctx, rec, run.ev, f)
	if n := rec.Count(); n != 0 {
		t.Fatalf("cancelled audit recorded %d violations: %v", n, rec.Violations())
	}
}

func TestCandidatesEnumerationOrderAndNames(t *testing.T) {
	m, err := carbon.New(carbondata.OpenSource())
	if err != nil {
		t.Fatal(err)
	}
	skus, err := Candidates(tinySpace(), DefaultConstraints(), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(skus) == 0 {
		t.Fatal("no candidates in the tiny space")
	}
	seen := map[string]bool{}
	gpuSeen := false
	for _, sku := range skus {
		if seen[sku.Name] {
			t.Errorf("duplicate candidate name %s", sku.Name)
		}
		seen[sku.Name] = true
		if sku.HasGPU() {
			gpuSeen = true
			if !strings.Contains(sku.Name, "x"+hw.L4.Name) {
				t.Errorf("GPU candidate %s does not encode its card", sku.Name)
			}
		}
	}
	if !gpuSeen {
		t.Error("no GPU-bearing candidate survived feasibility")
	}
}

// TestProfileKeyMatchesPerCallFormat pins the score memo key byte for
// byte to the format that re-rendered the options on every call, with
// the normalised-out fields set so they must still vanish from the key.
func TestProfileKeyMatchesPerCallFormat(t *testing.T) {
	m, err := carbon.New(carbondata.OpenSource())
	if err != nil {
		t.Fatal(err)
	}
	popt := DefaultPerfOptions()
	popt.Base.Workers = 3
	popt.Base.DisableSLOMemo = true
	ev := NewEvaluator(m, 0, popt)
	norm := popt
	norm.Base.Workers = 0
	norm.Base.DisableSLOMemo = false
	for _, sku := range []hw.SKU{hw.BaselineGen3(), hw.GreenSKUFull()} {
		p := perf.ProfileOf(sku, sku.HasCXL())
		want := fmt.Sprintf("%v|%v|%v|%v|%#v",
			p.CPUScore, p.LLCPerCoreMiB, p.BWPerCoreGBs, p.MemLatencyNs, norm)
		if got := ev.profileKey(p); got != want {
			t.Fatalf("%s score key:\n got %q\nwant %q", sku.Name, got, want)
		}
	}
}

// TestSearchRunsOneKneeSearchPerQueue pins the knee memo's key: a
// default search runs exactly one knee search per distinct queue, that
// is per distinct (ServiceTime, CV) pair over the baseline and every
// candidate's profile and the representative apps. Apps and profiles
// that ServiceTime maps onto the same mean share one search.
func TestSearchRunsOneKneeSearchPerQueue(t *testing.T) {
	ctx := context.Background()
	opt := DefaultOptions()
	m, err := carbon.New(carbondata.OpenSource())
	if err != nil {
		t.Fatal(err)
	}
	skus, err := Candidates(opt.Space, opt.Constraints, m)
	if err != nil {
		t.Fatal(err)
	}
	type queue struct{ mean, cv float64 }
	queues := map[queue]bool{}
	profiles := []perf.Profile{perf.ProfileOf(hw.BaselineGen3(), false)}
	for _, sku := range skus {
		profiles = append(profiles, perf.ProfileOf(sku, sku.HasCXL()))
	}
	for _, p := range profiles {
		for _, a := range apps.Representatives() {
			queues[queue{perf.ServiceTime(a, p), a.CV}] = true
		}
	}
	if len(queues) != 24 {
		t.Errorf("default space has %d distinct knee-search queues, want 24", len(queues))
	}

	ev := NewEvaluator(m, opt.CI, opt.Perf)
	_, err = engine.Collect(engine.Map(ctx, 0, len(skus), func(ctx context.Context, i int) (Point, error) {
		return ev.Evaluate(ctx, skus[i])
	}))
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := ev.KneeStats()
	if misses != int64(len(queues)) {
		t.Errorf("%d knee searches (%d memo hits), want one per distinct queue: %d", misses, hits, len(queues))
	}
}

// TestUnauditedSearchMatchesAudited pins that the unaudited search,
// whose knee searches share their seed-only draws across the process
// and run on four workers, returns the audited search's result bit for
// bit; the audited one draws every column afresh and checks the shared
// entries against them. The search runs on a seed no other test uses,
// so the shared cache starts cold for it and fills once.
func TestUnauditedSearchMatchesAudited(t *testing.T) {
	ctx := context.Background()
	opt := DefaultOptions()
	opt.Perf.Base.Seed += 7919
	opt.Workers = 1
	rec := audit.NewRecorder()
	audited := opt
	audited.Audit = rec
	prev := audit.Default()
	t.Cleanup(func() { audit.SetDefault(prev) })
	audit.SetDefault(rec)
	want, err := Search(ctx, audited)
	if err != nil {
		t.Fatal(err)
	}

	audit.SetDefault(nil)
	opt.Workers = 4
	hits0, misses0 := queueing.ColumnCacheStats()
	got, err := Search(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := queueing.ColumnCacheStats(); misses-misses0 > 1 || hits-hits0 == 0 {
		t.Errorf("unaudited search: %d shared-column misses and %d hits, want at most 1 and some", misses-misses0, hits-hits0)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unaudited search differs from the audited one:\n got %+v\nwant %+v", got, want)
	}
	// The audited recompute now finds the shared entry and checks it.
	audit.SetDefault(rec)
	if _, err := Search(ctx, audited); err != nil {
		t.Fatal(err)
	}
	if n := rec.Count(); n != 0 {
		t.Fatalf("audited searches recorded %d violations: %v", n, rec.Violations())
	}
}

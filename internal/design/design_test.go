package design

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/carbon"
	"github.com/greensku/gsf/internal/carbondata"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/perf"
	"github.com/greensku/gsf/internal/search"
	"github.com/greensku/gsf/internal/units"
)

// tinySpace is a small but non-trivial space: two CPUs, a CXL corner,
// and a GPU option — eight feasible candidates over three distinct
// performance profiles.
func tinySpace() search.Space {
	return search.Space{
		CPUs:            []hw.CPUSpec{hw.Genoa, hw.Bergamo},
		LocalDIMMCounts: []int{12},
		LocalDIMMGBs:    []units.GB{64, 96},
		CXLDIMMCounts:   []int{0, 8},
		NewSSDCounts:    []int{3},
		ReusedSSDCounts: []int{0},
		GPUOptions:      []search.GPUOption{{}, {Spec: hw.L4, Count: 2}},
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
	skus, err := Candidates(tinySpace(), search.DefaultConstraints(), m)
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

func TestCandidatesEnumerationOrderAndNames(t *testing.T) {
	m, err := carbon.New(carbondata.OpenSource())
	if err != nil {
		t.Fatal(err)
	}
	skus, err := Candidates(tinySpace(), search.DefaultConstraints(), m)
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

// TestProfileKeyMatchesPerCallFormat pins the memo keys byte for byte
// to the format that re-rendered the options on every call, with the
// normalised-out fields set so they must still vanish from the key.
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
		for _, kind := range [][2]string{{"score", ""}, {"knee", "memcached"}} {
			want := fmt.Sprintf("%s|%s|%v|%v|%v|%v|%#v", kind[0], kind[1],
				p.CPUScore, p.LLCPerCoreMiB, p.BWPerCoreGBs, p.MemLatencyNs, norm)
			if got := ev.profileKey(kind[0], kind[1], p); got != want {
				t.Fatalf("%s %s key:\n got %q\nwant %q", sku.Name, kind[0], got, want)
			}
		}
	}
}

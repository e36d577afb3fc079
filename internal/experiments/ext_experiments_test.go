package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/greensku/gsf/internal/design"
	"github.com/greensku/gsf/internal/report"
)

func TestMemTierExperiment(t *testing.T) {
	r, err := MemTier()
	if err != nil {
		t.Fatal(err)
	}
	if r.UnderFivePct < 0.97 {
		t.Fatalf("under-5%% fraction = %v, want >= 0.97", r.UnderFivePct)
	}
	var b strings.Builder
	if err := RenderMemTier(&b, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "98%") {
		t.Error("render missing paper reference")
	}
}

func TestStoragePlanExperiment(t *testing.T) {
	plan, err := StoragePlan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Sets) != 4 || plan.Leftover != 0 {
		t.Fatalf("plan = %d sets, %d leftover; want 4 sets, 0 leftover", len(plan.Sets), plan.Leftover)
	}
	var b strings.Builder
	if err := RenderStoragePlan(&b, plan); err != nil {
		t.Fatal(err)
	}
}

func TestPowerStudyExperiment(t *testing.T) {
	r, err := PowerStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Loads) != len(r.Derates) || len(r.Loads) < 10 {
		t.Fatalf("curve sampling broken: %d/%d points", len(r.Loads), len(r.Derates))
	}
	if r.RackOver.BreachProb > 0.05 {
		t.Fatalf("rack breach probability = %v, want small", r.RackOver.BreachProb)
	}
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
}

func TestGrowthStudyExperiment(t *testing.T) {
	r, err := GrowthStudy()
	if err != nil {
		t.Fatal(err)
	}
	if r.Minimal <= 0 || r.Minimal > 0.3 {
		t.Fatalf("minimal buffer = %v, want in (0, 0.3]", r.Minimal)
	}
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
}

// TestDesignSearchExperiment pins the §VIII `search` row of
// EXPERIMENTS.md at its printed precision.
func TestDesignSearchExperiment(t *testing.T) {
	r, err := DesignSearch()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		label      string
		got        design.Optimum
		sku        string
		perCore    float64
		savingsPct float64
	}{
		{"CI 0.1", r.Optimum, "Bergamo-12x32G-12cxl-0ssd-12rssd", 25.4, 44.4},
		{"CI 0.7", r.HighCI, "Bergamo-8x96G-0cxl-3ssd-0rssd", 124.7, 31.7},
	} {
		if c.got.Candidates != 289 {
			t.Errorf("%s: %d candidates, want 289", c.label, c.got.Candidates)
		}
		if c.got.SKU.Name != c.sku {
			t.Errorf("%s: optimum %s, want %s", c.label, c.got.SKU.Name, c.sku)
		}
		if d := math.Abs(float64(c.got.PerCore) - c.perCore); d > 0.05 {
			t.Errorf("%s: %.3f kgCO2e/core, want %.1f ± 0.05", c.label, float64(c.got.PerCore), c.perCore)
		}
		if d := math.Abs(c.got.Savings*100 - c.savingsPct); d > 0.05 {
			t.Errorf("%s: savings %.3f%%, want %.1f%% ± 0.05 pp", c.label, c.got.Savings*100, c.savingsPct)
		}
	}
	// At a coal-heavy grid operational emissions dominate, and the
	// optimum flips to an all-new configuration.
	if r.HighCI.SKU.CXLDRAMGB() != 0 || r.HighCI.SKU.ReusedSSDTB() != 0 {
		t.Errorf("CI 0.7 optimum %s reuses components", r.HighCI.SKU.Name)
	}
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "exhaustive") {
		t.Error("render missing methods")
	}
}

func TestLifetimeExperiment(t *testing.T) {
	r, err := Lifetime()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Studies) != 3 {
		t.Fatalf("got %d studies, want 3 generations", len(r.Studies))
	}
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "break-even") {
		t.Error("render missing break-even column")
	}
}

func TestHarvestExperiment(t *testing.T) {
	r, err := Harvest()
	if err != nil {
		t.Fatal(err)
	}
	if r.Plan.Donors <= 0 || r.Plan.Bottleneck == "" {
		t.Fatalf("implausible plan: %+v", r.Plan)
	}
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "bottleneck") {
		t.Error("render missing bottleneck row")
	}
}

func TestDiversityExperiment(t *testing.T) {
	r, err := Diversity()
	if err != nil {
		t.Fatal(err)
	}
	if r.SingleSavings <= 0 || r.MultiSavings <= 0 {
		t.Fatalf("both deployments should save carbon: %v / %v", r.SingleSavings, r.MultiSavings)
	}
	// The second SKU type may add a little or nothing, but must not
	// cost much: the study's point is that diversity rarely pays.
	if r.ExtraSavings < -0.05 || r.ExtraSavings > 0.10 {
		t.Fatalf("extra savings from a second SKU = %v, want small", r.ExtraSavings)
	}
	// EXPERIMENTS.md's diversity row: 13 baseline + 27 green servers
	// at 15.8%, against 13 + (26 + 1) at 15.4%, so the second SKU type
	// costs 0.40 pp.
	if m := r.SingleMix; m.NBase != 13 || m.NGreen != 27 {
		t.Errorf("single-SKU cluster %d + %d, want 13 + 27", m.NBase, m.NGreen)
	}
	if m := r.MultiMix; m.NBase != 13 || len(m.NGreens) != 2 || m.NGreens[0] != 26 || m.NGreens[1] != 1 {
		t.Errorf("two-SKU cluster %d + %v, want 13 + [26 1]", m.NBase, m.NGreens)
	}
	if got := report.Pct(r.SingleSavings) + " / " + report.Pct(r.MultiSavings); got != "15.8% / 15.4%" {
		t.Errorf("savings %s, want 15.8%% / 15.4%%", got)
	}
	if got := fmt.Sprintf("%+.2f", r.ExtraSavings*100); got != "-0.40" {
		t.Errorf("second SKU type adds %s pp, want -0.40", got)
	}
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "second SKU type") {
		t.Error("render missing summary line")
	}
}

package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/greensku/gsf/internal/stats"
	"github.com/greensku/gsf/internal/units"
)

func TestPackingSmall(t *testing.T) {
	opt := DefaultPackingOptions()
	opt.Traces = 4 // keep the unit test quick; the bench runs all 35
	r, err := Packing(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerTrace) != 4 {
		t.Fatalf("got %d traces, want 4", len(r.PerTrace))
	}
	var coreGap, memGap float64
	for i := range r.BaseCore {
		coreGap += r.BaseCore[i] - r.GreenCore[i]
		memGap += r.GreenMem[i] - r.BaseMem[i]
	}
	// Fig. 9's claim: the baseline packs cores tighter (its higher
	// memory:core ratio leaves core headroom), the GreenSKU packs
	// memory tighter.
	if coreGap <= 0 {
		t.Errorf("baseline should have higher core packing density (gap %v)", coreGap)
	}
	if memGap <= 0 {
		t.Errorf("GreenSKU should have higher memory packing density (gap %v)", memGap)
	}
	// Fig. 10's claim: nearly all green-server observations fit in
	// local DDR5.
	if r.LocalFit < 0.9 {
		t.Errorf("local-DDR5 fit fraction = %v, want > 0.9", r.LocalFit)
	}
	var b strings.Builder
	if err := r.RenderFig9(&b); err != nil {
		t.Fatal(err)
	}
	if err := r.RenderFig10(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "CDF") {
		t.Error("packing render missing CDF output")
	}
}

// TestPacking35Traces pins Figs. 9–10 on the default 35-trace study to
// the values EXPERIMENTS.md prints, and to the paper's direction: the
// baseline packs cores tighter, the GreenSKU packs memory tighter, and
// local DDR5 holds almost all touched memory.
func TestPacking35Traces(t *testing.T) {
	if testing.Short() {
		t.Skip("the 35-trace packing study takes several seconds")
	}
	r, err := Packing(DefaultPackingOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerTrace) != 35 {
		t.Fatalf("got %d traces, want 35", len(r.PerTrace))
	}
	baseCore, greenCore := stats.Mean(r.BaseCore), stats.Mean(r.GreenCore)
	baseMem, greenMem := stats.Mean(r.BaseMem), stats.Mean(r.GreenMem)
	for _, c := range []struct {
		name, format string
		got          float64
		want         string
	}{
		{"Fig. 9 mean baseline core packing", "%.3f", baseCore, "0.944"},
		{"Fig. 9 mean GreenSKU core packing", "%.3f", greenCore, "0.928"},
		{"Fig. 9 mean baseline memory packing", "%.3f", baseMem, "0.626"},
		{"Fig. 9 mean GreenSKU memory packing", "%.3f", greenMem, "0.697"},
		{"Fig. 10 median baseline max memory utilisation", "%.2f", stats.Median(r.BaseMaxMem), "0.31"},
		{"Fig. 10 median GreenSKU max memory utilisation", "%.2f", stats.Median(r.GreenMaxMem), "0.35"},
		{"Fig. 10 largest GreenSKU max memory utilisation", "%.2f", slices.Max(r.GreenMaxMem), "0.41"},
	} {
		if got := fmt.Sprintf(c.format, c.got); got != c.want {
			t.Errorf("%s = %s (%v), EXPERIMENTS.md prints %s", c.name, got, c.got, c.want)
		}
	}
	if baseCore <= greenCore {
		t.Errorf("baseline core packing %v should exceed the GreenSKU's %v", baseCore, greenCore)
	}
	if greenMem <= baseMem {
		t.Errorf("GreenSKU memory packing %v should exceed the baseline's %v", greenMem, baseMem)
	}
	if r.LocalFit < 0.99 {
		t.Errorf("local-DDR5 fit fraction = %v, want >= 0.99", r.LocalFit)
	}
}

func TestCISweepShape(t *testing.T) {
	opt := DefaultCISweepOptions("paper-calibrated")
	opt.CIs = []units.CarbonIntensity{0.01, 0.1, 0.4}
	r, err := CISweep(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Savings) != 3 {
		t.Fatalf("sweep covers %d SKUs, want 3", len(r.Savings))
	}
	full := r.Savings["GreenSKU-Full"]
	eff := r.Savings["GreenSKU-Efficient"]
	// Fig. 11's crossover: at low carbon intensity reuse wins
	// (GreenSKU-Full best); at high intensity the efficient CPU wins.
	if full[0] <= eff[0] {
		t.Errorf("at low CI, GreenSKU-Full (%v) should beat Efficient (%v)", full[0], eff[0])
	}
	if eff[2] <= full[2] {
		t.Errorf("at high CI, GreenSKU-Efficient (%v) should beat Full (%v)", eff[2], full[2])
	}
	for name, vals := range r.Savings {
		for i, v := range vals {
			if v <= 0 || v >= 0.5 {
				t.Errorf("%s savings[%d] = %v, want in (0, 0.5) (paper: 6-25%%)", name, i, v)
			}
		}
	}
	if r.AvgClusterSavings <= 0 || r.DCSavings <= 0 || r.DCSavings >= r.AvgClusterSavings {
		t.Errorf("summary savings inconsistent: cluster %v, DC %v", r.AvgClusterSavings, r.DCSavings)
	}
	var b strings.Builder
	if err := r.Render(&b, "Fig. 11"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Azure-europe-north") {
		t.Error("render missing region annotations")
	}
}

func TestInterpolate(t *testing.T) {
	xs := []units.CarbonIntensity{0, 1, 2}
	ys := []float64{0, 10, 20}
	cases := []struct{ x, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 5}, {1.5, 15}, {3, 20},
	}
	for _, c := range cases {
		if got := interpolate(xs, ys, units.CarbonIntensity(c.x)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("interpolate(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := interpolate(nil, nil, 1); got != 0 {
		t.Errorf("interpolate on empty = %v, want 0", got)
	}
}

// TestCISweepRegionAverages pins the region-averaged summaries of the
// Fig. 11 and Fig. 12 sections of EXPERIMENTS.md at their printed
// precision (0.1 percentage points).
func TestCISweepRegionAverages(t *testing.T) {
	for _, c := range []struct {
		dataset           string
		clusterPct, dcPct float64
	}{
		{"paper-calibrated", 13.9, 7.9},
		{"open-source", 12.3, 7.0},
	} {
		t.Run(c.dataset, func(t *testing.T) {
			r, err := CISweep(DefaultCISweepOptions(c.dataset))
			if err != nil {
				t.Fatal(err)
			}
			if got := r.AvgClusterSavings * 100; math.Abs(got-c.clusterPct) > 0.05 {
				t.Errorf("region-averaged cluster savings %.3f%%, want %.1f%% ± 0.05 pp", got, c.clusterPct)
			}
			if got := r.DCSavings * 100; math.Abs(got-c.dcPct) > 0.05 {
				t.Errorf("datacenter savings %.3f%%, want %.1f%% ± 0.05 pp", got, c.dcPct)
			}
		})
	}
}

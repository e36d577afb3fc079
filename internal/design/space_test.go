package design

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"github.com/greensku/gsf/internal/carbon"
	"github.com/greensku/gsf/internal/carbondata"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/units"
)

func openModel(t *testing.T) *carbon.Model {
	t.Helper()
	m, err := carbon.New(carbondata.OpenSource())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCandidatesEnumerationOrderDigest pins the ordered candidate names
// of the stock frontier space and of the §VIII space. Stream indices in
// /v1/design and the rows of Frontier.csv follow this order, so any
// change to the enumeration, the naming or the feasibility filter must
// show up here.
func TestCandidatesEnumerationOrderDigest(t *testing.T) {
	m := openModel(t)
	for _, c := range []struct {
		name   string
		space  Space
		n      int
		digest string
	}{
		{"DefaultOptions", DefaultOptions().Space, 879, "f89e7d8997bdfecf46149fe085835ba5c87a693f49b850376b94a4d9d75f2135"},
		{"DefaultSpace", DefaultSpace(), 289, "e01095c2ddce314a9e80bc424256053d4c09c5dcd682bfdb155cbd50906fc34d"},
	} {
		skus, err := Candidates(c.space, DefaultConstraints(), m)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, sku := range skus {
			fmt.Fprintln(h, sku.Name)
		}
		if len(skus) != c.n {
			t.Errorf("%s: %d candidates, want %d", c.name, len(skus), c.n)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != c.digest {
			t.Errorf("%s: ordered-name digest %s, want %s", c.name, got, c.digest)
		}
	}
}

func TestConstraintsEnforced(t *testing.T) {
	c := DefaultConstraints()
	// 12 CXL DIMMs (3 cards), 5 new + 12 reused SSDs:
	// lanes = 16 + 48 + 68 = 132 > 128.
	sku := buildSKU(hw.Bergamo, 1, 12, 64, 12, 5, 12, GPUOption{})
	if got := Lanes(sku, c); got <= c.PCIeLanes {
		t.Fatalf("lane count = %d, expected to exceed %d for this design", got, c.PCIeLanes)
	}
	if Feasible(sku, c) {
		t.Fatal("lane-violating design reported feasible")
	}
	// Memory ratio floor: 8 x 32 GB on 128 cores = 2 GB/core.
	if Feasible(buildSKU(hw.Bergamo, 1, 8, 32, 0, 3, 0, GPUOption{}), c) {
		t.Fatal("memory-starved design reported feasible")
	}
}

func TestGreenSKUFullFeasible(t *testing.T) {
	// The paper's shipped design must be inside the constraint set.
	c := DefaultConstraints()
	sku := hw.GreenSKUFull()
	if got := Lanes(sku, c); got > c.PCIeLanes {
		t.Fatalf("GreenSKU-Full uses %d lanes, budget %d", got, c.PCIeLanes)
	}
	ratio := sku.MemoryCoreRatio()
	if ratio < c.MinMemPerCore || ratio > c.MaxMemPerCore {
		t.Fatalf("GreenSKU-Full memory ratio %v outside [%v, %v]", ratio, c.MinMemPerCore, c.MaxMemPerCore)
	}
}

func TestMinCarbonBeatsHandDesign(t *testing.T) {
	best, err := MinCarbon(DefaultSpace(), DefaultConstraints(), openModel(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if best.Candidates == 0 {
		t.Fatal("nothing ranked")
	}
	// GreenSKU-Full-like configurations are in the space, so the
	// optimum must match or beat the hand design's 26.8% savings.
	if best.Savings < 0.26 {
		t.Fatalf("optimal savings = %.3f, want >= 0.26 (GreenSKU-Full's)", best.Savings)
	}
	// The optimum uses the efficient CPU and reuses components.
	if best.SKU.CPU.Name != "Bergamo" {
		t.Errorf("optimal CPU = %s, want Bergamo", best.SKU.CPU.Name)
	}
	if best.SKU.CXLDRAMGB() == 0 && best.SKU.ReusedSSDTB() == 0 {
		t.Error("optimum should reuse DRAM and/or SSDs at low carbon intensity")
	}
}

// TestMinCarbonIsFirstArgmin checks the selector against a scan of
// every candidate: no candidate has less carbon per core, and none
// before it in enumeration order has as little. At CI 0.7 the space
// holds ties (8x96G and 12x64G carry the same DRAM), so a selector
// that let a later tie win fails here.
func TestMinCarbonIsFirstArgmin(t *testing.T) {
	m := openModel(t)
	sp := DefaultOptions().Space
	skus, err := Candidates(sp, DefaultConstraints(), m)
	if err != nil {
		t.Fatal(err)
	}
	for _, ci := range []units.CarbonIntensity{m.Data.DefaultCI, 0.7} {
		best, err := MinCarbon(sp, DefaultConstraints(), m, ci)
		if err != nil {
			t.Fatal(err)
		}
		if best.Candidates != len(skus) {
			t.Fatalf("%d candidates ranked, space has %d", best.Candidates, len(skus))
		}
		before := true
		for _, sku := range skus {
			pc, err := m.PerCore(sku, ci)
			if err != nil {
				t.Fatal(err)
			}
			if sku.Name == best.SKU.Name {
				before = false
				if pc.Total() != best.PerCore {
					t.Fatalf("CI %v: %s reported at %v kg/core, model says %v", ci, sku.Name, best.PerCore, pc.Total())
				}
			}
			if pc.Total() < best.PerCore || (before && pc.Total() == best.PerCore) {
				t.Fatalf("CI %v: %s (%v kg/core) should have been chosen over %s (%v)",
					ci, sku.Name, pc.Total(), best.SKU.Name, best.PerCore)
			}
		}
	}
}

func TestOptimumShiftsWithCarbonIntensity(t *testing.T) {
	// At very high carbon intensity, operational emissions dominate
	// and reused (power-hungrier) components lose their edge.
	m, err := carbon.New(carbondata.PaperCalibrated())
	if err != nil {
		t.Fatal(err)
	}
	low, err := MinCarbon(DefaultSpace(), DefaultConstraints(), m, 0.005)
	if err != nil {
		t.Fatal(err)
	}
	high, err := MinCarbon(DefaultSpace(), DefaultConstraints(), m, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	lowReuse := low.SKU.ReusedSSDTB() + float64(low.SKU.CXLDRAMGB())
	highReuse := high.SKU.ReusedSSDTB() + float64(high.SKU.CXLDRAMGB())
	if lowReuse <= highReuse {
		t.Fatalf("reuse should shrink as carbon intensity rises: low-CI %v vs high-CI %v", lowReuse, highReuse)
	}
}

func TestNoFeasibleDesign(t *testing.T) {
	c := DefaultConstraints()
	c.MinSSDTB = 1e9
	if _, err := MinCarbon(DefaultSpace(), c, openModel(t), 0); err == nil {
		t.Fatal("accepted an unsatisfiable constraint set")
	}
}

func TestUnknownDataset(t *testing.T) {
	opt := DefaultOptions()
	opt.Dataset = "nope"
	if _, err := Search(context.Background(), opt); err == nil {
		t.Fatal("accepted unknown dataset")
	}
}

func TestSavingsConsistent(t *testing.T) {
	best, err := MinCarbon(DefaultSpace(), DefaultConstraints(), openModel(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if best.Savings <= 0 || best.Savings >= 1 || math.IsNaN(best.Savings) {
		t.Fatalf("savings = %v out of (0,1)", best.Savings)
	}
}

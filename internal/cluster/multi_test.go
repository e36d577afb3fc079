package cluster

import (
	"context"
	"sync/atomic"
	"testing"

	"github.com/greensku/gsf/internal/adoption"
	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/carbon"
	"github.com/greensku/gsf/internal/carbondata"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/perf"
	"github.com/greensku/gsf/internal/trace"
)

func greenClassB() alloc.ServerClass {
	return alloc.ServerClass{Name: "green-b", Cores: 128, Memory: 1152, LocalMemory: 1152, Green: true}
}

func TestMultiSizeTwoGreens(t *testing.T) {
	tr := testTrace(t, 11)
	// Even VM IDs may use pool 0, odd IDs pool 1: forces both pools
	// into service.
	parity := func(p int) alloc.Decider {
		return func(vm trace.VM) alloc.Decision { return alloc.Decision{Adopt: vm.ID%2 == p, Scale: 1} }
	}
	s := &MultiSizer{
		Base:   baseClass(),
		Greens: []alloc.ServerClass{greenClass(), greenClassB()},
		Policy: alloc.BestFit,
		Decide: []alloc.Decider{parity(0), parity(1)},
	}
	m, err := s.Size(tr)
	if err != nil {
		t.Fatal(err)
	}
	if m.NGreens[0] == 0 || m.NGreens[1] == 0 {
		t.Fatalf("both pools should be populated: %+v", m.NGreens)
	}
	if m.NBase >= m.BaselineOnly {
		t.Fatalf("mixed cluster keeps %d baselines, want fewer than %d", m.NBase, m.BaselineOnly)
	}
	ok, err := s.hosts(context.Background(), tr, m.NBase, m.NGreens)
	if err != nil || !ok {
		t.Fatalf("sized multi cluster rejects VMs: %v", err)
	}
}

// fullAdoption is GreenSKU-Full's adoption-table Decider against the
// Gen1-3 baselines under the open dataset at its default carbon
// intensity, the directive the paper's sizing runs under.
func fullAdoption(t *testing.T) alloc.Decider {
	t.Helper()
	d := carbondata.OpenSource()
	m, err := carbon.New(d)
	if err != nil {
		t.Fatal(err)
	}
	green := hw.GreenSKUFull()
	factors, err := perf.TableIIIContext(context.Background(), green, perf.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	greenPC, err := m.PerCore(green, d.DefaultCI)
	if err != nil {
		t.Fatal(err)
	}
	basePC := map[int]carbon.PerCore{}
	for gen := 1; gen <= 3; gen++ {
		if basePC[gen], err = m.PerCore(hw.BaselineForGeneration(gen), d.DefaultCI); err != nil {
			t.Fatal(err)
		}
	}
	table, err := adoption.Build(factors, greenPC, basePC)
	if err != nil {
		t.Fatal(err)
	}
	return table.Decider()
}

// TestMultiSizeMatchesSingleWithOneGreen sizes every production trace
// under BestFit and GreenSKU-Full's adoption table twice, with
// Sizer.MixedSize and with a one-pool MultiSizer, and requires equal
// sizes. With -short or the race detector it covers the first five
// traces.
func TestMultiSizeMatchesSingleWithOneGreen(t *testing.T) {
	suite, err := trace.ProductionSuite()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() || raceEnabled {
		suite = suite[:5]
	}
	decide := fullAdoption(t)
	withoutAudit(t)
	var greens atomic.Int64
	t.Run("traces", func(t *testing.T) {
		for _, tr := range suite {
			t.Run(tr.Name, func(t *testing.T) {
				t.Parallel()
				single := &Sizer{Base: baseClass(), Green: greenClass(), Policy: alloc.BestFit, Decide: decide}
				sm, err := single.MixedSize(tr)
				if err != nil {
					t.Fatal(err)
				}
				multi := &MultiSizer{
					Base:   baseClass(),
					Greens: []alloc.ServerClass{greenClass()},
					Policy: alloc.BestFit,
					Decide: []alloc.Decider{decide},
				}
				mm, err := multi.Size(tr)
				if err != nil {
					t.Fatal(err)
				}
				if mm.BaselineOnly != sm.BaselineOnly || mm.NBase != sm.NBase || mm.NGreens[0] != sm.NGreen {
					t.Fatalf("multi (%d; %d, %v) diverges from single (%d; %d, %d)",
						mm.BaselineOnly, mm.NBase, mm.NGreens, sm.BaselineOnly, sm.NBase, sm.NGreen)
				}
				greens.Add(int64(sm.NGreen))
			})
		}
	})
	if greens.Load() == 0 {
		t.Fatal("no trace sized any green server: the comparison is degenerate")
	}
}

func TestMultiSavings(t *testing.T) {
	m := MultiMix{BaselineOnly: 10, NBase: 2, NGreens: []int{3, 2}}
	base := SavingsInput{Class: baseClass(), PerCore: carbon.PerCore{Operational: 23, Embodied: 23}}
	greens := []SavingsInput{
		{Class: greenClass(), PerCore: carbon.PerCore{Operational: 19, Embodied: 14}},
		{Class: greenClassB(), PerCore: carbon.PerCore{Operational: 20, Embodied: 18}},
	}
	// all: 10*80*46 = 36800; mixed: 2*80*46 + 3*128*33 + 2*128*38 = 29760.
	want := 1 - 29760.0/36800
	if got := MultiSavings(m, base, greens); got != want {
		t.Fatalf("MultiSavings = %v, want %v", got, want)
	}
}

func TestMultiSizeValidation(t *testing.T) {
	s := &MultiSizer{Base: baseClass(), Policy: alloc.BestFit}
	if _, err := s.Size(testTrace(t, 13)); err == nil {
		t.Fatal("accepted a sizer without green classes")
	}
}

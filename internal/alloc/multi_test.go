package alloc

import (
	"math"
	"testing"

	"github.com/greensku/gsf/internal/trace"
)

func twoGreens() []Pool {
	return []Pool{
		{Class: ServerClass{Name: "green-a", Cores: 128, Memory: 1152, LocalMemory: 1152, Green: true}, N: 1},
		{Class: ServerClass{Name: "green-b", Cores: 128, Memory: 1024, LocalMemory: 768, Green: true}, N: 1},
	}
}

func TestMultiPrefersEarlierPool(t *testing.T) {
	tr := trace.Trace{Name: "m", Horizon: 10, VMs: []trace.VM{
		{ID: 0, Arrive: 1, Depart: 9, Cores: 8, Memory: 32, Gen: 3, MaxMemFrac: 0.5},
	}}
	both := func(trace.VM) MultiDecision { return MultiDecision{Scales: []float64{1, 1}} }
	res, err := SimulateMulti(tr, MultiConfig{Base: Pool{Class: baseClass(), N: 1}, Greens: twoGreens(), Policy: BestFit, PreferNonEmpty: true, SnapshotEvery: 1}, both)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Green[0].CorePacking) {
		t.Fatal("first pool should host the VM")
	}
	if !math.IsNaN(res.Green[1].CorePacking) {
		t.Fatal("second pool should stay empty when the first has room")
	}
}

func TestMultiFallsThroughPools(t *testing.T) {
	// First pool forbidden, second allowed.
	tr := trace.Trace{Name: "m", Horizon: 10, VMs: []trace.VM{
		{ID: 0, Arrive: 1, Depart: 9, Cores: 8, Memory: 32, Gen: 3, MaxMemFrac: 0.5},
	}}
	secondOnly := func(trace.VM) MultiDecision { return MultiDecision{Scales: []float64{0, 1.25}} }
	res, err := SimulateMulti(tr, MultiConfig{Base: Pool{Class: baseClass(), N: 1}, Greens: twoGreens(), Policy: BestFit, PreferNonEmpty: true, SnapshotEvery: 1}, secondOnly)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(res.Green[0].CorePacking) {
		t.Fatal("forbidden pool used")
	}
	// Scaled 1.25x: 10 cores of 128.
	if math.Abs(res.Green[1].CorePacking-10.0/128) > 0.01 {
		t.Fatalf("second pool packing = %v, want 10/128", res.Green[1].CorePacking)
	}
}

func TestMultiFallsBackToBaseline(t *testing.T) {
	tr := trace.Trace{Name: "m", Horizon: 10, VMs: []trace.VM{
		{ID: 0, Arrive: 1, Depart: 9, Cores: 8, Memory: 32, Gen: 3, MaxMemFrac: 0.5},
	}}
	none := func(trace.VM) MultiDecision { return MultiDecision{} }
	res, err := SimulateMulti(tr, MultiConfig{Base: Pool{Class: baseClass(), N: 1}, Greens: twoGreens(), Policy: BestFit, PreferNonEmpty: true, SnapshotEvery: 1}, none)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 || math.IsNaN(res.Base.CorePacking) {
		t.Fatal("VM should land on the baseline")
	}
}

func TestMultiFullNodePinsToBaseline(t *testing.T) {
	tr := trace.Trace{Name: "m", Horizon: 10, VMs: []trace.VM{
		{ID: 0, Arrive: 1, Depart: 9, Cores: 80, Memory: 768, Gen: 3, FullNode: true, MaxMemFrac: 0.5},
	}}
	both := func(trace.VM) MultiDecision { return MultiDecision{Scales: []float64{1, 1}} }
	res, err := SimulateMulti(tr, MultiConfig{Base: Pool{Class: baseClass(), N: 1}, Greens: twoGreens(), Policy: BestFit, PreferNonEmpty: true, SnapshotEvery: 1}, both)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Base.CorePacking-1) > 1e-9 {
		t.Fatalf("full-node VM not on baseline: %v", res.Base.CorePacking)
	}
}

func TestMultiMatchesSingleWhenOnePool(t *testing.T) {
	// With one green pool and equivalent directives, SimulateMulti
	// must agree with Simulate.
	p := trace.DefaultParams("multi-vs-single", 77)
	p.HorizonHours = 72
	tr, err := trace.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Base: baseClass(), NBase: 30,
		Green: greenClass(), NGreen: 15,
		Policy: BestFit, PreferNonEmpty: true,
	}
	single, err := Simulate(tr, cfg, AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := SimulateMulti(tr, MultiConfig{
		Base:           Pool{Class: baseClass(), N: 30},
		Greens:         []Pool{{Class: greenClass(), N: 15}},
		Policy:         BestFit,
		PreferNonEmpty: true,
	}, func(trace.VM) MultiDecision { return MultiDecision{Scales: []float64{1}} })
	if err != nil {
		t.Fatal(err)
	}
	if single.Placed != multi.Placed || single.Rejected != multi.Rejected {
		t.Fatalf("placement diverged: single %d/%d vs multi %d/%d",
			single.Placed, single.Rejected, multi.Placed, multi.Rejected)
	}
	if math.Abs(single.Green.CorePacking-multi.Green[0].CorePacking) > 1e-9 {
		t.Fatalf("green packing diverged: %v vs %v", single.Green.CorePacking, multi.Green[0].CorePacking)
	}
}

func TestMultiValidation(t *testing.T) {
	tr := smallTrace()
	if _, err := SimulateMulti(tr, MultiConfig{}, nil); err == nil {
		t.Error("accepted an empty cluster")
	}
	bad := []Pool{{Class: ServerClass{Name: "x"}, N: 3}}
	if _, err := SimulateMulti(tr, MultiConfig{Base: Pool{Class: baseClass(), N: 1}, Greens: bad}, nil); err == nil {
		t.Error("accepted a zero-capacity green pool")
	}
	// Negative pool sizes are errors, not panics.
	green := []Pool{{Class: greenClass(), N: 5}}
	if _, err := SimulateMulti(tr, MultiConfig{Base: Pool{Class: baseClass(), N: -1}, Greens: green}, nil); err == nil {
		t.Error("accepted a negative baseline pool")
	}
	negGreen := []Pool{{Class: greenClass(), N: 5}, {Class: greenClass(), N: -3}}
	if _, err := SimulateMulti(tr, MultiConfig{Base: Pool{Class: baseClass(), N: 4}, Greens: negGreen}, nil); err == nil {
		t.Error("accepted a negative green pool")
	}
}

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
	// With one green pool and the equivalent directive, SimulateMulti
	// must agree with Simulate bit for bit on every production trace
	// and policy. The decider adopts two VMs in three, and the traces'
	// full-node VMs meet drained baseline servers whose free memory
	// carries float drift, which the full-node rule must skip.
	traces, err := trace.ProductionSuite()
	if err != nil {
		t.Fatal(err)
	}
	adopt := func(vm trace.VM) bool { return vm.ID%3 != 0 }
	single := func(vm trace.VM) Decision { return Decision{Adopt: adopt(vm), Scale: 1.2} }
	multi := func(vm trace.VM) MultiDecision {
		if adopt(vm) {
			return MultiDecision{Scales: []float64{1.2}}
		}
		return MultiDecision{}
	}
	for _, pol := range []Policy{BestFit, FirstFit, WorstFit} {
		for _, tr := range traces {
			cfg := Config{
				Base: baseClass(), NBase: 30,
				Green: greenClass(), NGreen: 16,
				Policy: pol, PreferNonEmpty: pol != FirstFit,
			}
			want, err := Simulate(tr, cfg, single)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SimulateMulti(tr, MultiConfig{
				Base:           Pool{Class: cfg.Base, N: cfg.NBase},
				Greens:         []Pool{{Class: cfg.Green, N: cfg.NGreen}},
				Policy:         pol,
				PreferNonEmpty: cfg.PreferNonEmpty,
			}, multi)
			if err != nil {
				t.Fatal(err)
			}
			if got.Placed != want.Placed || got.Rejected != want.Rejected || got.Snapshots != want.Snapshots ||
				!sameClassStats(got.Base, want.Base) || len(got.Green) != 1 || !sameClassStats(got.Green[0], want.Green) {
				t.Errorf("%s (%v): multi %d/%d %+v %+v, single %d/%d %+v %+v", tr.Name, pol,
					got.Placed, got.Rejected, got.Base, got.Green, want.Placed, want.Rejected, want.Base, want.Green)
			}
		}
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

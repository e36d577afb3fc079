package alloc

import (
	"context"
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

// twoGreenCluster is one baseline server and twoGreens' pools.
func twoGreenCluster() MultiConfig {
	return MultiConfig{Base: Pool{Class: baseClass(), N: 1}, Greens: twoGreens(), Policy: BestFit, PreferNonEmpty: true}
}

func TestMultiPrefersEarlierPool(t *testing.T) {
	tr := trace.Trace{Name: "m", Horizon: 10, VMs: []trace.VM{
		{ID: 0, Arrive: 1, Depart: 9, Cores: 8, Memory: 32, Gen: 3, MaxMemFrac: 0.5},
	}}
	_, stats, err := SimulatePools(tr, twoGreenCluster(), []Decider{AdoptAll, AdoptAll}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(stats[1].CorePacking) {
		t.Fatal("first pool should host the VM")
	}
	if !math.IsNaN(stats[2].CorePacking) {
		t.Fatal("second pool should stay empty when the first has room")
	}
}

func TestMultiFallsThroughPools(t *testing.T) {
	// First pool forbidden, second allowed.
	tr := trace.Trace{Name: "m", Horizon: 10, VMs: []trace.VM{
		{ID: 0, Arrive: 1, Depart: 9, Cores: 8, Memory: 32, Gen: 3, MaxMemFrac: 0.5},
	}}
	scaled := func(trace.VM) Decision { return Decision{Adopt: true, Scale: 1.25} }
	_, stats, err := SimulatePools(tr, twoGreenCluster(), []Decider{AdoptNone, scaled}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(stats[1].CorePacking) {
		t.Fatal("forbidden pool used")
	}
	// Scaled 1.25x: 10 cores of 128.
	if math.Abs(stats[2].CorePacking-10.0/128) > 0.01 {
		t.Fatalf("second pool packing = %v, want 10/128", stats[2].CorePacking)
	}
}

func TestMultiFallsBackToBaseline(t *testing.T) {
	tr := trace.Trace{Name: "m", Horizon: 10, VMs: []trace.VM{
		{ID: 0, Arrive: 1, Depart: 9, Cores: 8, Memory: 32, Gen: 3, MaxMemFrac: 0.5},
	}}
	res, stats, err := SimulatePools(tr, twoGreenCluster(), []Decider{nil, AdoptNone}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 || math.IsNaN(stats[0].CorePacking) {
		t.Fatal("VM should land on the baseline")
	}
}

func TestMultiFullNodePinsToBaseline(t *testing.T) {
	tr := trace.Trace{Name: "m", Horizon: 10, VMs: []trace.VM{
		{ID: 0, Arrive: 1, Depart: 9, Cores: 80, Memory: 768, Gen: 3, FullNode: true, MaxMemFrac: 0.5},
	}}
	_, stats, err := SimulatePools(tr, twoGreenCluster(), []Decider{AdoptAll, AdoptAll}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stats[0].CorePacking-1) > 1e-9 {
		t.Fatalf("full-node VM not on baseline: %v", stats[0].CorePacking)
	}
}

func TestMultiMatchesSingleWhenOnePool(t *testing.T) {
	// With one green pool and the same Decider, a multi-pool replay
	// must agree with Simulate bit for bit on every production trace
	// and policy. The decider adopts two VMs in three, and the traces'
	// full-node VMs meet drained baseline servers whose free memory
	// carries float drift, which the full-node rule must skip.
	traces, err := trace.ProductionSuite()
	if err != nil {
		t.Fatal(err)
	}
	single := func(vm trace.VM) Decision { return Decision{Adopt: vm.ID%3 != 0, Scale: 1.2} }
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
			got, stats, err := SimulatePools(tr, MultiConfig{
				Base:           Pool{Class: cfg.Base, N: cfg.NBase},
				Greens:         []Pool{{Class: cfg.Green, N: cfg.NGreen}},
				Policy:         pol,
				PreferNonEmpty: cfg.PreferNonEmpty,
			}, []Decider{single}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !samePools(got, stats, want, []ClassStats{want.Base, want.Green}) {
				t.Errorf("%s (%v): multi %+v %+v, single %+v", tr.Name, pol, got, stats, want)
			}
		}
	}
}

func TestMultiValidation(t *testing.T) {
	tr := smallTrace()
	hosts := func(mc MultiConfig) error {
		_, err := MultiHostsContext(context.Background(), tr, mc, make([]Decider, len(mc.Greens)))
		return err
	}
	if hosts(MultiConfig{}) == nil {
		t.Error("accepted an empty cluster")
	}
	bad := []Pool{{Class: ServerClass{Name: "x"}, N: 3}}
	if hosts(MultiConfig{Base: Pool{Class: baseClass(), N: 1}, Greens: bad}) == nil {
		t.Error("accepted a zero-capacity green pool")
	}
	// Negative pool sizes are errors, not panics.
	green := []Pool{{Class: greenClass(), N: 5}}
	if hosts(MultiConfig{Base: Pool{Class: baseClass(), N: -1}, Greens: green}) == nil {
		t.Error("accepted a negative baseline pool")
	}
	negGreen := []Pool{{Class: greenClass(), N: 5}, {Class: greenClass(), N: -3}}
	if hosts(MultiConfig{Base: Pool{Class: baseClass(), N: 4}, Greens: negGreen}) == nil {
		t.Error("accepted a negative green pool")
	}
	// Every green pool takes one Decider.
	mc := MultiConfig{Base: Pool{Class: baseClass(), N: 4}, Greens: negGreen[:1]}
	if _, err := MultiHostsContext(context.Background(), tr, mc, nil); err == nil {
		t.Error("accepted a green pool without a Decider")
	}
}

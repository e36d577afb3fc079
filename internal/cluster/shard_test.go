package cluster

// Shard-identity test for the multi-SKU sizing layer: routing replays
// through the pool-sharded pipeline (MultiSizer.Shards) must leave
// every sizing answer exactly unchanged.

import (
	"testing"

	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/trace"
)

func TestMultiSizerShardedMatchesUnsharded(t *testing.T) {
	tr := testTrace(t, 32)
	decide := func(vm trace.VM) alloc.MultiDecision {
		if vm.ID%2 == 0 {
			return alloc.MultiDecision{Scales: []float64{1, 0}}
		}
		return alloc.MultiDecision{Scales: []float64{0, 1.2}}
	}
	mk := func(shards int) *MultiSizer {
		return &MultiSizer{
			Base:   baseClass(),
			Greens: []alloc.ServerClass{greenClass(), greenClassB()},
			Policy: alloc.BestFit,
			Decide: decide,
			Shards: shards,
		}
	}
	pm, err := mk(0).Size(tr)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := mk(3).Size(tr)
	if err != nil {
		t.Fatal(err)
	}
	if pm.BaselineOnly != sm.BaselineOnly || pm.NBase != sm.NBase {
		t.Fatalf("sharded multi sizing differs: %+v vs %+v", pm, sm)
	}
	for i := range pm.NGreens {
		if pm.NGreens[i] != sm.NGreens[i] {
			t.Fatalf("sharded multi sizing differs in pool %d: %+v vs %+v", i, pm, sm)
		}
	}
}

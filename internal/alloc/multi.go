package alloc

// Multi-pool allocation: §II's design goal D2 notes that every
// additional SKU type in a fleet has side effects, but a second
// GreenSKU could serve applications the first cannot. SimulateMulti
// generalises Simulate to a baseline pool plus any number of GreenSKU
// pools, with per-VM, per-pool directives.

import (
	"context"
	"fmt"

	"github.com/greensku/gsf/internal/trace"
)

// Pool is one homogeneous group of servers in a mixed cluster.
type Pool struct {
	Class ServerClass
	N     int
}

// MultiDecision directs one VM across the green pools: Scales[i] > 0
// permits pool i (in cluster order) with that scaling factor; 0 forbids
// it. Pools are tried in order, so the caller encodes preference by
// ordering pools from most to least carbon-efficient for the workload.
type MultiDecision struct {
	Scales []float64
}

// MultiDecider maps a VM to its per-pool directive.
type MultiDecider func(trace.VM) MultiDecision

// MultiConfig describes the multi-pool cluster.
type MultiConfig struct {
	Base           Pool
	Greens         []Pool
	Policy         Policy
	PreferNonEmpty bool
	// SnapshotEvery controls utilisation snapshots (trace hours);
	// zero defaults to 12h.
	SnapshotEvery float64
}

// MultiResult holds per-pool statistics.
type MultiResult struct {
	Placed    int
	Rejected  int
	Base      ClassStats
	Green     []ClassStats // aligned with the green pools
	Snapshots int
}

// SimulateMulti replays a trace against a baseline pool plus green
// pools. Full-node VMs pin to the baseline; other VMs try the green
// pools in order (scaled per the directive) and fall back to the
// baseline.
func SimulateMulti(tr trace.Trace, mc MultiConfig, decide MultiDecider) (MultiResult, error) {
	return SimulateMultiContext(context.Background(), tr, mc, decide)
}

// SimulateMultiContext is SimulateMulti with cancellation, polled every
// 1024 VMs like SimulateContext. Each pool is a columnar fleet
// (colsim.go), so only the servers a replay touches are materialized.
func SimulateMultiContext(ctx context.Context, tr trace.Trace, mc MultiConfig, decide MultiDecider) (MultiResult, error) {
	if err := tr.Validate(); err != nil {
		return MultiResult{}, err
	}
	base, greens := mc.Base, mc.Greens
	if base.N < 0 {
		return MultiResult{}, fmt.Errorf("alloc: baseline pool has negative size %d", base.N)
	}
	total := base.N
	for _, g := range greens {
		if g.N < 0 {
			return MultiResult{}, fmt.Errorf("alloc: green pool %s has negative size %d", g.Class.Name, g.N)
		}
		total += g.N
		if g.N > 0 && (g.Class.Cores <= 0 || g.Class.Memory <= 0) {
			return MultiResult{}, fmt.Errorf("alloc: green pool %s has no capacity", g.Class.Name)
		}
	}
	if total == 0 {
		return MultiResult{}, fmt.Errorf("alloc: cluster needs at least one server")
	}
	if base.N > 0 && (base.Class.Cores <= 0 || base.Class.Memory <= 0) {
		return MultiResult{}, fmt.Errorf("alloc: baseline pool has no capacity")
	}
	if decide == nil {
		decide = func(trace.VM) MultiDecision { return MultiDecision{} }
	}
	snapEvery := mc.SnapshotEvery
	if snapEvery <= 0 {
		snapEvery = 12
	}

	// pools[0] is the baseline; pools[i+1] is green pool i, which is
	// also the pool number its departures carry.
	pools := make([]fleet, len(greens)+1)
	pools[0] = newFleet(base.Class, base.N)
	for i, g := range greens {
		pools[i+1] = newFleet(g.Class, g.N)
	}
	aggs := make([]aggregator, len(pools))

	var deps depHeap
	var res MultiResult
	nextSnap := snapEvery

	release := func(until float64) {
		for len(deps) > 0 && deps[0].at <= until {
			d := depPop(&deps)
			pools[d.pool].release(d.id, d.cores, d.mem, d.touched)
		}
	}
	observe := func() {
		for i := range pools {
			pools[i].observeInto(&aggs[i])
		}
		res.Snapshots++
	}

	for i, vm := range tr.VMs {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return MultiResult{}, err
			}
		}
		for nextSnap <= vm.Arrive {
			release(nextSnap)
			observe()
			nextSnap += snapEvery
		}
		release(vm.Arrive)

		pool, placed := int32(0), nilNode
		var cores, mem float64
		if vm.FullNode {
			// The multi-pool full-node rule takes the first empty
			// baseline server unconditionally (no capacity check).
			placed = pools[0].firstEmpty()
			cores, mem = pools[0].capC, pools[0].capM
		} else {
			d := decide(vm)
			for g := range greens {
				if g >= len(d.Scales) || d.Scales[g] <= 0 {
					continue
				}
				scale := d.Scales[g]
				if scale < 1 {
					scale = 1
				}
				cores = float64(vm.Cores) * scale
				mem = float64(vm.Memory) * scale
				if placed = pools[g+1].pick(cores, mem, mc.Policy, mc.PreferNonEmpty); placed != nilNode {
					pool = int32(g + 1)
					break
				}
			}
			if placed == nilNode {
				cores = float64(vm.Cores)
				mem = float64(vm.Memory)
				placed = pools[0].pick(cores, mem, mc.Policy, mc.PreferNonEmpty)
			}
		}
		if placed == nilNode {
			res.Rejected++
			continue
		}
		touched := mem * vm.MaxMemFrac
		pools[pool].place(placed, cores, mem, touched)
		depPush(&deps, departure{at: vm.Depart, cores: cores, mem: mem, touched: touched, id: placed, pool: pool})
		res.Placed++
	}
	for nextSnap <= tr.Horizon {
		release(nextSnap)
		observe()
		nextSnap += snapEvery
	}
	release(tr.Horizon)
	observe()

	res.Base = aggs[0].stats()
	res.Green = make([]ClassStats, len(greens))
	for i := range greens {
		res.Green[i] = aggs[i+1].stats()
	}
	return res, nil
}

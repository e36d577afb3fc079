package alloc

// Multi-pool allocation: §II's design goal D2 notes that every
// additional SKU type in a fleet has side effects, but a second
// GreenSKU could serve applications the first cannot. SimulateMulti
// generalises Simulate to a baseline pool plus any number of GreenSKU
// pools, with per-VM, per-pool directives. It is a front door to the
// same Sim every other replay steps (colsim.go), built over all the
// pools: the same placement rules, the same full-node rule, the same
// audit checks.

import (
	"context"

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
// 1024 VMs like SimulateContext. The replay is audited through the
// process-default checker (audit.SetDefault).
func SimulateMultiContext(ctx context.Context, tr trace.Trace, mc MultiConfig, decide MultiDecider) (MultiResult, error) {
	pools := append([]Pool{mc.Base}, mc.Greens...)
	if err := checkPools(pools); err != nil {
		return MultiResult{}, err
	}
	cfg := Config{Base: mc.Base.Class, NBase: mc.Base.N, Policy: mc.Policy,
		PreferNonEmpty: mc.PreferNonEmpty, SnapshotEvery: mc.SnapshotEvery}
	// A nil decide leaves the AdoptNone Decider in charge, which
	// offers no green pool.
	sim := newSim(tr.Name, cfg, pools, AdoptNone)
	sim.multi = decide
	if err := sim.stepAll(ctx, trace.NewSliceSource(tr)); err != nil {
		return MultiResult{}, err
	}
	sim.finish(tr.Horizon)
	res := MultiResult{
		Placed:    sim.res.Placed,
		Rejected:  sim.res.Rejected,
		Base:      sim.aggs[0].stats(),
		Green:     make([]ClassStats, len(mc.Greens)),
		Snapshots: sim.res.Snapshots,
	}
	for i := range res.Green {
		res.Green[i] = sim.aggs[i+1].stats()
	}
	return res, nil
}

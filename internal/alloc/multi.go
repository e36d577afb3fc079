package alloc

// Multi-pool allocation: §II's design goal D2 notes that every
// additional SKU type in a fleet has side effects, but a second
// GreenSKU could serve applications the first cannot. A multi-pool
// cluster is a baseline pool plus any number of GreenSKU pools, each
// directed by its own Decider. It runs on the same Sim every other
// replay steps (colsim.go), built over all the pools: the same
// placement rules, the same full-node rule, the same audit checks.

import (
	"context"
	"fmt"
	"slices"

	"github.com/greensku/gsf/internal/trace"
)

// Pool is one homogeneous group of servers in a mixed cluster.
type Pool struct {
	Class ServerClass
	N     int
}

// MultiConfig describes the multi-pool cluster. Green pools are tried
// in order, so the caller encodes preference by ordering them from
// most to least carbon-efficient for the workload.
type MultiConfig struct {
	Base           Pool
	Greens         []Pool
	Policy         Policy
	PreferNonEmpty bool
}

// MultiHostsContext reports whether the multi-pool cluster hosts the
// trace, as HostsContext does for one green pool. decide holds one
// Decider per green pool, in mc.Greens order; a nil one offers its
// pool nothing. Full-node VMs pin to the baseline; other VMs try each
// green pool whose Decider adopts them, in order and scaled, then fall
// back to the baseline. The replay stops at the first rejection unless
// the process-default checker (audit.SetDefault) audits it.
func MultiHostsContext(ctx context.Context, tr trace.Trace, mc MultiConfig, decide []Decider) (bool, error) {
	sim, err := newMultiSim(tr, mc, decide)
	if err != nil {
		return false, err
	}
	return sim.probeFrom(ctx, tr, 0)
}

// newMultiSim validates the trace and the multi-pool cluster and
// returns an empty simulator over it.
func newMultiSim(tr trace.Trace, mc MultiConfig, decide []Decider) (*Sim, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if len(decide) != len(mc.Greens) {
		return nil, fmt.Errorf("alloc: %d deciders for %d green pools", len(decide), len(mc.Greens))
	}
	pools := append([]Pool{mc.Base}, mc.Greens...)
	if err := checkPools(pools); err != nil {
		return nil, err
	}
	decide = slices.Clone(decide)
	for g, d := range decide {
		if d == nil {
			decide[g] = AdoptNone
		}
	}
	cfg := Config{Base: mc.Base.Class, NBase: mc.Base.N, Policy: mc.Policy, PreferNonEmpty: mc.PreferNonEmpty}
	return newSim(tr.Name, cfg, pools, decide), nil
}

package cluster

// Multi-SKU cluster sizing: extends the single-GreenSKU search to
// clusters deploying several GreenSKU types at once, the diversity
// question of §II's design goal D2 (every extra SKU type adds
// operational complexity — is the carbon worth it?).

import (
	"context"
	"fmt"

	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/trace"
)

// MultiSizer sizes a baseline pool plus N green pools.
type MultiSizer struct {
	Base   alloc.ServerClass
	Greens []alloc.ServerClass
	Policy alloc.Policy
	// Decide directs the green pools, Decide[i] pool Greens[i].
	Decide []alloc.Decider
	// MaxServers caps each pool's search.
	MaxServers int
}

// MultiMix is a sized multi-SKU cluster.
type MultiMix struct {
	BaselineOnly int
	NBase        int
	NGreens      []int // aligned with Greens
}

func (s *MultiSizer) hosts(ctx context.Context, tr trace.Trace, nBase int, nGreens []int) (bool, error) {
	total := nBase
	pools := make([]alloc.Pool, len(s.Greens))
	for i, g := range s.Greens {
		pools[i] = alloc.Pool{Class: g, N: nGreens[i]}
		total += nGreens[i]
	}
	if total == 0 {
		return len(tr.VMs) == 0, nil
	}
	return alloc.MultiHostsContext(ctx, tr, alloc.MultiConfig{
		Base:           alloc.Pool{Class: s.Base, N: nBase},
		Greens:         pools,
		Policy:         s.Policy,
		PreferNonEmpty: true,
	}, s.Decide)
}

// Size right-sizes the multi-SKU cluster: minimal baseline count with
// all green pools abundant, then each green pool minimised in turn
// (later pools abundant while earlier ones are fixed). Pool order is
// the order a VM tries the pools in, so earlier pools absorb the
// workload their Deciders adopt. Every probe stops at its first
// rejection, as Sizer's do.
func (s *MultiSizer) Size(tr trace.Trace) (MultiMix, error) {
	return s.SizeContext(context.Background(), tr)
}

// SizeContext is Size with cancellation.
func (s *MultiSizer) SizeContext(ctx context.Context, tr trace.Trace) (MultiMix, error) {
	var m MultiMix
	if len(s.Greens) == 0 {
		return m, fmt.Errorf("cluster: MultiSizer needs at least one green class")
	}
	if err := tr.Validate(); err != nil {
		return m, err
	}
	// One bound serves every search: the baseline-only size and each
	// pool's cap.
	single := &Sizer{Base: s.Base, Policy: s.Policy, Decide: alloc.AdoptNone, MaxServers: s.MaxServers}
	cap := single.maxServers(tr)
	n0, err := single.rightSizeBaseline(ctx, tr, cap)
	if err != nil {
		return m, err
	}
	m.BaselineOnly = n0
	abundant := make([]int, len(s.Greens))
	for i := range abundant {
		abundant[i] = cap
	}

	m.NBase, err = searchMin(n0, func(n int) (bool, error) {
		return s.hosts(ctx, tr, n, abundant)
	})
	if err != nil {
		return m, err
	}

	m.NGreens = make([]int, len(s.Greens))
	copy(m.NGreens, abundant)
	for i := range s.Greens {
		idx := i
		m.NGreens[idx], err = searchMin(cap, func(n int) (bool, error) {
			trial := make([]int, len(m.NGreens))
			copy(trial, m.NGreens)
			trial[idx] = n
			return s.hosts(ctx, tr, m.NBase, trial)
		})
		if err != nil {
			return m, err
		}
	}
	// No closing replay: searchMin only returns a size it tested true,
	// and the last pool's search tested exactly (NBase, NGreens), every
	// other count already final.
	return m, nil
}

// MultiSavings computes the multi-SKU cluster's carbon saving versus
// the all-baseline cluster.
func MultiSavings(m MultiMix, base SavingsInput, greens []SavingsInput) float64 {
	all := Emissions(m.BaselineOnly, base.Class, base.PerCore)
	mixed := Emissions(m.NBase, base.Class, base.PerCore)
	for i, g := range greens {
		mixed += Emissions(m.NGreens[i], g.Class, g.PerCore)
	}
	if all == 0 {
		return 0
	}
	return 1 - float64(mixed)/float64(all)
}

package alloc

// Test-only exports for the differential walls in oracle_test.go.
// Those run in package alloc_test because they import internal/oracle,
// which imports alloc; an in-package test cannot.

import (
	"context"

	"github.com/greensku/gsf/internal/trace"
)

var (
	BaseClass   = baseClass
	GreenClass  = greenClass
	DiffDecider = diffDecider
	SameResult  = sameResult
	SamePools   = samePools
)

// SimulatePools replays tr to the horizon over mc's pools, green pool
// g directed by decide[g], taking a snapshot every snapEvery trace
// hours (zero: every 12). It returns the Result, with the first green
// pool's stats as Green, and every pool's stats, the baseline first:
// the shape of oracle.SimulatePools.
func SimulatePools(tr trace.Trace, mc MultiConfig, decide []Decider, snapEvery float64) (Result, []ClassStats, error) {
	sim, err := newMultiSim(tr, mc, decide)
	if err != nil {
		return Result{}, nil, err
	}
	if snapEvery > 0 {
		sim.snapEvery, sim.nextSnap = snapEvery, snapEvery
	}
	if err := sim.stepAll(context.Background(), trace.NewSliceSource(tr)); err != nil {
		return Result{}, nil, err
	}
	sim.finish(tr.Horizon)
	stats := make([]ClassStats, len(sim.aggs))
	for i := range sim.aggs {
		stats[i] = sim.aggs[i].stats()
	}
	res := sim.res
	res.Base = stats[0]
	if len(stats) > 1 {
		res.Green = stats[1]
	}
	return res, stats, nil
}

// ObservePlacements installs fn as the simulator's placement observer
// (testObserve) and returns a func that removes it.
func ObservePlacements(fn func(vmID int, green bool, serverID int32)) (remove func()) {
	testObserve = fn
	return func() { testObserve = nil }
}

// CorruptResumes corrupts every probe resumed with its pools capped at
// a (nBase, nGreen) that match accepts: the resumed clone starts out
// having rejected a VM, so it reports that the cluster does not host
// the trace. It returns a func that removes the corruption.
func CorruptResumes(match func(nBase, nGreen int) bool) (remove func()) {
	testResume = func(s *Sim) {
		if match(s.cfg.NBase, s.cfg.NGreen) {
			s.res.Rejected++
		}
	}
	return func() { testResume = nil }
}

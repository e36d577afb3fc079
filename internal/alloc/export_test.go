package alloc

// Test-only exports for the differential walls in oracle_test.go.
// Those run in package alloc_test because they import internal/oracle,
// which imports alloc; an in-package test cannot.

var (
	BaseClass   = baseClass
	GreenClass  = greenClass
	DiffDecider = diffDecider
	SameResult  = sameResult
	SameMulti   = sameMulti
)

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

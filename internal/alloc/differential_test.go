package alloc

// Helpers shared by the differential tests: the in-package ones
// (snapshot resume, probes) and, through export_test.go, the walls
// against internal/oracle in oracle_test.go.

import (
	"math"
	"testing"

	"github.com/greensku/gsf/internal/trace"
)

// diffDecider adopts most VMs with a fractional scaling factor, so the
// differential runs exercise both pools and non-integral free-capacity
// values (the case that rules out integer-granular bucketing).
func diffDecider(vm trace.VM) Decision {
	return Decision{
		Adopt: vm.ID%10 < 7,
		Scale: 1 + 0.1*float64(vm.ID%3),
	}
}

// placeRec is one observed placement, captured via testObserve.
type placeRec struct {
	vmID  int
	green bool
	srv   int32
}

// runObserved simulates one trace and returns the Result plus the
// exact placement sequence.
func runObserved(t *testing.T, tr trace.Trace, cfg Config) (Result, []placeRec) {
	t.Helper()
	var seq []placeRec
	testObserve = func(vmID int, green bool, serverID int32) {
		seq = append(seq, placeRec{vmID, green, serverID})
	}
	defer func() { testObserve = nil }()
	res, err := Simulate(tr, cfg, diffDecider)
	if err != nil {
		t.Fatalf("%s (%v, preferNonEmpty=%v): %v", tr.Name, cfg.Policy, cfg.PreferNonEmpty, err)
	}
	return res, seq
}

// sameBits reports whether two floats are the same bit pattern — the
// "byte-identical" comparison; NaN equals NaN, and -0 differs from +0.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameClassStats(a, b ClassStats) bool {
	return sameBits(a.CorePacking, b.CorePacking) &&
		sameBits(a.MemPacking, b.MemPacking) &&
		sameBits(a.MaxMemUtil, b.MaxMemUtil) &&
		sameBits(a.CXLServedFrac, b.CXLServedFrac) &&
		sameBits(a.LocalFitsFrac, b.LocalFitsFrac)
}

func sameResult(a, b Result) bool {
	return a.Placed == b.Placed && a.Rejected == b.Rejected &&
		a.DeferrablePlaced == b.DeferrablePlaced &&
		a.DeferrableRejected == b.DeferrableRejected &&
		a.Snapshots == b.Snapshots &&
		sameClassStats(a.Base, b.Base) && sameClassStats(a.Green, b.Green)
}

// sameMulti compares two MultiResults bit for bit.
func sameMulti(a, b MultiResult) bool {
	if a.Placed != b.Placed || a.Rejected != b.Rejected || a.Snapshots != b.Snapshots ||
		!sameClassStats(a.Base, b.Base) || len(a.Green) != len(b.Green) {
		return false
	}
	for i := range a.Green {
		if !sameClassStats(a.Green[i], b.Green[i]) {
			return false
		}
	}
	return true
}

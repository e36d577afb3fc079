// Package alloc implements GSF's VM allocation component (§IV-C, §V): a
// VM placement simulator capturing the key rules of Azure's production
// scheduler — best-fit placement to reduce fragmentation, a preference
// for non-empty servers, and placement constraints (full-node VMs pin to
// baseline SKUs; only adopting VMs may land on GreenSKUs, with their
// requests scaled by the application's scaling factor).
//
// The simulator replays a trace against a fixed cluster of baseline and
// GreenSKU servers and reports rejections, packing densities, and
// per-server memory-utilisation snapshots — the measurements behind
// Figs. 9 and 10. Every replay, single- or multi-pool, steps one
// simulator, Sim, over columnar fleets (colsim.go) with the placement
// index (index.go); the linear scan those are proven against lives in
// internal/oracle, which only tests and cmd/gsfbench import.
package alloc

import (
	"context"
	"fmt"
	"math"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/trace"
	"github.com/greensku/gsf/internal/units"
)

// ServerClass describes one SKU's capacity as seen by the scheduler.
type ServerClass struct {
	Name   string
	Cores  int
	Memory units.GB
	// LocalMemory is the direct-attached (DDR5) portion; memory above
	// it is served from CXL. Equal to Memory when the SKU has no CXL.
	LocalMemory units.GB
	Green       bool
}

// Decision is the adoption component's directive for one VM.
type Decision struct {
	// Adopt permits placement on GreenSKU servers.
	Adopt bool
	// Scale multiplies the VM's core and memory request when placed
	// on a GreenSKU (the application's scaling factor; >= 1).
	Scale float64
}

// Decider maps a VM to its placement directive.
type Decider func(trace.VM) Decision

// AdoptAll places every non-full-node VM on GreenSKUs unscaled; useful
// as a baseline policy and in tests.
func AdoptAll(trace.VM) Decision { return Decision{Adopt: true, Scale: 1} }

// AdoptNone keeps every VM on baseline servers.
func AdoptNone(trace.VM) Decision { return Decision{} }

// Policy selects among feasible servers.
type Policy int

const (
	// BestFit picks the feasible server with the least free cores
	// (ties: least free memory) — the production default.
	BestFit Policy = iota
	// FirstFit picks the lowest-indexed feasible server.
	FirstFit
	// WorstFit picks the feasible server with the most free cores
	// (ties: most free memory), the spreading counterpart of BestFit.
	WorstFit
)

func (p Policy) String() string {
	switch p {
	case BestFit:
		return "best-fit"
	case FirstFit:
		return "first-fit"
	case WorstFit:
		return "worst-fit"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy is String's inverse; the empty string selects BestFit,
// the production default.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "best-fit":
		return BestFit, nil
	case "first-fit":
		return FirstFit, nil
	case "worst-fit":
		return WorstFit, nil
	}
	return 0, fmt.Errorf("alloc: unknown policy %q (want best-fit, first-fit, or worst-fit)", s)
}

// Config describes the simulated cluster.
type Config struct {
	Base   ServerClass
	NBase  int
	Green  ServerClass
	NGreen int
	Policy Policy
	// PreferNonEmpty applies the production rule of packing onto
	// already-occupied servers when possible.
	PreferNonEmpty bool
	// SnapshotEvery controls how often (in trace hours) utilisation
	// snapshots are taken. Zero defaults to 12h.
	SnapshotEvery float64
	// Audit receives invariant violations (core/memory conservation,
	// placement admissibility, spurious rejections). Nil falls back to
	// the process default (audit.SetDefault); if that is also nil,
	// checking is disabled and costs nothing.
	Audit audit.Checker
}

// ClassStats aggregates snapshot measurements for one server class.
type ClassStats struct {
	// CorePacking and MemPacking are mean packing densities across
	// snapshots: allocated/allocatable on non-empty servers.
	CorePacking float64
	MemPacking  float64
	// MaxMemUtil is the mean per-server maximum memory utilisation:
	// the resident VMs' aggregate touched memory over server memory.
	MaxMemUtil float64
	// CXLServedFrac is the mean fraction of touched memory that
	// spills past local DDR5 onto CXL (zero for non-CXL classes).
	CXLServedFrac float64
	// LocalFitsFrac is the fraction of snapshot server observations
	// whose touched memory fits entirely in local DDR5.
	LocalFitsFrac float64
}

// Result summarises one simulation.
type Result struct {
	Placed   int
	Rejected int
	// DeferrablePlaced/DeferrableRejected split the counts for
	// delay-tolerant VMs, so carbon-aware re-timing experiments can
	// see whether shifting starved the deferrable class specifically.
	DeferrablePlaced   int
	DeferrableRejected int
	Base               ClassStats
	Green              ClassStats
	Snapshots          int
}

// Simulate replays the trace against the configured cluster.
func Simulate(tr trace.Trace, cfg Config, decide Decider) (Result, error) {
	return SimulateContext(context.Background(), tr, cfg, decide)
}

// SimulateContext is Simulate with cancellation: the arrival loop polls
// ctx every 1024 VMs and returns the context error once observed. It
// streams the trace through the columnar simulator (SimulateSource),
// which validates each VM as it arrives.
func SimulateContext(ctx context.Context, tr trace.Trace, cfg Config, decide Decider) (Result, error) {
	return SimulateSource(ctx, trace.NewSliceSource(tr), cfg, decide)
}

// testIgnoreCapacity, when true, makes the simulator's pick skip the
// feasibility check — a deliberately broken allocator. It exists only
// so tests can prove the audit layer catches oversubscription; never
// set it outside a test. The index cannot express "ignore
// feasibility", so the broken pick runs through fleet.scanPick.
var testIgnoreCapacity bool

// testObserve, when non-nil, receives every successful placement
// (VM ID, pool, server index) in decision order. The differential
// walls use it to compare the columnar simulator's placement sequence
// against internal/oracle's, not just their aggregate Results. Never
// set it outside a test.
var testObserve func(vmID int, green bool, serverID int32)

// aggregator accumulates snapshot observations for one class as
// running sums — O(1) memory however many snapshots a replay takes,
// and flat enough that the simulator checkpoint codec (snapshot.go)
// can carry it verbatim. Each sum accumulates in exactly the order the
// old per-snapshot slices were appended and summed, so the reported
// means are bit-identical to the slice implementation's.
type aggregator struct {
	corePackSum, memPackSum float64
	packObs                 int
	maxMemUtilSum           float64
	cxlFracSum              float64
	cxlObs                  int
	localFits, observed     int
}

// observeServer folds one non-empty server's snapshot observation into
// the per-server sums.
func (a *aggregator) observeServer(class *ServerClass, maxMemTouched float64) {
	util := maxMemTouched / float64(class.Memory)
	a.maxMemUtilSum += util
	local := float64(class.LocalMemory)
	if local <= 0 || local > float64(class.Memory) {
		local = float64(class.Memory)
	}
	over := maxMemTouched - local
	if over < 0 {
		over = 0
		a.localFits++
	}
	a.observed++
	if maxMemTouched > 0 {
		a.cxlFracSum += over / maxMemTouched
		a.cxlObs++
	}
}

// observePacking folds one snapshot's pool-wide packing densities in.
func (a *aggregator) observePacking(allocC, capC, allocM, capM float64) {
	if capC > 0 {
		a.corePackSum += allocC / capC
		a.memPackSum += allocM / capM
		a.packObs++
	}
}

func (a *aggregator) stats() ClassStats {
	var cs ClassStats
	cs.CorePacking = meanOf(a.corePackSum, a.packObs)
	cs.MemPacking = meanOf(a.memPackSum, a.packObs)
	cs.MaxMemUtil = meanOf(a.maxMemUtilSum, a.observed)
	cs.CXLServedFrac = meanOf(a.cxlFracSum, a.cxlObs)
	if a.observed > 0 {
		cs.LocalFitsFrac = float64(a.localFits) / float64(a.observed)
	}
	return cs
}

// meanOf is sum/n with the empty-sample convention (NaN) the
// per-snapshot slices had.
func meanOf(sum float64, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// ClassOf derives a ServerClass from SKU capacities.
func ClassOf(name string, cores int, memory, localMemory units.GB, green bool) ServerClass {
	return ServerClass{Name: name, Cores: cores, Memory: memory, LocalMemory: localMemory, Green: green}
}

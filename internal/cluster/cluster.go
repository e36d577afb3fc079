// Package cluster implements GSF's cluster-sizing component (§IV-D,
// §V): it right-sizes a baseline-only cluster for a VM trace, then
// finds the smallest mixed cluster of GreenSKUs plus baseline SKUs that
// still hosts the trace without rejecting any VM, and compares the two
// clusters' lifetime carbon.
package cluster

import (
	"context"
	"fmt"
	"math"

	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/carbon"
	"github.com/greensku/gsf/internal/trace"
	"github.com/greensku/gsf/internal/units"
)

// Sizer runs right-sizing searches for one workload and SKU pair.
type Sizer struct {
	Base   alloc.ServerClass
	Green  alloc.ServerClass
	Policy alloc.Policy
	// Decide is the adoption component's per-VM directive used when
	// GreenSKUs are present.
	Decide alloc.Decider
	// MaxServers caps the search (guards against unhostable traces).
	MaxServers int
	// Audit receives invariant violations from the sizing search and is
	// forwarded to every allocation simulation it runs. Nil falls back
	// to the process default (audit.SetDefault).
	Audit audit.Checker
}

func (s *Sizer) config(nBase, nGreen int) alloc.Config {
	return alloc.Config{
		Base: s.Base, NBase: nBase,
		Green: s.Green, NGreen: nGreen,
		Policy: s.Policy, PreferNonEmpty: true,
		Audit: s.Audit,
	}
}

func (s *Sizer) maxServers(tr trace.Trace) int {
	if s.MaxServers > 0 {
		return s.MaxServers
	}
	st := trace.Summarise(tr)
	perCores := int(math.Ceil(float64(st.PeakCoreDmd)/float64(s.Base.Cores))) + st.FullNodeVMs
	perMem := int(math.Ceil(float64(st.PeakMemoryDmd) / float64(s.Base.Memory)))
	n := perCores
	if perMem > n {
		n = perMem
	}
	// Fragmentation means the right size can exceed the fluid bound;
	// 3x plus slack is a safe ceiling.
	return 3*n + 8
}

// probe replays the trace against nBase + nGreen servers and records
// the replay's server openings (alloc.Probe). Unaudited, it stops at
// the first rejection.
func (s *Sizer) probe(ctx context.Context, tr trace.Trace, nBase, nGreen int) (alloc.Probe, error) {
	if nBase+nGreen == 0 {
		return alloc.Probe{Hosts: len(tr.VMs) == 0}, nil
	}
	p, err := alloc.ProbeContext(ctx, tr, s.config(nBase, nGreen), s.Decide)
	if testTamper != nil {
		testTamper(&p)
	}
	return p, err
}

// hosts replays the trace against nBase + nGreen servers from the
// first event, recording nothing. Unaudited, it stops at the first
// rejection.
func (s *Sizer) hosts(ctx context.Context, tr trace.Trace, nBase, nGreen int) (bool, error) {
	if nBase+nGreen == 0 {
		return len(tr.VMs) == 0, nil
	}
	return alloc.HostsContext(ctx, tr, s.config(nBase, nGreen), s.Decide)
}

// testTamper, when non-nil, edits every probe record before the search
// reads it. The canary test uses it to prove a wrong record is caught;
// never set it outside a test.
var testTamper func(*alloc.Probe)

// searchMin binary-searches [0, hi] for an n with ok(n) and, when
// n > 0, !ok(n-1): the smallest such n when ok is monotone, which
// fragmentation does not guarantee. The probe sequence depends only on
// ok's answers, so answering probes from a record (searchRecorded)
// leaves the result unchanged.
func searchMin(hi int, ok func(int) (bool, error)) (int, error) {
	if fits, err := ok(hi); err != nil {
		return 0, err
	} else if !fits {
		return 0, fmt.Errorf("cluster: workload does not fit within %d servers", hi)
	}
	lo := 0
	for lo < hi {
		mid := (lo + hi) / 2
		fits, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if fits {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// searchRecorded is searchMin over one pool's size, where top is the
// replay at the search's upper bound hi. Probes the record answers
// (see alloc.Probe for why the answers are exact) skip their replay;
// the rest resume from one of top's checkpoints where resume can, and
// run hosts, a replay from the first event, otherwise. When Audit
// resolves to a checker, every probe runs hosts too, and a record or
// resumed answer that disagrees is reported as a cluster/probe-record
// or cluster/probe-resume violation.
func (s *Sizer) searchRecorded(hi int, top alloc.Probe, answer func(n int) (hosts, known bool),
	resume func(n int) (hosts, ok bool, err error), hosts func(n int) (bool, error)) (int, error) {
	chk := audit.Resolve(s.Audit)
	return searchMin(hi, func(n int) (bool, error) {
		if n == hi { // top is this probe's replay
			return top.Hosts, nil
		}
		kind, source := "probe-record", "the opening record"
		fits, known := answer(n)
		if !known {
			kind, source = "probe-resume", "the replay resumed at a checkpoint"
			var err error
			if fits, known, err = resume(n); err != nil {
				return false, err
			}
		}
		if !known {
			return hosts(n)
		}
		if chk != nil {
			real, err := hosts(n)
			if err != nil {
				return false, err
			}
			if real != fits {
				audit.Failf(chk, "cluster", kind,
					"pool size %d: %s says hosts=%v, a replay from the first event says %v", n, source, fits, real)
				return real, nil
			}
		}
		return fits, nil
	})
}

// RightSizeBaseline returns the minimum number of baseline servers that
// host the trace with no rejections (the paper's first sizing step).
func (s *Sizer) RightSizeBaseline(tr trace.Trace) (int, error) {
	return s.RightSizeBaselineContext(context.Background(), tr)
}

// RightSizeBaselineContext is RightSizeBaseline with cancellation.
func (s *Sizer) RightSizeBaselineContext(ctx context.Context, tr trace.Trace) (int, error) {
	if err := tr.Validate(); err != nil {
		return 0, err
	}
	return s.rightSizeBaseline(ctx, tr, s.maxServers(tr))
}

// rightSizeBaseline is RightSizeBaselineContext on a validated trace,
// searching up to hi servers.
func (s *Sizer) rightSizeBaseline(ctx context.Context, tr trace.Trace, hi int) (int, error) {
	top, err := s.probe(ctx, tr, hi, 0)
	if err != nil {
		return 0, err
	}
	return s.searchRecorded(hi, top, top.BaseHosts, func(n int) (bool, bool, error) {
		return top.ResumeBase(ctx, tr, n)
	}, func(n int) (bool, error) {
		return s.hosts(ctx, tr, n, 0)
	})
}

// Mix is a sized mixed cluster.
type Mix struct {
	BaselineOnly int // right-sized all-baseline cluster
	NBase        int // baseline servers kept in the mixed cluster
	NGreen       int // GreenSKU servers in the mixed cluster
}

// MixedSize performs the paper's incremental-replacement search: after
// right-sizing the baseline-only cluster, it finds the fewest baseline
// servers that must remain (hosting non-adopting and full-node VMs) and
// then the fewest GreenSKUs that, together with them, host everything.
func (s *Sizer) MixedSize(tr trace.Trace) (Mix, error) {
	return s.MixedSizeContext(context.Background(), tr)
}

// MixedSizeContext is MixedSize with cancellation.
func (s *Sizer) MixedSizeContext(ctx context.Context, tr trace.Trace) (Mix, error) {
	var m Mix
	if err := tr.Validate(); err != nil {
		return m, err
	}
	// One bound serves both searches: the baseline-only size and the
	// green pool's cap.
	hi := s.maxServers(tr)
	n0, err := s.rightSizeBaseline(ctx, tr, hi)
	if err != nil {
		return m, err
	}
	m.BaselineOnly = n0
	if s.Green.Cores == 0 {
		m.NBase = n0
		return m, nil
	}
	// Plenty of green capacity while minimising baseline count. The
	// green pool's offered stream does not depend on the baseline
	// size (adopters try green first), so one replay at the upper
	// bound answers the baseline probes.
	greenCap := hi
	top, err := s.probe(ctx, tr, n0, greenCap)
	if err != nil {
		return m, err
	}
	m.NBase, err = s.searchRecorded(n0, top, top.BaseHosts, func(n int) (bool, bool, error) {
		return top.ResumeBase(ctx, tr, n)
	}, func(n int) (bool, error) {
		return s.hosts(ctx, tr, n, greenCap)
	})
	if err != nil {
		return m, err
	}
	// The upper-bound replay still describes the cluster with NBase
	// baseline servers if it never opened more; otherwise replay once
	// at (NBase, greenCap).
	if m.NBase < len(top.BaseOpened) {
		if top, err = s.probe(ctx, tr, m.NBase, greenCap); err != nil {
			return m, err
		}
	}
	m.NGreen, err = s.searchRecorded(greenCap, top, func(n int) (bool, bool) {
		return top.GreenHosts(m.NBase, n)
	}, func(n int) (bool, bool, error) {
		return top.ResumeGreen(ctx, tr, m.NBase, n)
	}, func(n int) (bool, error) {
		return s.hosts(ctx, tr, m.NBase, n)
	})
	if err != nil {
		return m, err
	}
	s.auditMix(tr, m)
	return m, nil
}

// auditMix verifies a sizing result: counts are non-negative, the mixed
// cluster never keeps more baseline servers than the all-baseline
// right-sizing, and (because it hosts the trace with zero rejections,
// and GreenSKU placement only inflates requests) its core and memory
// capacity cover the trace's peak concurrent demand.
func (s *Sizer) auditMix(tr trace.Trace, m Mix) {
	chk := audit.Resolve(s.Audit)
	if chk == nil {
		return
	}
	if m.BaselineOnly < 0 || m.NBase < 0 || m.NGreen < 0 {
		audit.Failf(chk, "cluster", "negative-size", "mix %+v has a negative count", m)
	}
	if m.NBase > m.BaselineOnly {
		audit.Failf(chk, "cluster", "baseline-shrinks",
			"mixed cluster keeps %d baseline servers, more than the %d right-sized", m.NBase, m.BaselineOnly)
	}
	// A placed VM consumes at least its requested resources (GreenSKU
	// placement scales requests up, never down), so a rejection-free
	// cluster's capacity bounds the requested peak — except for
	// full-node VMs requesting more than one baseline server, which
	// consume only the server they pin.
	for _, v := range tr.VMs {
		if v.FullNode && (v.Cores > s.Base.Cores || float64(v.Memory) > float64(s.Base.Memory)) {
			return
		}
	}
	st := trace.Summarise(tr)
	cores := m.NBase*s.Base.Cores + m.NGreen*s.Green.Cores
	if cores < st.PeakCoreDmd {
		audit.Failf(chk, "cluster", "capacity-below-peak",
			"trace %s: mixed capacity %d cores below peak demand %d", tr.Name, cores, st.PeakCoreDmd)
	}
	mem := float64(m.NBase)*float64(s.Base.Memory) + float64(m.NGreen)*float64(s.Green.Memory)
	if mem < float64(st.PeakMemoryDmd) {
		audit.Failf(chk, "cluster", "capacity-below-peak",
			"trace %s: mixed capacity %g GB below peak demand %g", tr.Name, mem, float64(st.PeakMemoryDmd))
	}
}

// Emissions computes a cluster's lifetime carbon from per-core
// emissions (rack-amortised) at a given carbon intensity.
func Emissions(n int, class alloc.ServerClass, pc carbon.PerCore) units.KgCO2e {
	return units.KgCO2e(float64(n) * float64(class.Cores) * float64(pc.Total()))
}

// SavingsInput bundles what the savings calculation needs per SKU.
type SavingsInput struct {
	Class   alloc.ServerClass
	PerCore carbon.PerCore
}

// Savings returns the relative carbon reduction of the mixed cluster
// versus the right-sized all-baseline cluster (Fig. 11's y-axis).
func Savings(m Mix, base, green SavingsInput) float64 {
	all := Emissions(m.BaselineOnly, base.Class, base.PerCore)
	mixed := Emissions(m.NBase, base.Class, base.PerCore) + Emissions(m.NGreen, green.Class, green.PerCore)
	if all == 0 {
		return 0
	}
	return 1 - float64(mixed)/float64(all)
}

// PackingComparison holds the Fig. 9/10 measurements for one trace:
// packing densities and memory utilisation for the right-sized
// all-baseline cluster and for the GreenSKUs of the mixed cluster.
type PackingComparison struct {
	Trace string
	Mix   Mix
	// Baseline stats come from the all-baseline right-sized cluster.
	Baseline alloc.ClassStats
	// Green stats come from the GreenSKU servers of the mixed cluster.
	Green alloc.ClassStats
}

// ComparePacking right-sizes both cluster shapes for the trace and
// returns their packing measurements.
func (s *Sizer) ComparePacking(tr trace.Trace) (PackingComparison, error) {
	return s.ComparePackingContext(context.Background(), tr)
}

// ComparePackingContext is ComparePacking with cancellation.
func (s *Sizer) ComparePackingContext(ctx context.Context, tr trace.Trace) (PackingComparison, error) {
	var pc PackingComparison
	pc.Trace = tr.Name
	m, err := s.MixedSizeContext(ctx, tr)
	if err != nil {
		return pc, err
	}
	pc.Mix = m
	baseRes, err := alloc.SimulateContext(ctx, tr, s.config(m.BaselineOnly, 0), alloc.AdoptNone)
	if err != nil {
		return pc, err
	}
	pc.Baseline = baseRes.Base
	mixRes, err := alloc.SimulateContext(ctx, tr, s.config(m.NBase, m.NGreen), s.Decide)
	if err != nil {
		return pc, err
	}
	pc.Green = mixRes.Green
	return pc, nil
}

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
	"slices"

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
	// GreenSKUs are present. MixedSizeContext calls it from two
	// goroutines at once, so it must be safe for concurrent use.
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
		testTamper(nBase, nGreen, &p)
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

// testTamper, when non-nil, edits every probe record, given the pool
// sizes replayed, before the search reads it. Canary tests use it to
// prove a wrong record is caught; never set it outside a test. Both
// sizing lanes call it.
var testTamper func(nBase, nGreen int, p *alloc.Probe)

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
	return s.searchBase(ctx, tr, top, hi, 0)
}

// searchBase finds the fewest baseline servers, at most hi, that host
// the trace beside nGreen green servers. top is the replay at
// (hi, nGreen).
func (s *Sizer) searchBase(ctx context.Context, tr trace.Trace, top alloc.Probe, hi, nGreen int) (int, error) {
	return s.searchRecorded(hi, top, top.BaseHosts, func(n int) (bool, bool, error) {
		return top.ResumeBase(ctx, tr, n)
	}, func(n int) (bool, error) {
		return s.hosts(ctx, tr, n, nGreen)
	})
}

// searchGreen finds the fewest green servers, at most greenCap, that
// host the trace beside nBase baseline servers. top is a replay at
// greenCap green servers whose baseline pool opened at most nBase
// servers and was capped at no fewer (alloc.Probe.GreenHosts).
func (s *Sizer) searchGreen(ctx context.Context, tr trace.Trace, top alloc.Probe, nBase, greenCap int) (int, error) {
	return s.searchRecorded(greenCap, top, func(n int) (bool, bool) {
		return top.GreenHosts(nBase, n)
	}, func(n int) (bool, bool, error) {
		return top.ResumeGreen(ctx, tr, nBase, n)
	}, func(n int) (bool, error) {
		return s.hosts(ctx, tr, nBase, n)
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
//
// The three searches run on two goroutines. Lane 2 replays the trace
// once at (hi, greenCap) — the upper-bound replay U, whose baseline
// pool opens kb servers — and runs the green search from U at
// nBase = kb. Lane 1, the caller, right-sizes the baseline-only
// cluster to n0, then runs the NBase search from U. A replay capped at
// n >= kb baseline servers is U itself (alloc.Probe), so when U hosts
// the trace and kb <= n0, U is the (n0, greenCap) replay the NBase
// search needs; when NBase also equals kb, lane 2 ran exactly the green
// search the serial order would run, and its answer is taken.
// Otherwise lane 2 is cancelled and the searches run in order from
// real replays. Either way the Mix is the serial search's, bit for
// bit; audited, upperAt checks U against the real replays.
func (s *Sizer) MixedSizeContext(ctx context.Context, tr trace.Trace) (Mix, error) {
	var m Mix
	if err := tr.Validate(); err != nil {
		return m, err
	}
	// One bound serves every search: the baseline-only size and the
	// green pool's cap.
	hi := s.maxServers(tr)
	if s.Green.Cores == 0 {
		n0, err := s.rightSizeBaseline(ctx, tr, hi)
		if err != nil {
			return m, err
		}
		return Mix{BaselineOnly: n0, NBase: n0}, nil
	}
	// Plenty of green capacity while minimising baseline count. The
	// green pool's offered stream does not depend on the baseline
	// size (adopters try green first), so one replay at the upper
	// bound answers the baseline probes.
	greenCap := hi
	lane := s.startUpper(ctx, tr, hi, greenCap)
	defer lane.stop()
	n0, err := s.rightSizeBaseline(ctx, tr, hi)
	if err != nil {
		return m, err
	}
	m.BaselineOnly = n0
	u, err := lane.upper()
	if err != nil {
		return m, err
	}
	top, shared, err := s.upperAt(ctx, tr, u, n0, greenCap)
	if err != nil {
		return m, err
	}
	if m.NBase, err = s.searchBase(ctx, tr, top, n0, greenCap); err != nil {
		return m, err
	}
	kb := len(u.BaseOpened)
	if shared && m.NBase == kb && m.NBase != n0 {
		// Unaudited this is U again; audited it checks U against the
		// real replay at (NBase, greenCap).
		if top, shared, err = s.upperAt(ctx, tr, u, m.NBase, greenCap); err != nil {
			return m, err
		}
	}
	if shared && m.NBase == kb {
		m.NGreen, err = lane.join()
	} else {
		lane.stop()
		// The replay at (n0, greenCap) still describes the cluster with
		// NBase baseline servers if it never opened more; otherwise
		// replay once at (NBase, greenCap).
		if m.NBase < len(top.BaseOpened) {
			if top, err = s.probe(ctx, tr, m.NBase, greenCap); err != nil {
				return m, err
			}
		}
		m.NGreen, err = s.searchGreen(ctx, tr, top, m.NBase, greenCap)
	}
	if err != nil {
		return m, err
	}
	s.auditMix(tr, m)
	return m, nil
}

// upperAt returns the replay at (n, greenCap) for the NBase and green
// searches. That is u, the replay at (hi, greenCap), when u hosts the
// trace and its baseline pool opened at most n servers: capped at n it
// never reaches the cap, so it replays identically (alloc.Probe).
// shared reports that u was returned. Otherwise it replays at
// (n, greenCap). Audited, it replays in both cases and reports a u
// whose record differs from the real replay's as a
// cluster/upper-bound-shared violation, returning the real replay.
func (s *Sizer) upperAt(ctx context.Context, tr trace.Trace, u alloc.Probe, n, greenCap int) (top alloc.Probe, shared bool, err error) {
	chk := audit.Resolve(s.Audit)
	shared = u.Hosts && len(u.BaseOpened) <= n
	if shared && chk == nil {
		return u, true, nil
	}
	if top, err = s.probe(ctx, tr, n, greenCap); err != nil || !shared {
		return top, false, err
	}
	if top.Hosts != u.Hosts || !slices.Equal(top.BaseOpened, u.BaseOpened) || !slices.Equal(top.GreenOpened, u.GreenOpened) {
		audit.Failf(chk, "cluster", "upper-bound-shared",
			"trace %s: the upper-bound replay (hosts=%v, %d baseline and %d green openings) differs from "+
				"the replay at (%d, %d) it stands in for (hosts=%v, %d and %d openings)",
			tr.Name, u.Hosts, len(u.BaseOpened), len(u.GreenOpened), n, greenCap,
			top.Hosts, len(top.BaseOpened), len(top.GreenOpened))
		return top, false, nil
	}
	return u, true, nil
}

// upperLane is lane 2 of MixedSizeContext: the upper-bound replay U
// and the green search from it, on their own goroutine. Lane 1 reads
// top and topErr once probed is closed, and nGreen and err once done
// is closed. A panic in the lane is caught as a lanePanic error and
// raised again on lane 1's goroutine.
type upperLane struct {
	cancel context.CancelFunc
	probed chan struct{}
	done   chan struct{}
	top    alloc.Probe
	topErr error
	nGreen int
	err    error
}

// startUpper starts lane 2: the replay at (hi, greenCap), then, if it
// hosts the trace, the green search from it at its own baseline
// high-water mark.
func (s *Sizer) startUpper(ctx context.Context, tr trace.Trace, hi, greenCap int) *upperLane {
	ctx, cancel := context.WithCancel(ctx)
	l := &upperLane{cancel: cancel, probed: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.topErr = catch(func() (err error) {
			if testLane != nil {
				testLane(ctx)
			}
			l.top, err = s.probe(ctx, tr, hi, greenCap)
			return err
		})
		close(l.probed)
		if l.topErr != nil || !l.top.Hosts {
			return
		}
		l.err = catch(func() (err error) {
			l.nGreen, err = s.searchGreen(ctx, tr, l.top, len(l.top.BaseOpened), greenCap)
			return err
		})
	}()
	return l
}

// upper waits for U.
func (l *upperLane) upper() (alloc.Probe, error) {
	<-l.probed
	return l.top, raise(l.topErr)
}

// join waits for the lane's green search and returns its answer.
func (l *upperLane) join() (int, error) {
	<-l.done
	return l.nGreen, raise(l.err)
}

// stop cancels the lane and waits for it to end, discarding its
// answer. It is safe to call more than once.
func (l *upperLane) stop() {
	l.cancel()
	<-l.done
}

// testLane, when non-nil, runs at the start of every lane 2 with the
// lane's context. Tests use it to hold or panic the lane; never set it
// outside a test.
var testLane func(context.Context)

// lanePanic carries a value recovered from a panic in lane 2.
type lanePanic struct{ v any }

func (p lanePanic) Error() string { return fmt.Sprint("cluster: panic in the upper-bound lane: ", p.v) }

// catch runs f and returns its error, or a panic it raised as a
// lanePanic.
func catch(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = lanePanic{r}
		}
	}()
	return f()
}

// raise panics with the value a lanePanic carries and returns any
// other error.
func raise(err error) error {
	if p, ok := err.(lanePanic); ok {
		panic(p.v)
	}
	return err
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

package cluster

// The sizing differential wall: the record-answered search must size
// every cluster exactly as a plain binary search over full replays.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/trace"
)

// raceEnabled is set under the race detector, which slows replays
// enough that the sizing wall runs on a prefix of the suite.
var raceEnabled bool

// halfScaled adopts every other VM with a 1.25x scaling factor, so the
// green pool sees inflated requests and the baseline pool keeps real
// work.
func halfScaled(vm trace.VM) alloc.Decision {
	if vm.ID%2 == 0 {
		return alloc.Decision{Adopt: true, Scale: 1.25}
	}
	return alloc.Decision{}
}

// withoutAudit removes the process-default audit checker until the
// test and its subtests finish, so sizers without their own checker
// take the unaudited early-exit path.
func withoutAudit(t *testing.T) {
	prev := audit.Default()
	audit.SetDefault(nil)
	t.Cleanup(func() { audit.SetDefault(prev) })
}

// fullReplayPacking is the oracle: ComparePacking as a binary search in
// which every probe is a full replay to the horizon.
func fullReplayPacking(ctx context.Context, s *Sizer, tr trace.Trace) (PackingComparison, error) {
	pc := PackingComparison{Trace: tr.Name}
	hosts := func(nBase, nGreen int) (bool, error) {
		if nBase+nGreen == 0 {
			return len(tr.VMs) == 0, nil
		}
		res, err := alloc.SimulateContext(ctx, tr, s.config(nBase, nGreen), s.Decide)
		return res.Rejected == 0, err
	}
	m := &pc.Mix
	var err error
	cap := s.maxServers(tr)
	if m.BaselineOnly, err = searchMin(cap, func(n int) (bool, error) { return hosts(n, 0) }); err != nil {
		return pc, err
	}
	m.NBase = m.BaselineOnly
	if s.Green.Cores > 0 {
		if m.NBase, err = searchMin(m.BaselineOnly, func(n int) (bool, error) { return hosts(n, cap) }); err != nil {
			return pc, err
		}
		if m.NGreen, err = searchMin(cap, func(n int) (bool, error) { return hosts(m.NBase, n) }); err != nil {
			return pc, err
		}
	}
	baseRes, err := alloc.SimulateContext(ctx, tr, s.config(m.BaselineOnly, 0), alloc.AdoptNone)
	if err != nil {
		return pc, err
	}
	mixRes, err := alloc.SimulateContext(ctx, tr, s.config(m.NBase, m.NGreen), s.Decide)
	if err != nil {
		return pc, err
	}
	pc.Baseline, pc.Green = baseRes.Base, mixRes.Green
	return pc, nil
}

// TestSizingMatchesFullReplaySearch35Traces is the sizing differential
// wall: over the production suite, every policy, and two deciders,
// ComparePacking (and so MixedSize) must equal the full-replay oracle
// both unaudited, where probes stop early and the record answers most
// of them, and audited, where every record answer is replayed and
// checked. With -short or the race detector it covers the first five
// traces.
func TestSizingMatchesFullReplaySearch35Traces(t *testing.T) {
	suite, err := trace.ProductionSuite()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() || raceEnabled {
		suite = suite[:5]
	}
	withoutAudit(t)
	deciders := []struct {
		name   string
		decide alloc.Decider
	}{{"adopt-all", alloc.AdoptAll}, {"half-scaled", halfScaled}}
	for _, tr := range suite {
		t.Run(tr.Name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			for _, pol := range []alloc.Policy{alloc.BestFit, alloc.FirstFit, alloc.WorstFit} {
				for _, d := range deciders {
					s := &Sizer{Base: baseClass(), Green: greenClass(), Policy: pol, Decide: d.decide}
					want, err := fullReplayPacking(ctx, s, tr)
					if err != nil {
						t.Fatal(err)
					}
					got, err := s.ComparePackingContext(ctx, tr)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%v %s: record-answered sizing differs from full replays:\ngot  %+v\nwant %+v",
							pol, d.name, got, want)
					}

					rec := audit.NewRecorder()
					s.Audit = rec
					got, err = s.ComparePackingContext(ctx, tr)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%v %s: audited sizing differs from full replays:\ngot  %+v\nwant %+v",
							pol, d.name, got, want)
					}
					if err := rec.Err(); err != nil {
						t.Fatalf("%v %s: %v\n%v", pol, d.name, err, rec.Violations())
					}
				}
			}
		})
	}
}

func TestProbeStopsAtFirstRejectionUnlessAudited(t *testing.T) {
	tr := testTrace(t, 5)
	calls := 0
	s := &Sizer{Base: baseClass(), Policy: alloc.BestFit, Decide: func(vm trace.VM) alloc.Decision {
		calls++
		return alloc.Decision{}
	}}
	ctx := context.Background()
	withoutAudit(t)
	if p, err := s.probe(ctx, tr, 1, 0); err != nil || p.Hosts {
		t.Fatalf("one server hosts the trace: hosts=%v err=%v", p.Hosts, err)
	}
	if calls == 0 || calls >= len(tr.VMs) {
		t.Fatalf("unaudited probe of an undersized cluster saw %d of %d VMs, want an early stop", calls, len(tr.VMs))
	}
	calls = 0
	s.Audit = audit.NewRecorder()
	if p, err := s.probe(ctx, tr, 1, 0); err != nil || p.Hosts {
		t.Fatalf("one server hosts the trace: hosts=%v err=%v", p.Hosts, err)
	}
	if calls != len(tr.VMs) {
		t.Fatalf("audited probe saw %d of %d VMs, want the whole trace", calls, len(tr.VMs))
	}
}

// TestProbeRecordCanary flips one recorded entry so the record claims
// that the sized cluster, which hosts the trace, rejects; the audited
// search must report it.
func TestProbeRecordCanary(t *testing.T) {
	tr := testTrace(t, 6)
	s := &Sizer{Base: baseClass(), Green: greenClass(), Policy: alloc.BestFit, Decide: alloc.AdoptAll}
	ctx := context.Background()
	m, err := s.MixedSizeContext(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	// The green search answers from the upper-bound replay's record,
	// which must describe the sized cluster's NGreen as an unforced
	// opening for the flip to turn a true answer false.
	top, err := s.probe(ctx, tr, m.BaselineOnly, s.maxServers(tr))
	if err != nil {
		t.Fatal(err)
	}
	n := m.NGreen
	if n >= len(top.GreenOpened) || int(top.GreenOpened[n]) >= m.NBase {
		t.Fatalf("trace opens green server %d forced or not at all (record %v); pick another", n, top.GreenOpened)
	}
	testTamper = func(_, _ int, p *alloc.Probe) {
		if n < len(p.GreenOpened) {
			p.GreenOpened[n] = math.MaxInt32
		}
	}
	defer func() { testTamper = nil }()
	rec := audit.NewRecorder()
	s.Audit = rec
	if _, err := s.MixedSizeContext(ctx, tr); err != nil {
		t.Fatal(err)
	}
	if rec.Counts()["cluster/probe-record"] == 0 {
		t.Fatalf("a flipped record entry went unreported: %v", rec.Counts())
	}
}

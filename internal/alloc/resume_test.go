package alloc

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/trace"
)

// raceEnabled is set under the race detector, which slows replays
// enough that the resume wall runs on a prefix of the suite.
var raceEnabled bool

// withoutAudit removes the process-default audit checker until the
// test and its subtests finish, so probes take the unaudited
// early-exit path.
func withoutAudit(t *testing.T) {
	prev := audit.Default()
	audit.SetDefault(nil)
	t.Cleanup(func() { audit.SetDefault(prev) })
}

// halfScaled adopts every other VM with a 1.25x scaling factor, so the
// green pool sees inflated requests and the baseline pool keeps real
// work.
func halfScaled(vm trace.VM) Decision {
	if vm.ID%2 == 0 {
		return Decision{Adopt: true, Scale: 1.25}
	}
	return Decision{}
}

// poolBound is an upper bound on either pool's right size, as the
// cluster sizer derives it: three times the fluid server count plus
// slack.
func poolBound(tr trace.Trace) int {
	st := trace.Summarise(tr)
	b := baseClass()
	n := int(math.Ceil(float64(st.PeakCoreDmd)/float64(b.Cores))) + st.FullNodeVMs
	if m := int(math.Ceil(float64(st.PeakMemoryDmd) / float64(b.Memory))); m > n {
		n = m
	}
	return 3*n + 8
}

// TestResumeMatchesFromScratchProbes35Traces is the resume differential
// wall: for every unforced opening of a top probe, the probe resumed
// at it must host the trace exactly when a from-scratch ProbeContext
// at the same caps does. Each top runs twice, keeping the production
// checkpoint budget and a budget of two, so probes resume both from
// their own opening and from a checkpoint well before it. Tops have
// both pools at the sizer's bound under the production
// prefer-non-empty rule, plus a baseline-only top without it for the
// baseline pool's openings. With -short or the race detector it
// covers the first five traces.
func TestResumeMatchesFromScratchProbes35Traces(t *testing.T) {
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
		decide Decider
	}{{"adopt-all", AdoptAll}, {"half-scaled", halfScaled}}
	var mu sync.Mutex
	var counts [2][2]int // resumed probes by [pool][hosts]
	for _, tr := range suite {
		t.Run(tr.Name, func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			hi := poolBound(tr)
			for _, pol := range []Policy{BestFit, FirstFit, WorstFit} {
				for _, d := range deciders {
					for _, pne := range []bool{true, false} {
						// A baseline pool that prefers non-empty servers opens
						// one almost only when forced. Worst-fit without the
						// rule opens one whenever it can, so its baseline-only
						// replay of the trace without full-node VMs (which
						// need an empty server) gives the baseline pool's
						// checkpoints.
						nGreen := hi
						if !pne {
							if d.name != deciders[0].name || pol != WorstFit {
								continue
							}
							nGreen = 0
						}
						cfg := Config{Base: baseClass(), NBase: hi, Green: greenClass(), NGreen: nGreen,
							Policy: pol, PreferNonEmpty: pne}
						name := fmt.Sprintf("%v %s preferNonEmpty=%v", pol, d.name, pne)
						tr := tr
						if !pne {
							tr = withoutFullNode(tr)
						}
						top, err := ProbeContext(ctx, tr, cfg, d.decide)
						if err != nil || !top.Hosts {
							t.Fatalf("%s: top probe hosts=%v err=%v", name, top.Hosts, err)
						}
						thin, err := probeContext(ctx, tr, cfg, d.decide, 2)
						if err != nil || !thin.Hosts {
							t.Fatalf("%s: thinned top probe hosts=%v err=%v", name, thin.Hosts, err)
						}
						check := func(pool int, nBase, nGreen int, resume func(p *Probe) (hosts, ok bool, err error)) {
							t.Helper()
							c := cfg
							c.NBase, c.NGreen = nBase, nGreen
							want := len(tr.VMs) == 0
							if nBase+nGreen > 0 {
								p, err := ProbeContext(ctx, tr, c, d.decide)
								if err != nil {
									t.Fatal(err)
								}
								want = p.Hosts
							}
							for _, p := range []*Probe{&top, &thin} {
								hosts, ok, err := resume(p)
								if err != nil || !ok {
									t.Fatalf("%s: probe at (%d, %d) did not resume: ok=%v err=%v", name, nBase, nGreen, ok, err)
								}
								if hosts != want {
									t.Fatalf("%s: probe resumed at (%d, %d) with budget %d says hosts=%v, from scratch %v",
										name, nBase, nGreen, p.cps.max, hosts, want)
								}
							}
							mu.Lock()
							counts[pool][b2i(want)]++
							mu.Unlock()
						}
						// Without the rule, nearly every baseline opening is
						// unforced; a dozen spread over them suffice.
						stride := 1
						if !pne {
							stride = len(top.BaseOpened)/12 + 1
						}
						for n, forced := range top.BaseOpened {
							if !forced && n%stride == 0 {
								check(0, n, nGreen, func(p *Probe) (bool, bool, error) { return p.ResumeBase(ctx, tr, n) })
							}
						}
						// Alternate openings resume at the two ends of the
						// baseline sizes ResumeGreen accepts.
						nBases := []int{hi, len(top.BaseOpened)}
						for n, upTo := range top.GreenOpened {
							if upTo != math.MaxInt32 {
								nBase := nBases[n%2]
								check(1, nBase, n, func(p *Probe) (bool, bool, error) { return p.ResumeGreen(ctx, tr, nBase, n) })
							}
						}
					}
				}
			}
		})
	}
	t.Cleanup(func() {
		// Both pools must resume probes that host and probes that do
		// not, or the wall proves less than it claims.
		for p, pool := range []string{"base", "green"} {
			if counts[p][0] == 0 || counts[p][1] == 0 {
				t.Errorf("%s checkpoints resumed to hosts=false %d times and hosts=true %d times; want both",
					pool, counts[p][0], counts[p][1])
			}
		}
	})
}

// withoutFullNode drops a trace's full-node VMs.
func withoutFullNode(tr trace.Trace) trace.Trace {
	out := tr
	out.VMs = nil
	for _, vm := range tr.VMs {
		if !vm.FullNode {
			out.VMs = append(out.VMs, vm)
		}
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestResumeStepsOnlyFromCheckpoint pins the saving: a resumed probe
// asks its decider about its checkpoint's VM and the VMs after it that
// are not full-node, never about one before. The checkpoint is the probe's own opening
// while the budget keeps one at every unforced opening, and an earlier
// one once it does not.
func TestResumeStepsOnlyFromCheckpoint(t *testing.T) {
	withoutAudit(t)
	p := trace.DefaultParams("resume-count", 11)
	p.HorizonHours = 72
	tr, err := trace.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var seen []int
	decide := func(vm trace.VM) Decision {
		seen = append(seen, vm.ID)
		return halfScaled(vm)
	}
	ctx := context.Background()
	hi := poolBound(tr)
	cfg := Config{Base: baseClass(), NBase: hi, Green: greenClass(), NGreen: hi, PreferNonEmpty: true}
	unforced := 0
	for _, budget := range []int{len(tr.VMs) &^ 1, 2} {
		top, err := probeContext(ctx, tr, cfg, decide, budget)
		if err != nil || !top.Hosts {
			t.Fatalf("top probe hosts=%v err=%v", top.Hosts, err)
		}
		resumed, early := 0, 0
		for _, pool := range []struct {
			at       []int32
			unforced func(n int) bool
			from     func(n int) *Sim
			resume   func(n int) (hosts, ok bool, err error)
		}{
			{top.baseAt, func(n int) bool { return !top.BaseOpened[n] }, top.resumeBase,
				func(n int) (bool, bool, error) { return top.ResumeBase(ctx, tr, n) }},
			{top.greenAt, func(n int) bool { return top.GreenOpened[n] != math.MaxInt32 }, top.resumeGreen,
				func(n int) (bool, bool, error) { return top.ResumeGreen(ctx, tr, hi, n) }},
		} {
			for n, opened := range pool.at {
				if !pool.unforced(n) {
					continue
				}
				from := pool.from(n).events
				switch {
				case from > int(opened):
					t.Fatalf("budget %d: probe at %d resumes at event %d, after its opening at %d", budget, n, from, opened)
				case from < int(opened):
					early++
				}
				seen = seen[:0]
				hosts, ok, err := pool.resume(n)
				if err != nil || !ok {
					t.Fatalf("budget %d: resume at %d: ok=%v err=%v", budget, n, ok, err)
				}
				if len(seen) == 0 || seen[0] != tr.VMs[from].ID {
					t.Fatalf("budget %d: resume at %d: first decision %v, want the checkpoint's VM %d", budget, n, seen, tr.VMs[from].ID)
				}
				var want []int
				for _, vm := range tr.VMs[from:] {
					if !vm.FullNode {
						want = append(want, vm.ID)
					}
				}
				for i, id := range seen {
					if i >= len(want) || id != want[i] {
						t.Fatalf("budget %d: resume at %d: decision %d was VM %d, not the next VM after the checkpoint", budget, n, i, id)
					}
				}
				if hosts && len(seen) != len(want) {
					t.Fatalf("budget %d: resume at %d hosts after %d decisions, want %d", budget, n, len(seen), len(want))
				}
				resumed++
			}
		}
		switch {
		case budget > 2 && (resumed == 0 || early > 0):
			t.Fatalf("budget %d: %d probes resumed, %d before their opening; want some, none", budget, resumed, early)
		case budget > 2:
			unforced = resumed
		case resumed != unforced || len(top.cps.at) > 2 || early == 0:
			t.Fatalf("budget 2: %d of %d probes resumed from %d checkpoints, %d before their opening",
				resumed, unforced, len(top.cps.at), early)
		}
	}
}

// TestCheckpointsStayEvenlySpread offers a budget of four a long run
// of openings: it must keep between two and four, always the first,
// at a power-of-two stride, and find the last one at or before any
// event.
func TestCheckpointsStayEvenlySpread(t *testing.T) {
	sim, err := NewSim("cps", Config{Base: baseClass(), NBase: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := checkpoints{max: 4, stride: 1}
	for j := 0; j < 100; j++ {
		sim.events = 10 * j
		c.offer(sim)
		if len(c.at) < 1 || len(c.at) > 4 || (j >= 4 && len(c.at) < 2) {
			t.Fatalf("after %d openings: %d checkpoints", j+1, len(c.at))
		}
		for i, cp := range c.at {
			if cp.events != 10*i*c.stride {
				t.Fatalf("after %d openings, stride %d: checkpoint %d at event %d, want %d",
					j+1, c.stride, i, cp.events, 10*i*c.stride)
			}
		}
	}
	if c.stride != 32 {
		t.Fatalf("stride %d after 100 openings, want 32", c.stride)
	}
	for ev := int32(0); ev < 1000; ev += 7 {
		cp := c.before(ev)
		want := int(ev) / 320 * 320
		if cp == nil || cp.events != want {
			t.Fatalf("before(%d) = %v, want the checkpoint at %d", ev, cp, want)
		}
	}
	if (&checkpoints{max: 4, stride: 1}).before(5) != nil {
		t.Fatal("an empty set of checkpoints found one")
	}
}

// TestProbeCheckpointsBounded replays a baseline-only cluster that
// opens nearly every server unforced and requires the probe to keep no
// more than maxCheckpoints clones of it.
func TestProbeCheckpointsBounded(t *testing.T) {
	withoutAudit(t)
	p := trace.DefaultParams("cps-bounded", 3)
	p.HorizonHours, p.ArrivalsPerHour = 96, 60
	tr, err := trace.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	tr = withoutFullNode(tr)
	cfg := Config{Base: baseClass(), NBase: poolBound(tr), Policy: WorstFit}
	top, err := ProbeContext(context.Background(), tr, cfg, nil)
	if err != nil || !top.Hosts {
		t.Fatalf("top probe hosts=%v err=%v", top.Hosts, err)
	}
	unforced := 0
	for _, forced := range top.BaseOpened {
		if !forced {
			unforced++
		}
	}
	if unforced <= 2*maxCheckpoints || len(top.cps.at) > maxCheckpoints || len(top.cps.at) < maxCheckpoints/2 {
		t.Fatalf("%d unforced openings kept %d checkpoints; want more than %d openings and %d to %d checkpoints",
			unforced, len(top.cps.at), 2*maxCheckpoints, maxCheckpoints/2, maxCheckpoints)
	}
}

// TestCloneContinuesBitIdentically clones a simulator mid-replay and
// finishes both: each must produce the Result of an uninterrupted
// replay, so a clone shares no state with its original.
func TestCloneContinuesBitIdentically(t *testing.T) {
	p := trace.DefaultParams("clone", 5)
	p.HorizonHours = 96
	tr, err := trace.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []Policy{BestFit, FirstFit, WorstFit} {
		cfg := Config{Base: baseClass(), NBase: 60, Green: greenClass(), NGreen: 40, Policy: pol, PreferNonEmpty: true}
		want, err := Simulate(tr, cfg, diffDecider)
		if err != nil {
			t.Fatal(err)
		}
		for _, cut := range []int{1, len(tr.VMs) / 3, len(tr.VMs) - 1} {
			orig, err := NewSim(tr.Name, cfg, diffDecider)
			if err != nil {
				t.Fatal(err)
			}
			for _, vm := range tr.VMs[:cut] {
				if err := orig.Step(vm); err != nil {
					t.Fatal(err)
				}
			}
			clone := orig.clone()
			// Finish the clone first: writes through shared state would
			// then show up in the original's Result.
			for _, s := range []*Sim{clone, orig} {
				for _, vm := range tr.VMs[cut:] {
					if err := s.Step(vm); err != nil {
						t.Fatal(err)
					}
				}
				if got := s.Finish(tr.Horizon); !sameResult(got, want) {
					t.Fatalf("%v cut %d: clone=%v diverged:\ngot  %+v\nwant %+v", pol, cut, s == clone, got, want)
				}
			}
		}
	}
}

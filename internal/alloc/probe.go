package alloc

// Sizing probes: one replay that answers "does a smaller pool still
// host the trace?" for almost every smaller pool size.
//
// The columnar simulator opens a new server only at the lowest virgin
// id (see fleet.pick), so a pool's servers open in id order. Take a
// replay with zero rejections whose pool reaches high-water mark k,
// and cap that pool at n servers instead, leaving everything else the
// same:
//
//   - n >= k: the capped replay is identical. It never needed a
//     virgin at an id >= n, and a virgin offered but not chosen
//     changes no decision.
//   - n < k: the capped replay is identical up to the event at which
//     the uncapped one opens id n. There the capped pool offers no
//     virgin, so it falls back to the touched winner — the server the
//     pick would choose from the touched prefix alone. If there is
//     none (the opening was forced), the pool refuses the VM. A
//     refused baseline request is a rejection: adopting VMs reach the
//     baseline pool only after the green pool refused them. A refused
//     green request falls back to the baseline pool unscaled, so it is
//     a rejection only if the baseline pool also refuses it at that
//     moment. If the opening was not forced the replays diverge, and
//     only a real replay can tell.
//
// A Probe records, per opened id, whether its opening was forced, so a
// caller searching for the smallest pool can answer every n >= k and
// every forced n < k without replaying.
//
// The unforced n < k still need a replay, but not from the first
// event: up to the event that opens id n, the capped replay is the
// uncapped one. So while the uncapped replay runs, the Probe keeps
// checkpoints — in-memory clones of the simulator — at unforced
// openings, and a probe at n clones the last checkpoint at or before
// the opening of id n, caps the pool at n, re-admits that
// checkpoint's VM and steps on from there. Any checkpoint before the
// divergence serves: the two replays agree at every earlier event.
// A checkpoint is taken inside the opening's Step, after the releases
// and snapshots due by the VM's arrival and before its placement: the
// pick is where the two replays part, and everything before it is
// shared. Until the placement, Step only reads the simulator
// (Sim.admit), so the clone is exactly the state the capped replay
// reaches.
//
// A checkpoint costs O(touched servers + live VMs). Kept at every
// unforced opening, they would cost O(unforced openings × (touched
// servers + live VMs)) — quadratic in the cluster size, since both
// grow with it. So a replay keeps at most maxCheckpoints of them,
// evenly spread over its unforced openings (see checkpoints), which
// bounds their memory to a constant multiple of the simulator's own;
// a probe whose opening lost its checkpoint replays a little longer
// from an earlier one. Audited sizing still replays every probe from
// the first event and checks the resumed answer against it
// (internal/cluster).

import (
	"context"
	"math"
	"slices"

	"github.com/greensku/gsf/internal/trace"
)

// Probe is the result of ProbeContext: whether the cluster hosts the
// trace and, for a replay that does, its per-opening record.
type Probe struct {
	// Hosts reports a replay with zero rejections. The record below is
	// meaningful only when it holds.
	Hosts bool
	// BaseOpened has one entry per baseline server the replay opened,
	// in id order: whether that opening was forced, meaning no touched
	// baseline server could take the VM.
	BaseOpened []bool
	// GreenOpened has one entry per green server the replay opened, in
	// id order: the largest baseline pool size at which the opening
	// was forced, or -1 if it was not forced at any size. Forced means
	// no touched green server could take the VM and neither could a
	// baseline pool of that size (its touched servers, plus a virgin
	// when the pool has room for one).
	GreenOpened []int32

	// baseAt and greenAt parallel BaseOpened and GreenOpened: the
	// index in the trace of the VM whose placement opened the server.
	baseAt, greenAt []int32
	// cps are the replay's checkpoints, in trace order.
	cps checkpoints
}

// maxCheckpoints bounds the checkpoints one replay keeps, and so their
// memory to that many simulators. It must be even (checkpoints.offer).
// Most week-long replays of a few dozen servers stay within it.
const maxCheckpoints = 16

// checkpoints keeps at most max clones of a replay's simulator, taken
// at every stride-th opening offered. When full, it drops every other
// clone and doubles the stride, so the kept clones stay evenly spread
// over the openings seen so far and the first is always kept.
type checkpoints struct {
	at     []*Sim
	max    int
	stride int
	seen   int
}

// offer clones s if the opening is one the stride keeps.
func (c *checkpoints) offer(s *Sim) {
	j := c.seen
	c.seen++
	if j%c.stride != 0 {
		return
	}
	if len(c.at) == c.max {
		// Keep the clones at multiples of the doubled stride, the even
		// positions; the one on offer (j = max*stride) is among them.
		n := len(c.at)
		for i := 0; 2*i < n; i++ {
			c.at[i] = c.at[2*i]
		}
		clear(c.at[(n+1)/2 : n])
		c.at = c.at[:(n+1)/2]
		c.stride *= 2
	}
	c.at = append(c.at, s.clone())
}

// before returns the last checkpoint taken at or before the trace's
// event i, or nil if there is none.
func (c *checkpoints) before(i int32) *Sim {
	k, _ := slices.BinarySearchFunc(c.at, i, func(s *Sim, i int32) int {
		if s.events <= int(i) {
			return -1
		}
		return 1
	})
	if k == 0 {
		return nil
	}
	return c.at[k-1]
}

// BaseHosts answers whether the replay's cluster with its baseline
// pool capped at n servers hosts the trace. known is false when the
// record cannot tell and only a real replay can.
func (p *Probe) BaseHosts(n int) (hosts, known bool) {
	switch {
	case !p.Hosts:
		return false, false
	case n >= len(p.BaseOpened):
		return true, true
	case p.BaseOpened[n]:
		return false, true
	}
	return false, false
}

// GreenHosts answers whether the replay's cluster with nBase baseline
// and n green servers hosts the trace. It requires nBase to be no
// larger than the replay's baseline pool and at least
// len(BaseOpened), so the baseline pool behaves as in the replay.
// known is false when the record cannot tell.
func (p *Probe) GreenHosts(nBase, n int) (hosts, known bool) {
	switch {
	case !p.Hosts || nBase < len(p.BaseOpened):
		return false, false
	case n >= len(p.GreenOpened):
		return true, true
	case nBase <= int(p.GreenOpened[n]):
		return false, true
	}
	return false, false
}

// ResumeBase replays the cluster with its baseline pool capped at n
// servers from the last checkpoint at or before the replay's opening
// of baseline id n, and reports whether it hosts the trace. tr must
// be the trace the probe replayed. ok is false when there is no such
// checkpoint, as when the replay never opened id n (BaseHosts answers
// that).
func (p *Probe) ResumeBase(ctx context.Context, tr trace.Trace, n int) (hosts, ok bool, err error) {
	cp := p.resumeBase(n)
	if cp == nil {
		return false, false, nil
	}
	hosts, err = cp.resume(ctx, tr, n, cp.cfg.NGreen)
	return hosts, true, err
}

// ResumeGreen is ResumeBase for the cluster with nBase baseline and n
// green servers, from the last checkpoint at or before the replay's
// opening of green id n. Under GreenHosts's precondition — nBase
// between len(BaseOpened) and the replay's baseline pool size — the
// baseline pool behaves as in the replay up to that opening; outside
// it ok is false.
func (p *Probe) ResumeGreen(ctx context.Context, tr trace.Trace, nBase, n int) (hosts, ok bool, err error) {
	cp := p.resumeGreen(n)
	if cp == nil || nBase < len(p.BaseOpened) || nBase > cp.cfg.NBase {
		return false, false, nil
	}
	hosts, err = cp.resume(ctx, tr, nBase, n)
	return hosts, true, err
}

// resumeBase and resumeGreen return the checkpoint a probe at n
// resumes from, or nil.
func (p *Probe) resumeBase(n int) *Sim {
	if n < 0 || n >= len(p.baseAt) {
		return nil
	}
	return p.cps.before(p.baseAt[n])
}

func (p *Probe) resumeGreen(n int) *Sim {
	if n < 0 || n >= len(p.greenAt) {
		return nil
	}
	return p.cps.before(p.greenAt[n])
}

// ProbeContext replays the trace through the columnar simulator and
// records every server opening. Without an audit checker it stops at
// the first rejection, since a sizing search needs only whether the
// cluster hosts the trace. With one it runs to the horizon, so every
// alloc audit still fires.
func ProbeContext(ctx context.Context, tr trace.Trace, cfg Config, decide Decider) (Probe, error) {
	return probeContext(ctx, tr, cfg, decide, maxCheckpoints)
}

// probeContext is ProbeContext keeping at most budget checkpoints.
func probeContext(ctx context.Context, tr trace.Trace, cfg Config, decide Decider, budget int) (Probe, error) {
	if err := tr.Validate(); err != nil {
		return Probe{}, err
	}
	sim, err := NewSim(tr.Name, cfg, decide)
	if err != nil {
		return Probe{}, err
	}
	p := Probe{cps: checkpoints{max: budget, stride: 1}}
	sim.rec = &p
	if p.Hosts, err = sim.probeFrom(ctx, tr, 0); err != nil || !p.Hosts {
		return Probe{}, err
	}
	return p, nil
}

// HostsContext reports whether the cluster hosts the trace, as
// ProbeContext's Hosts does, from a replay that records nothing.
func HostsContext(ctx context.Context, tr trace.Trace, cfg Config, decide Decider) (bool, error) {
	if err := tr.Validate(); err != nil {
		return false, err
	}
	sim, err := NewSim(tr.Name, cfg, decide)
	if err != nil {
		return false, err
	}
	return sim.probeFrom(ctx, tr, 0)
}

// probeFrom steps tr.VMs[i:] through the simulator and reports whether
// the replay hosts the trace, stopping at the first rejection unless
// audited.
func (s *Sim) probeFrom(ctx context.Context, tr trace.Trace, i int) (bool, error) {
	for ; i < len(tr.VMs); i++ {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		if err := s.Step(tr.VMs[i]); err != nil {
			return false, err
		}
		if s.res.Rejected > 0 && s.chk == nil {
			return false, nil
		}
	}
	return s.Finish(tr.Horizon).Rejected == 0, nil
}

// resume runs a probe from the checkpoint s, left untouched, on a
// clone with the pools capped at nBase and nGreen servers. Both the
// configuration and the fleets take the caps.
func (s *Sim) resume(ctx context.Context, tr trace.Trace, nBase, nGreen int) (bool, error) {
	c := s.clone()
	c.cfg.NBase, c.cfg.NGreen = nBase, nGreen
	c.pools[0].n, c.pools[1].n = int32(nBase), int32(nGreen)
	if testResume != nil {
		testResume(c)
	}
	i := c.events
	c.admit(tr.VMs[i])
	if c.res.Rejected > 0 && c.chk == nil {
		return false, nil
	}
	return c.probeFrom(ctx, tr, i+1)
}

// testResume, when non-nil, sees every resumed clone before it steps.
// Tests use it to corrupt a checkpoint; never set it outside a test.
var testResume func(*Sim)

// clone returns an independent copy of the simulator. It shares no
// mutable state with s, and it does not record openings.
func (s *Sim) clone() *Sim {
	c := *s
	c.pools = make([]fleet, len(s.pools))
	for i := range s.pools {
		c.pools[i] = s.pools[i].clone()
	}
	c.aggs = slices.Clone(s.aggs)
	c.deps = slices.Clone(s.deps)
	c.rec = nil
	return &c
}

func (f *fleet) clone() fleet {
	c := *f
	c.coresFree = slices.Clone(f.coresFree)
	c.memFree = slices.Clone(f.memFree)
	c.vms = slices.Clone(f.vms)
	c.touched = slices.Clone(f.touched)
	c.whole = slices.Clone(f.whole)
	c.ix.nodes = slices.Clone(f.ix.nodes)
	c.ix.seg = slices.Clone(f.ix.seg)
	return c
}

// touchedWinner is the server pick would choose from the touched
// prefix alone, as if the pool had no virgin left.
func (f *fleet) touchedWinner(cores, mem float64, preferNonEmpty bool) int32 {
	if f.frontier == 0 {
		return nilNode
	}
	return f.ix.pickNode(cores, mem, f.pol, preferNonEmpty)
}

// recordOpening appends the forced entry for a placement about to open
// the frontier server of the base or green pool.
func (s *Sim) recordOpening(vm trace.VM, pool int, cores, mem float64) {
	pne := s.cfg.PreferNonEmpty
	base, green := &s.pools[0], &s.pools[1]
	if pool == 0 {
		// A full-node VM opens a server only when no touched one is
		// empty, so its openings are always forced.
		forced := vm.FullNode || base.touchedWinner(cores, mem, pne) == nilNode
		s.rec.BaseOpened = append(s.rec.BaseOpened, forced)
		s.rec.baseAt = append(s.rec.baseAt, int32(s.events))
		if !forced {
			s.rec.cps.offer(s)
		}
		return
	}
	upTo := int32(-1)
	if green.touchedWinner(cores, mem, pne) == nilNode {
		bc, bm := float64(vm.Cores), float64(vm.Memory)
		if base.touchedWinner(bc, bm, pne) == nilNode {
			// The baseline pool refuses the fallback unless it still
			// has a virgin that fits: at sizes up to its frontier.
			upTo = math.MaxInt32
			if base.capC >= bc && base.capM >= bm {
				upTo = base.frontier
			}
		}
	}
	s.rec.GreenOpened = append(s.rec.GreenOpened, upTo)
	s.rec.greenAt = append(s.rec.greenAt, int32(s.events))
	if upTo != math.MaxInt32 {
		s.rec.cps.offer(s)
	}
}

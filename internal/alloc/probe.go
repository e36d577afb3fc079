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

import (
	"context"
	"math"

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

// ProbeContext replays the trace through the columnar simulator and
// records every server opening. Without an audit checker it stops at
// the first rejection, since a sizing search needs only whether the
// cluster hosts the trace. With one it runs to the horizon, so every
// alloc audit still fires.
func ProbeContext(ctx context.Context, tr trace.Trace, cfg Config, decide Decider) (Probe, error) {
	if err := tr.Validate(); err != nil {
		return Probe{}, err
	}
	sim, err := NewSim(tr.Name, cfg, decide)
	if err != nil {
		return Probe{}, err
	}
	var p Probe
	sim.rec = &p
	for i, vm := range tr.VMs {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return Probe{}, err
			}
		}
		if err := sim.Step(vm); err != nil {
			return Probe{}, err
		}
		if sim.res.Rejected > 0 && sim.chk == nil {
			return Probe{}, nil
		}
	}
	p.Hosts = sim.Finish(tr.Horizon).Rejected == 0
	return p, nil
}

// touchedWinner is the server pick would choose from the touched
// prefix alone, as if the pool had no virgin left.
func (f *fleet) touchedWinner(cores, mem float64, pol Policy, preferNonEmpty bool) int32 {
	if f.frontier == 0 {
		return nilNode
	}
	return f.ix.pickNode(cores, mem, pol, preferNonEmpty)
}

// recordOpening appends the forced entry for a placement about to open
// the frontier server of the base or green pool.
func (s *Sim) recordOpening(vm trace.VM, green bool, cores, mem float64) {
	pol, pne := s.cfg.Policy, s.cfg.PreferNonEmpty
	if !green {
		// A full-node VM opens a server only when no touched one is
		// empty, so its openings are always forced.
		forced := vm.FullNode || s.base.touchedWinner(cores, mem, pol, pne) == nilNode
		s.rec.BaseOpened = append(s.rec.BaseOpened, forced)
		return
	}
	upTo := int32(-1)
	if s.green.touchedWinner(cores, mem, pol, pne) == nilNode {
		bc, bm := float64(vm.Cores), float64(vm.Memory)
		if s.base.touchedWinner(bc, bm, pol, pne) == nilNode {
			// The baseline pool refuses the fallback unless it still
			// has a virgin that fits: at sizes up to its frontier.
			upTo = math.MaxInt32
			if s.base.capC >= bc && s.base.capM >= bm {
				upTo = s.base.frontier
			}
		}
	}
	s.rec.GreenOpened = append(s.rec.GreenOpened, upTo)
}

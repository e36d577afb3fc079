package alloc

// Columnar streaming simulator: the only allocation path.
//
// A layout with one heap-allocated server struct per server, built up
// front, is fine at 10^3 servers and hostile at 10^6: a million pointer
// dereferences per snapshot sweep, a million objects for the GC to
// trace, and full materialization even when a replay touches a sliver
// of the fleet. (internal/oracle keeps exactly that layout, with a
// linear scan, as the test-only reference.) This file builds the
// allocation path around two ideas:
//
//   - Columnar fleet state. A pool is four parallel slices
//     (coresFree, memFree, vms, touched) indexed by server id, plus
//     the shared ixCore placement index attached over those ids.
//     Snapshot sweeps walk flat float64 arrays; the whole fleet is a
//     handful of allocations regardless of size.
//
//   - A virgin frontier. Servers an id at or past `frontier` have
//     never hosted a VM, so they are all byte-identical: full free
//     capacity, empty. They exist implicitly — no column entries, no
//     index nodes — until first touched. Because every placement that
//     opens a new server provably lands on the lowest virgin id (see
//     pick), the touched set is always exactly the prefix
//     [0, frontier), and a replay's memory footprint is
//     O(servers touched), not O(servers configured).
//
// The single-pool simulator (Sim) is a push-style event consumer:
// NewSim → Step per arrival → Finish at the horizon. SimulateSource
// drives it from any trace.Source, so a binary trace streams through
// without ever materializing; snapshot.go checkpoints a Sim between
// Steps and restores it bit-identically. SimulateMulti (multi.go)
// replays on one fleet per pool. Decision identity with the oracle's
// linear scan over all n servers — same placements, same rejections,
// same Result bits — is proven by the differential walls and
// cross-checked at runtime on every audited placement.

import (
	"context"
	"fmt"
	"math"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/trace"
)

// fleet is one pool of identical servers in columnar form. Ids in
// [0, frontier) are materialized in the parallel slices and attached
// to ix; ids in [frontier, n) are virgin — implicitly at full free
// capacity, empty, and absent from the index.
type fleet struct {
	class      ServerClass
	capC, capM float64 // float64(class.Cores), float64(class.Memory)
	n          int32   // configured pool size
	frontier   int32   // touched servers are exactly [0, frontier)
	coresFree  []float64
	memFree    []float64
	vms        []int32
	touched    []float64 // resident VMs' aggregate touched memory, GB
	ix         ixCore
}

func newFleet(class ServerClass, n int) fleet {
	f := fleet{
		class: class,
		capC:  float64(class.Cores),
		capM:  float64(class.Memory),
		n:     int32(n),
	}
	// The ixCore zero value has roots at node 0, a valid id; an empty
	// core must point at nilNode.
	f.ix.rootNE, f.ix.rootE = nilNode, nilNode
	return f
}

// state reports a server's free capacity and occupancy, answering for
// virgins without materializing them.
func (f *fleet) state(id int32) (cores, mem float64, nonEmpty bool) {
	if id < f.frontier {
		return f.coresFree[id], f.memFree[id], f.vms[id] > 0
	}
	return f.capC, f.capM, false
}

// pick selects a feasible server decision-identically to a linear scan
// over all n servers. The scan visits ids ascending, so it
// reduces to: scan [0, frontier) — which the index answers — then
// offer the first virgin (id == frontier) as one more candidate. Later
// virgins are identical to the first and the scan's preference
// predicate is strict (ties keep the incumbent), so they can never win
// and need not be considered; this is also why a placement opening a
// new server always opens id frontier, keeping the touched set a
// prefix.
func (f *fleet) pick(cores, mem float64, pol Policy, preferNonEmpty bool) int32 {
	virgin := f.frontier < f.n && f.capC >= cores && f.capM >= mem
	if f.frontier == 0 {
		if virgin {
			return f.frontier
		}
		return nilNode
	}
	if preferNonEmpty {
		// The virgin is empty, so any feasible non-empty server beats
		// it outright; it only competes in the empty phase.
		if t := f.ix.pickClass(cores, mem, pol, true); t != nilNode {
			return t
		}
		return f.combine(f.ix.pickClass(cores, mem, pol, false), virgin, pol)
	}
	return f.combine(f.ix.pickNode(cores, mem, pol, false), virgin, pol)
}

// combine resolves the touched winner t against the virgin candidate
// (full capacity, id frontier) under the scan's preference predicate.
// The virgin has the highest id, so every tie keeps t.
func (f *fleet) combine(t int32, virgin bool, pol Policy) int32 {
	if !virgin {
		return t
	}
	if t == nilNode {
		return f.frontier
	}
	nd := &f.ix.nodes[t]
	switch pol {
	case BestFit:
		if f.capC != nd.cores {
			if f.capC < nd.cores {
				return f.frontier
			}
			return t
		}
		if f.capM < nd.mem {
			return f.frontier
		}
		return t
	case WorstFit:
		if f.capC != nd.cores {
			if f.capC > nd.cores {
				return f.frontier
			}
			return t
		}
		if f.capM > nd.mem {
			return f.frontier
		}
		return t
	default: // FirstFit: the lower (touched) id always wins.
		return t
	}
}

// firstEmptyFitting is the single-pool full-node rule: the lowest id
// of an empty server fitting (cores, mem). Touched empties all precede
// the first virgin.
func (f *fleet) firstEmptyFitting(cores, mem float64) int32 {
	if f.frontier > 0 {
		if t := f.ix.firstEmptyFittingNode(cores, mem); t != nilNode {
			return t
		}
	}
	if f.frontier < f.n && f.capC >= cores && f.capM >= mem {
		return f.frontier
	}
	return nilNode
}

// firstEmpty is the multi-pool full-node rule: the lowest id of an
// empty server, with no capacity check. Touched empties all precede
// the first virgin.
func (f *fleet) firstEmpty() int32 {
	if t := f.ix.segFirstEmpty(); t != nilNode {
		return t
	}
	if f.frontier < f.n {
		return f.frontier
	}
	return nilNode
}

// place applies a placement to a server, materializing it first if it
// is the frontier virgin.
func (f *fleet) place(id int32, cores, mem, touched float64) {
	if id == f.frontier {
		f.coresFree = append(f.coresFree, f.capC)
		f.memFree = append(f.memFree, f.capM)
		f.vms = append(f.vms, 0)
		f.touched = append(f.touched, 0)
		f.ix.grow(f.frontier + 1)
		f.ix.attachID(f.frontier, f.capC, f.capM, false)
		f.frontier++
	}
	f.ix.detachID(id)
	f.coresFree[id] -= cores
	f.memFree[id] -= mem
	f.vms[id]++
	f.touched[id] += touched
	f.ix.attachID(id, f.coresFree[id], f.memFree[id], f.vms[id] > 0)
}

// release returns a departure's resources. Departing VMs were placed,
// so id is always materialized. A drained server stays materialized
// and indexed: its accumulated float drift is part of decision
// identity with the oracle, which never forgets a server either.
func (f *fleet) release(id int32, cores, mem, touched float64) {
	f.ix.detachID(id)
	f.coresFree[id] += cores
	f.memFree[id] += mem
	f.vms[id]--
	f.touched[id] -= touched
	f.ix.attachID(id, f.coresFree[id], f.memFree[id], f.vms[id] > 0)
}

// scanPick is the columnar linear scan: the oracle's preference
// predicate run over the touched prefix plus the first virgin. Audited
// runs re-derive every indexed decision through it. Under
// testIgnoreCapacity it skips the feasibility check.
func (f *fleet) scanPick(cores, mem float64, pol Policy, preferNonEmpty bool) int32 {
	best := nilNode
	var bc, bm float64
	bne := false
	limit := f.frontier
	if f.frontier < f.n {
		limit++
	}
	for id := int32(0); id < limit; id++ {
		c, m, ne := f.state(id)
		if !(c >= cores && m >= mem) && !testIgnoreCapacity {
			continue
		}
		better := false
		switch {
		case best == nilNode:
			better = true
		case preferNonEmpty && ne != bne:
			better = ne
		default:
			switch pol {
			case BestFit:
				if c != bc {
					better = c < bc
				} else {
					better = m < bm
				}
			case WorstFit:
				if c != bc {
					better = c > bc
				} else {
					better = m > bm
				}
			}
		}
		if better {
			best, bc, bm, bne = id, c, m, ne
		}
	}
	return best
}

// observeInto folds one snapshot of the fleet into the aggregator,
// visiting non-empty servers in id order — the same sequence a scan
// over all n servers sees, so the running sums match the oracle's bit
// for bit. Virgins are empty by definition and contribute nothing.
func (f *fleet) observeInto(a *aggregator) {
	if f.n == 0 {
		return
	}
	var allocC, capC, allocM, capM float64
	for id := int32(0); id < f.frontier; id++ {
		if f.vms[id] == 0 {
			continue
		}
		allocC += f.capC - f.coresFree[id]
		capC += f.capC
		allocM += f.capM - f.memFree[id]
		capM += f.capM
		a.observeServer(&f.class, f.touched[id])
	}
	a.observePacking(allocC, capC, allocM, capM)
}

// departure is a pending departure. The server is named by pool and
// id, not pointer, so the heap is flat data the snapshot codec can
// carry verbatim. Sim's pools are 0 (base) and 1 (green);
// SimulateMulti numbers the green pools from 1 in cluster order.
type departure struct {
	at         float64
	cores, mem float64
	touched    float64
	id         int32
	pool       int32
}

// depHeap is a min-heap on .at with container/heap's sift moves
// exactly (compare .at only, same swap pattern), so equal-time
// departures pop in the order the oracle's container/heap pops them —
// part of decision identity. Typed push/pop avoid boxing every
// departure through an interface on the hot path.
type depHeap []departure

func depPush(h *depHeap, d departure) {
	*h = append(*h, d)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if hh[parent].at <= hh[i].at {
			break
		}
		hh[parent], hh[i] = hh[i], hh[parent]
		i = parent
	}
}

func depPop(h *depHeap) departure {
	hh := *h
	top := hh[0]
	n := len(hh) - 1
	hh[0] = hh[n]
	hh[n] = departure{}
	*h = hh[:n]
	depSiftDown(hh[:n], 0)
	return top
}

func depSiftDown(h depHeap, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h[r].at < h[l].at {
			m = r
		}
		if h[i].at <= h[m].at {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// Sim is the streaming columnar simulator: feed arrivals with Step in
// trace order, close with Finish. Between Steps its entire state is
// flat data — Snapshot/Restore (snapshot.go) checkpoint it exactly.
type Sim struct {
	cfg    Config
	decide Decider
	chk    audit.Checker
	name   string

	base, green fleet
	deps        depHeap
	baseAgg     aggregator
	greenAgg    aggregator

	res        Result
	nextSnap   float64
	snapEvery  float64
	lastArrive float64
	events     int

	// rec, when set by ProbeContext, receives every server opening.
	rec *Probe
}

// NewSim validates the cluster configuration and returns an empty
// simulator.
func NewSim(name string, cfg Config, decide Decider) (*Sim, error) {
	if cfg.NBase < 0 || cfg.NGreen < 0 || cfg.NBase+cfg.NGreen == 0 {
		return nil, fmt.Errorf("alloc: cluster needs at least one server")
	}
	if cfg.NBase > 0 && (cfg.Base.Cores <= 0 || cfg.Base.Memory <= 0) {
		return nil, fmt.Errorf("alloc: baseline class has no capacity")
	}
	if cfg.NGreen > 0 && (cfg.Green.Cores <= 0 || cfg.Green.Memory <= 0) {
		return nil, fmt.Errorf("alloc: green class has no capacity")
	}
	if decide == nil {
		decide = AdoptNone
	}
	snapEvery := cfg.SnapshotEvery
	if snapEvery <= 0 {
		snapEvery = 12
	}
	return &Sim{
		cfg:        cfg,
		decide:     decide,
		chk:        audit.Resolve(cfg.Audit),
		name:       name,
		base:       newFleet(cfg.Base, cfg.NBase),
		green:      newFleet(cfg.Green, cfg.NGreen),
		nextSnap:   snapEvery,
		snapEvery:  snapEvery,
		lastArrive: math.Inf(-1),
	}, nil
}

// Events reports how many arrivals the simulator has consumed.
func (s *Sim) Events() int { return s.events }

func (s *Sim) release(until float64) {
	for len(s.deps) > 0 && s.deps[0].at <= until {
		d := depPop(&s.deps)
		f := &s.base
		if d.pool != 0 {
			f = &s.green
		}
		f.release(d.id, d.cores, d.mem, d.touched)
		if s.chk != nil {
			auditBounds(s.chk, f, d.id, "release")
		}
	}
}

func (s *Sim) observe() {
	s.base.observeInto(&s.baseAgg)
	s.green.observeInto(&s.greenAgg)
	s.res.Snapshots++
}

// Step consumes one arrival. Events must arrive in trace order; each
// is validated on the way in (trace.CheckVM), so malformed streams are
// rejected at the first bad event with the same message Validate gives.
func (s *Sim) Step(vm trace.VM) error {
	if err := s.advance(vm); err != nil {
		return err
	}
	s.admit(vm)
	return nil
}

// advance is Step up to the arrival's placement: it validates the VM,
// then takes the snapshots and releases the departures due by its
// arrival time.
func (s *Sim) advance(vm trace.VM) error {
	if err := trace.CheckVM(s.name, s.events, s.lastArrive, vm); err != nil {
		return err
	}
	for s.nextSnap <= vm.Arrive {
		s.release(s.nextSnap)
		s.observe()
		s.nextSnap += s.snapEvery
	}
	s.release(vm.Arrive)
	return nil
}

// admit is the rest of Step: it places or rejects a VM that advance
// has brought the simulator up to. Until the placement itself it only
// reads the simulator's state, so a probe can clone the simulator at
// an opening (recordOpening) and re-admit the same VM into the clone.
func (s *Sim) admit(vm trace.VM) {
	d := s.decide(vm)
	if d.Scale < 1 {
		d.Scale = 1
	}
	placed := nilNode
	var cores, mem float64
	placedGreen := false
	if vm.FullNode {
		full, fullMem := s.base.capC, s.base.capM
		placed = s.base.firstEmptyFitting(full, fullMem)
		if s.chk != nil {
			s.auditFullNodePick(placed, full, fullMem)
		}
		if placed != nilNode {
			cores, mem = full, fullMem
		}
	} else {
		if d.Adopt && s.cfg.NGreen > 0 {
			cores = float64(vm.Cores) * d.Scale
			mem = float64(vm.Memory) * d.Scale
			placed = s.pickFrom(&s.green, "green", cores, mem)
			placedGreen = placed != nilNode
		}
		if placed == nilNode {
			cores = float64(vm.Cores)
			mem = float64(vm.Memory)
			placed = s.pickFrom(&s.base, "base", cores, mem)
		}
	}
	if placed == nilNode {
		if s.chk != nil {
			s.auditRejection(vm, d)
		}
		s.res.Rejected++
		if vm.Deferrable {
			s.res.DeferrableRejected++
		}
		s.lastArrive = vm.Arrive
		s.events++
		return
	}
	f := &s.base
	if placedGreen {
		f = &s.green
	}
	if s.chk != nil {
		if fc, fm, _ := f.state(placed); !(fc >= cores && fm >= mem) {
			audit.Failf(s.chk, "alloc", "admissibility",
				"VM %d (%gc/%gGB) placed on %s with only %gc/%gGB free",
				vm.ID, cores, mem, f.class.Name, fc, fm)
		}
		if vm.Depart <= vm.Arrive {
			audit.Failf(s.chk, "alloc", "placed-after-departure",
				"VM %d placed at t=%g after its departure t=%g", vm.ID, vm.Arrive, vm.Depart)
		}
	}
	if s.rec != nil && placed == f.frontier {
		s.recordOpening(vm, placedGreen, cores, mem)
	}
	touched := mem * vm.MaxMemFrac
	f.place(placed, cores, mem, touched)
	if s.chk != nil {
		auditBounds(s.chk, f, placed, "place")
	}
	if testObserve != nil {
		testObserve(vm.ID, placedGreen, placed)
	}
	pool := int32(0)
	if placedGreen {
		pool = 1
	}
	depPush(&s.deps, departure{at: vm.Depart, cores: cores, mem: mem, touched: touched, id: placed, pool: pool})
	s.res.Placed++
	if vm.Deferrable {
		s.res.DeferrablePlaced++
	}
	s.lastArrive = vm.Arrive
	s.events++
}

// pickFrom picks through the index; with auditing on, the decision is
// re-derived by the columnar linear scan and any disagreement
// reported.
func (s *Sim) pickFrom(f *fleet, pool string, cores, mem float64) int32 {
	if testIgnoreCapacity {
		return f.scanPick(cores, mem, s.cfg.Policy, s.cfg.PreferNonEmpty)
	}
	id := f.pick(cores, mem, s.cfg.Policy, s.cfg.PreferNonEmpty)
	if s.chk != nil {
		if ref := f.scanPick(cores, mem, s.cfg.Policy, s.cfg.PreferNonEmpty); ref != id {
			audit.Failf(s.chk, "alloc", "index-divergence",
				"%s pick(%gc/%gGB, %v, preferNonEmpty=%v): index chose server %d, scan chose %d",
				pool, cores, mem, s.cfg.Policy, s.cfg.PreferNonEmpty, id, ref)
		}
	}
	return id
}

// auditFullNodePick cross-checks the full-node selection against a
// scan for the lowest empty fitting server.
func (s *Sim) auditFullNodePick(got int32, full, fullMem float64) {
	want := nilNode
	limit := s.base.frontier
	if s.base.frontier < s.base.n {
		limit++
	}
	for id := int32(0); id < limit; id++ {
		c, m, ne := s.base.state(id)
		if !ne && c >= full && m >= fullMem {
			want = id
			break
		}
	}
	if got != want {
		audit.Failf(s.chk, "alloc", "index-divergence",
			"full-node pick: index chose server %d, scan chose %d", got, want)
	}
}

// auditRejection verifies a rejection was genuine under the columnar
// layout: no feasible server exists in any pool the VM was offered to.
func (s *Sim) auditRejection(vm trace.VM, d Decision) {
	if vm.FullNode {
		if s.base.firstEmptyFitting(s.base.capC, s.base.capM) != nilNode {
			audit.Failf(s.chk, "alloc", "spurious-rejection",
				"full-node VM %d rejected with an empty baseline server available", vm.ID)
		}
		return
	}
	if s.base.scanPick(float64(vm.Cores), float64(vm.Memory), s.cfg.Policy, s.cfg.PreferNonEmpty) != nilNode {
		audit.Failf(s.chk, "alloc", "spurious-rejection",
			"VM %d (%dc/%gGB) rejected with feasible baseline server", vm.ID, vm.Cores, float64(vm.Memory))
	}
	if d.Adopt && s.cfg.NGreen > 0 {
		scaledCores := float64(vm.Cores) * d.Scale
		scaledMem := float64(vm.Memory) * d.Scale
		if s.green.scanPick(scaledCores, scaledMem, s.cfg.Policy, s.cfg.PreferNonEmpty) != nilNode {
			audit.Failf(s.chk, "alloc", "spurious-rejection",
				"adopting VM %d (%gc/%gGB scaled) rejected with feasible green server", vm.ID, scaledCores, scaledMem)
		}
	}
}

// auditBounds checks one mutated server's free capacity stays in
// [0, capacity] (within audit.SimTol for accumulated rounding).
func auditBounds(chk audit.Checker, f *fleet, id int32, op string) {
	const tol = audit.SimTol
	if c := f.coresFree[id]; c < -tol || c > f.capC+tol {
		audit.Failf(chk, "alloc", "core-conservation",
			"%s on %s: free cores %g outside [0, %d]", op, f.class.Name, c, f.class.Cores)
	}
	if m := f.memFree[id]; m < -tol || m > f.capM+tol {
		audit.Failf(chk, "alloc", "memory-conservation",
			"%s on %s: free memory %g outside [0, %g]", op, f.class.Name, m, f.capM)
	}
	if f.vms[id] < 0 {
		audit.Failf(chk, "alloc", "vm-count", "%s on %s: resident VM count %d < 0", op, f.class.Name, f.vms[id])
	}
	if f.touched[id] < -tol {
		audit.Failf(chk, "alloc", "memory-conservation",
			"%s on %s: touched memory %g < 0", op, f.class.Name, f.touched[id])
	}
}

// auditConservation checks a fully-drained fleet returned to its
// initial state. Virgins are untouched by construction; the touched
// prefix must have drained back to exact full capacity.
func auditConservation(chk audit.Checker, f *fleet) {
	for id := int32(0); id < f.frontier; id++ {
		if !audit.Close(f.coresFree[id], f.capC, audit.SimTol) {
			audit.Failf(chk, "alloc", "core-conservation",
				"server %d (%s): %g cores free after drain, want %d", id, f.class.Name, f.coresFree[id], f.class.Cores)
		}
		if !audit.Close(f.memFree[id], f.capM, audit.SimTol) {
			audit.Failf(chk, "alloc", "memory-conservation",
				"server %d (%s): %g GB free after drain, want %g", id, f.class.Name, f.memFree[id], f.capM)
		}
		if f.vms[id] != 0 {
			audit.Failf(chk, "alloc", "vm-count",
				"server %d (%s): %d VMs resident after drain", id, f.class.Name, f.vms[id])
		}
		if !audit.Close(f.touched[id], 0, audit.SimTol) {
			audit.Failf(chk, "alloc", "memory-conservation",
				"server %d (%s): %g GB touched after drain", id, f.class.Name, f.touched[id])
		}
	}
}

// Finish runs the tail snapshots through the horizon, takes the final
// observation, drains the audit checks, and returns the Result.
func (s *Sim) Finish(horizon float64) Result {
	for s.nextSnap <= horizon {
		s.release(s.nextSnap)
		s.observe()
		s.nextSnap += s.snapEvery
	}
	s.release(horizon)
	s.observe()

	if s.chk != nil {
		s.release(math.Inf(1))
		auditConservation(s.chk, &s.base)
		auditConservation(s.chk, &s.green)
		s.base.ix.auditIntegrityCore(s.chk, "base", s.base.frontier, s.base.state)
		s.green.ix.auditIntegrityCore(s.chk, "green", s.green.frontier, s.green.state)
	}

	res := s.res
	res.Base = s.baseAgg.stats()
	res.Green = s.greenAgg.stats()
	return res
}

// SimulateSource replays a streaming event source through the columnar
// simulator — the path SimulateContext takes, and the only way to
// consume a binary trace without materializing it. Cancellation is
// polled every 1024 events.
func SimulateSource(ctx context.Context, src trace.Source, cfg Config, decide Decider) (Result, error) {
	sim, err := NewSim(src.Name(), cfg, decide)
	if err != nil {
		return Result{}, err
	}
	for i := 0; ; i++ {
		vm, ok := src.Next()
		if !ok {
			break
		}
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		if err := sim.Step(vm); err != nil {
			return Result{}, err
		}
	}
	if err := src.Err(); err != nil {
		return Result{}, err
	}
	return sim.Finish(src.Horizon()), nil
}

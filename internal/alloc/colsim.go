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
//     the ixCore placement index attached over those ids, which keeps
//     only the structures the pool's policy queries (index.go), and a
//     whole-node bitset: bit id is set while server id is empty and
//     fits a whole node. The full-node rule is the bitset's lowest set
//     bit, and each place or release updates one bit in O(1).
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
// The simulator (Sim) is the only replay loop, a push-style event
// consumer: NewSim → Step per arrival → Finish at the horizon. It holds
// one fleet per pool, the baseline first, and one Decider per green
// pool; NewSim builds one green pool, and MultiHostsContext (multi.go)
// any number. SimulateSource drives it from any trace.Source, so a
// binary trace streams through without ever materializing; snapshot.go
// checkpoints a single-green Sim between Steps and restores it
// bit-identically. Decision identity with the oracle's linear scan
// over all n servers — same placements, same rejections, same Result
// bits — is proven by the differential walls and cross-checked at
// runtime on every audited placement.

import (
	"context"
	"fmt"
	"math"
	"math/bits"

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
	pol        Policy  // the placement policy every pick runs under
	coresFree  []float64
	memFree    []float64
	vms        []int32
	touched    []float64 // resident VMs' aggregate touched memory, GB
	// whole has bit id set while touched server id is empty and fits a
	// whole node: the servers the full-node rule may take.
	whole []uint64
	ix    ixCore
}

func newFleet(class ServerClass, n int, pol Policy) fleet {
	return fleet{
		class: class,
		capC:  float64(class.Cores),
		capM:  float64(class.Memory),
		n:     int32(n),
		pol:   pol,
		ix:    newIxCore(pol),
	}
}

// markWhole sets or clears server id's whole-node bit from its columns.
func (f *fleet) markWhole(id int32) {
	bit := uint64(1) << (id & 63)
	if f.vms[id] == 0 && f.coresFree[id] >= f.capC && f.memFree[id] >= f.capM {
		f.whole[id>>6] |= bit
	} else {
		f.whole[id>>6] &^= bit
	}
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
func (f *fleet) pick(cores, mem float64, preferNonEmpty bool) int32 {
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
		if t := f.ix.pickClass(cores, mem, f.pol, true); t != nilNode {
			return t
		}
		return f.combine(f.ix.pickClass(cores, mem, f.pol, false), virgin)
	}
	return f.combine(f.ix.pickNode(cores, mem, f.pol, false), virgin)
}

// combine resolves the touched winner t against the virgin candidate
// (full capacity, id frontier) under the scan's preference predicate.
// The virgin has the highest id, so every tie keeps t.
func (f *fleet) combine(t int32, virgin bool) int32 {
	if !virgin {
		return t
	}
	if t == nilNode {
		return f.frontier
	}
	c, m := f.coresFree[t], f.memFree[t]
	switch f.pol {
	case BestFit:
		if f.capC != c {
			if f.capC < c {
				return f.frontier
			}
			return t
		}
		if f.capM < m {
			return f.frontier
		}
		return t
	case WorstFit:
		if f.capC != c {
			if f.capC > c {
				return f.frontier
			}
			return t
		}
		if f.capM > m {
			return f.frontier
		}
		return t
	default: // FirstFit: the lower (touched) id always wins.
		return t
	}
}

// firstWholeEmpty is the full-node rule: the lowest id of an empty
// server that fits a whole node. The touched ones are the whole-node
// bitset's set bits, and they all precede the first virgin.
func (f *fleet) firstWholeEmpty() int32 {
	for w, word := range f.whole {
		if word != 0 {
			return int32(w<<6 + bits.TrailingZeros64(word))
		}
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
		if f.frontier&63 == 0 {
			f.whole = append(f.whole, 0)
		}
		f.ix.grow(f.frontier + 1)
		f.ix.attachID(f.frontier, f.capC, f.capM, false)
		f.frontier++
	}
	f.ix.detachID(id)
	f.coresFree[id] -= cores
	f.memFree[id] -= mem
	f.vms[id]++
	f.touched[id] += touched
	f.whole[id>>6] &^= uint64(1) << (id & 63)
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
	f.markWhole(id)
	f.ix.attachID(id, f.coresFree[id], f.memFree[id], f.vms[id] > 0)
}

// scanPick is the columnar linear scan: the oracle's preference
// predicate run over the touched prefix plus the first virgin. Audited
// runs re-derive every indexed decision through it. Under
// testIgnoreCapacity it skips the feasibility check.
func (f *fleet) scanPick(cores, mem float64, preferNonEmpty bool) int32 {
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
			switch f.pol {
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
// carry verbatim. pool indexes Sim.pools: 0 is the baseline, and the
// green pools count from 1 in cluster order.
type departure struct {
	at         float64
	cores, mem float64
	touched    float64
	id         int32
	pool       int32
}

// depHeap is a min-heap on .at with container/heap's sift comparisons
// exactly (compare .at only, same child choice, same stopping test),
// so equal-time departures pop in the order the oracle's
// container/heap pops them — part of decision identity. The sifts move
// a hole instead of swapping: each level stores one departure, not
// two, and the sifted one is stored once where it stops. Typed
// push/pop avoid boxing every departure through an interface on the
// hot path.
type depHeap []departure

func depPush(h *depHeap, d departure) {
	*h = append(*h, d)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if hh[parent].at <= d.at {
			break
		}
		hh[i] = hh[parent]
		i = parent
	}
	hh[i] = d
}

func depPop(h *depHeap) departure {
	hh := *h
	top := hh[0]
	n := len(hh) - 1
	last := hh[n]
	hh[n] = departure{}
	*h = hh[:n]
	if n > 0 {
		depSiftDown(hh[:n], 0, last)
	}
	return top
}

// depSiftDown stores d in h, whose slot i is free, after moving the
// free slot down past every child that departs before d.
func depSiftDown(h depHeap, i int, d departure) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].at < h[l].at {
			m = r
		}
		if d.at <= h[m].at {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = d
}

// Sim is the streaming columnar simulator: feed arrivals with Step in
// trace order, close with Finish. Between Steps its entire state is
// flat data — Snapshot/Restore (snapshot.go) checkpoint it exactly.
type Sim struct {
	cfg Config
	// decide[g-1] directs green pool g; none is nil.
	decide []Decider
	chk    audit.Checker
	name   string

	// pools[0] is the baseline pool and pools[g] green pool g, in
	// cluster order; a departure's pool number indexes it. aggs
	// parallels pools. NewSim and Restore build two pools.
	pools []fleet
	aggs  []aggregator
	deps  depHeap

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
	pools := []Pool{{Class: cfg.Base, N: cfg.NBase}, {Class: cfg.Green, N: cfg.NGreen}}
	if err := checkPools(pools); err != nil {
		return nil, err
	}
	if decide == nil {
		decide = AdoptNone
	}
	return newSim(name, cfg, pools, []Decider{decide}), nil
}

// checkPools validates a cluster's pools, pools[0] the baseline.
func checkPools(pools []Pool) error {
	total := 0
	for i, p := range pools {
		name := "baseline"
		if i > 0 {
			name = "green " + p.Class.Name
		}
		if p.N < 0 {
			return fmt.Errorf("alloc: %s pool has negative size %d", name, p.N)
		}
		if p.N > 0 && (p.Class.Cores <= 0 || p.Class.Memory <= 0) {
			return fmt.Errorf("alloc: %s pool has no capacity", name)
		}
		total += p.N
	}
	if total == 0 {
		return fmt.Errorf("alloc: cluster needs at least one server")
	}
	return nil
}

// newSim returns an empty simulator over validated pools, with one
// non-nil Decider per green pool. cfg supplies the policy, snapshot
// interval and audit checker.
func newSim(name string, cfg Config, pools []Pool, decide []Decider) *Sim {
	snapEvery := cfg.SnapshotEvery
	if snapEvery <= 0 {
		snapEvery = 12
	}
	s := &Sim{
		cfg:        cfg,
		decide:     decide,
		chk:        audit.Resolve(cfg.Audit),
		name:       name,
		pools:      make([]fleet, len(pools)),
		aggs:       make([]aggregator, len(pools)),
		nextSnap:   snapEvery,
		snapEvery:  snapEvery,
		lastArrive: math.Inf(-1),
	}
	for i, p := range pools {
		s.pools[i] = newFleet(p.Class, p.N, cfg.Policy)
	}
	return s
}

// poolName labels pool i in audit messages.
func poolName(i int) string {
	if i == 0 {
		return "base"
	}
	return fmt.Sprintf("green %d", i)
}

// Events reports how many arrivals the simulator has consumed.
func (s *Sim) Events() int { return s.events }

func (s *Sim) release(until float64) {
	for len(s.deps) > 0 && s.deps[0].at <= until {
		d := depPop(&s.deps)
		f := &s.pools[d.pool]
		f.release(d.id, d.cores, d.mem, d.touched)
		if s.chk != nil {
			auditBounds(s.chk, f, d.id, "release")
		}
	}
}

func (s *Sim) observe() {
	for i := range s.pools {
		s.pools[i].observeInto(&s.aggs[i])
	}
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

// scale asks green pool g's Decider for the factor it scales the VM's
// request by on that pool (at least 1), or 0 if it does not offer the
// VM the pool.
func (s *Sim) scale(g int, vm trace.VM) float64 {
	if d := s.decide[g-1](vm); d.Adopt {
		return max(d.Scale, 1)
	}
	return 0
}

// admit is the rest of Step: it places or rejects a VM that advance
// has brought the simulator up to. Full-node VMs take the first empty
// baseline server that fits a whole node; other VMs try each green
// pool whose Decider offers it, in order and scaled, then the baseline
// unscaled. A pool's Decider is asked only once the VM reaches that
// pool, so full-node VMs ask none. Until the placement itself admit
// only reads the simulator's state, so a probe can clone the simulator
// at an opening (recordOpening) and re-admit the same VM into the
// clone.
func (s *Sim) admit(vm trace.VM) {
	pool, placed := 0, nilNode
	var cores, mem float64
	if vm.FullNode {
		base := &s.pools[0]
		cores, mem = base.capC, base.capM
		placed = base.firstWholeEmpty()
		if s.chk != nil {
			s.auditFullNodePick(placed)
		}
	} else {
		for g := 1; g < len(s.pools) && placed == nilNode; g++ {
			if scale := s.scale(g, vm); scale != 0 {
				cores, mem = float64(vm.Cores)*scale, float64(vm.Memory)*scale
				placed, pool = s.pickFrom(g, cores, mem), g
			}
		}
		if placed == nilNode {
			cores, mem = float64(vm.Cores), float64(vm.Memory)
			placed, pool = s.pickFrom(0, cores, mem), 0
		}
	}
	if placed == nilNode {
		if s.chk != nil {
			s.auditRejection(vm)
		}
		s.res.Rejected++
		if vm.Deferrable {
			s.res.DeferrableRejected++
		}
		s.lastArrive = vm.Arrive
		s.events++
		return
	}
	f := &s.pools[pool]
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
		s.recordOpening(vm, pool, cores, mem)
	}
	touched := mem * vm.MaxMemFrac
	f.place(placed, cores, mem, touched)
	if s.chk != nil {
		auditBounds(s.chk, f, placed, "place")
	}
	if testObserve != nil {
		testObserve(vm.ID, pool != 0, placed)
	}
	depPush(&s.deps, departure{at: vm.Depart, cores: cores, mem: mem, touched: touched, id: placed, pool: int32(pool)})
	s.res.Placed++
	if vm.Deferrable {
		s.res.DeferrablePlaced++
	}
	s.lastArrive = vm.Arrive
	s.events++
}

// pickFrom picks from pool through the index; with auditing on, the
// decision is re-derived by the columnar linear scan and any
// disagreement reported.
func (s *Sim) pickFrom(pool int, cores, mem float64) int32 {
	f := &s.pools[pool]
	if testIgnoreCapacity {
		return f.scanPick(cores, mem, s.cfg.PreferNonEmpty)
	}
	id := f.pick(cores, mem, s.cfg.PreferNonEmpty)
	if s.chk != nil {
		if ref := f.scanPick(cores, mem, s.cfg.PreferNonEmpty); ref != id {
			audit.Failf(s.chk, "alloc", "index-divergence",
				"%s pick(%gc/%gGB, %v, preferNonEmpty=%v): index chose server %d, scan chose %d",
				poolName(pool), cores, mem, s.cfg.Policy, s.cfg.PreferNonEmpty, id, ref)
		}
	}
	return id
}

// auditFullNodePick cross-checks the full-node selection against a
// scan for the lowest empty baseline server that fits a whole node.
func (s *Sim) auditFullNodePick(got int32) {
	base := &s.pools[0]
	want := nilNode
	limit := base.frontier
	if base.frontier < base.n {
		limit++
	}
	for id := int32(0); id < limit; id++ {
		c, m, ne := base.state(id)
		if !ne && c >= base.capC && m >= base.capM {
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
// It asks the Deciders again, which are pure.
func (s *Sim) auditRejection(vm trace.VM) {
	base := &s.pools[0]
	if vm.FullNode {
		if base.firstWholeEmpty() != nilNode {
			audit.Failf(s.chk, "alloc", "spurious-rejection",
				"full-node VM %d rejected with an empty baseline server available", vm.ID)
		}
		return
	}
	if base.scanPick(float64(vm.Cores), float64(vm.Memory), s.cfg.PreferNonEmpty) != nilNode {
		audit.Failf(s.chk, "alloc", "spurious-rejection",
			"VM %d (%dc/%gGB) rejected with feasible baseline server", vm.ID, vm.Cores, float64(vm.Memory))
	}
	for g := 1; g < len(s.pools); g++ {
		scale := s.scale(g, vm)
		if scale == 0 {
			continue
		}
		cores, mem := float64(vm.Cores)*scale, float64(vm.Memory)*scale
		if s.pools[g].scanPick(cores, mem, s.cfg.PreferNonEmpty) != nilNode {
			audit.Failf(s.chk, "alloc", "spurious-rejection",
				"adopting VM %d (%gc/%gGB scaled) rejected with feasible server in %s pool", vm.ID, cores, mem, poolName(g))
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

// auditIntegrity checks the pool's placement index and its whole-node
// bitset against the columns: a bit is set exactly for the touched
// servers that are empty and fit a whole node.
func (f *fleet) auditIntegrity(chk audit.Checker, pool string) {
	if chk == nil {
		return
	}
	f.ix.auditIntegrityCore(chk, pool, f.frontier, f.state)
	if want := (f.frontier + 63) >> 6; int32(len(f.whole)) != want {
		audit.Failf(chk, "alloc", "index-integrity",
			"%s pool: whole-node bitset has %d words for %d servers", pool, len(f.whole), f.frontier)
	}
	for w, word := range f.whole {
		for b := int32(0); b < 64; b++ {
			id := int32(w)<<6 + b
			c, m, ne := f.state(id)
			want := id < f.frontier && !ne && c >= f.capC && m >= f.capM
			if got := word>>b&1 == 1; got != want {
				audit.Failf(chk, "alloc", "index-integrity",
					"%s pool: whole-node bit %d is %v, server state says %v", pool, id, got, want)
			}
		}
	}
}

// Finish runs the tail snapshots through the horizon, takes the final
// observation, drains the audit checks, and returns the Result.
func (s *Sim) Finish(horizon float64) Result {
	s.finish(horizon)
	res := s.res
	res.Base = s.aggs[0].stats()
	res.Green = s.aggs[1].stats()
	return res
}

// finish is Finish without the two-pool Result, for any pool count.
func (s *Sim) finish(horizon float64) {
	for s.nextSnap <= horizon {
		s.release(s.nextSnap)
		s.observe()
		s.nextSnap += s.snapEvery
	}
	s.release(horizon)
	s.observe()

	if s.chk != nil {
		s.release(math.Inf(1))
		for i := range s.pools {
			f := &s.pools[i]
			auditConservation(s.chk, f)
			f.auditIntegrity(s.chk, poolName(i))
		}
	}
}

// SimulateSource replays a streaming event source through the columnar
// simulator — the path SimulateContext takes, and the only way to
// consume a binary trace without materializing it.
func SimulateSource(ctx context.Context, src trace.Source, cfg Config, decide Decider) (Result, error) {
	sim, err := NewSim(src.Name(), cfg, decide)
	if err != nil {
		return Result{}, err
	}
	if err := sim.stepAll(ctx, src); err != nil {
		return Result{}, err
	}
	return sim.Finish(src.Horizon()), nil
}

// stepAll steps every event of src through the simulator, polling ctx
// every 1024 events.
func (s *Sim) stepAll(ctx context.Context, src trace.Source) error {
	for i := 0; ; i++ {
		vm, ok := src.Next()
		if !ok {
			break
		}
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if err := s.Step(vm); err != nil {
			return err
		}
	}
	return src.Err()
}

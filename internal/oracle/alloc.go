// Package oracle holds the reference implementations GSF's production
// kernels are proven against. An oracle is written for obviousness,
// not speed: the differential walls replay the production suite
// through it and through the production kernel and demand
// bit-identical results, and cmd/gsfbench times the two to gate the
// kernel's speedup. No production package imports oracle; only tests
// and cmd/gsfbench do (TestImportIsolation enforces it).
//
// The allocation oracle (this file) is the linear scan over plain
// server structs that internal/alloc's columnar fleet and placement
// index replaced: one heap object per configured server, every
// placement a scan over the whole pool, and container/heap for
// departures. The queueing oracle (queueing.go) is the scalar
// per-request event loop that internal/queueing's batched loop
// replaced.
package oracle

import (
	"container/heap"
	"fmt"
	"math"

	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/trace"
)

// Observer receives every successful placement in decision order: the
// VM, whether it landed in a green pool, and the server's index within
// its pool.
type Observer func(vmID int, green bool, server int32)

type server struct {
	class              *alloc.ServerClass
	coresFree, memFree float64
	vms                int
	// touched is the resident VMs' aggregate touched memory in GB
	// (request * MaxMemFrac), the Fig. 10 metric.
	touched float64
	id      int32
}

func (s *server) fits(cores, mem float64) bool {
	return s.coresFree >= cores && s.memFree >= mem
}

func newPool(class alloc.ServerClass, n int) []*server {
	out := make([]*server, n)
	for i := range out {
		out[i] = &server{class: &class, coresFree: float64(class.Cores), memFree: float64(class.Memory), id: int32(i)}
	}
	return out
}

// pick selects a feasible server by linear scan: with preferNonEmpty,
// occupied servers beat empty ones; then BestFit takes the fewest free
// cores (ties: least free memory), WorstFit the most free cores (ties:
// most free memory), and FirstFit the lowest index. Remaining ties keep
// the lowest index.
func pick(servers []*server, cores, mem float64, pol alloc.Policy, preferNonEmpty bool) *server {
	var best *server
	better := func(s *server) bool {
		if best == nil {
			return true
		}
		if ne := s.vms > 0; preferNonEmpty && ne != (best.vms > 0) {
			return ne
		}
		switch pol {
		case alloc.BestFit:
			if s.coresFree != best.coresFree {
				return s.coresFree < best.coresFree
			}
			return s.memFree < best.memFree
		case alloc.WorstFit:
			if s.coresFree != best.coresFree {
				return s.coresFree > best.coresFree
			}
			return s.memFree > best.memFree
		}
		return false // FirstFit: the earlier index wins
	}
	for _, s := range servers {
		if s.fits(cores, mem) && better(s) {
			best = s
		}
	}
	return best
}

type departure struct {
	at                  float64
	srv                 *server
	cores, mem, touched float64
}

type depHeap []departure

func (h depHeap) Len() int           { return len(h) }
func (h depHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h depHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *depHeap) Push(x any)        { *h = append(*h, x.(departure)) }
func (h *depHeap) Pop() any {
	old := *h
	d := old[len(old)-1]
	*h = old[:len(old)-1]
	return d
}

// classAgg accumulates one pool's snapshot observations; ClassStats
// are means over them.
type classAgg struct {
	corePack, memPack, maxMemUtil, cxlFrac float64
	packObs, cxlObs, localFits, observed   int
}

func (a *classAgg) observe(servers []*server) {
	if len(servers) == 0 {
		return
	}
	var allocC, capC, allocM, capM float64
	for _, s := range servers {
		if s.vms == 0 {
			continue
		}
		allocC += float64(s.class.Cores) - s.coresFree
		capC += float64(s.class.Cores)
		allocM += float64(s.class.Memory) - s.memFree
		capM += float64(s.class.Memory)

		a.maxMemUtil += s.touched / float64(s.class.Memory)
		local := float64(s.class.LocalMemory)
		if local <= 0 || local > float64(s.class.Memory) {
			local = float64(s.class.Memory)
		}
		over := s.touched - local
		if over < 0 {
			over = 0
			a.localFits++
		}
		a.observed++
		if s.touched > 0 {
			a.cxlFrac += over / s.touched
			a.cxlObs++
		}
	}
	if capC > 0 {
		a.corePack += allocC / capC
		a.memPack += allocM / capM
		a.packObs++
	}
}

func (a *classAgg) stats() alloc.ClassStats {
	mean := func(sum float64, n int) float64 {
		if n == 0 {
			return math.NaN()
		}
		return sum / float64(n)
	}
	cs := alloc.ClassStats{
		CorePacking:   mean(a.corePack, a.packObs),
		MemPacking:    mean(a.memPack, a.packObs),
		MaxMemUtil:    mean(a.maxMemUtil, a.observed),
		CXLServedFrac: mean(a.cxlFrac, a.cxlObs),
	}
	if a.observed > 0 {
		cs.LocalFitsFrac = float64(a.localFits) / float64(a.observed)
	}
	return cs
}

// cluster is the replay state shared by the single- and multi-pool
// simulators: pools[0] is the baseline pool.
type cluster struct {
	pools               [][]*server
	aggs                []classAgg
	deps                depHeap
	snapEvery, nextSnap float64
	snapshots           int
}

func newCluster(snapEvery float64, pools ...[]*server) *cluster {
	if snapEvery <= 0 {
		snapEvery = 12
	}
	return &cluster{pools: pools, aggs: make([]classAgg, len(pools)), snapEvery: snapEvery, nextSnap: snapEvery}
}

func (c *cluster) release(until float64) {
	for len(c.deps) > 0 && c.deps[0].at <= until {
		d := heap.Pop(&c.deps).(departure)
		d.srv.coresFree += d.cores
		d.srv.memFree += d.mem
		d.srv.vms--
		d.srv.touched -= d.touched
	}
}

func (c *cluster) observe() {
	for i := range c.pools {
		c.aggs[i].observe(c.pools[i])
	}
	c.snapshots++
}

// advance takes every snapshot due by t and releases departures up to
// t.
func (c *cluster) advance(t float64) {
	for c.nextSnap <= t {
		c.release(c.nextSnap)
		c.observe()
		c.nextSnap += c.snapEvery
	}
	c.release(t)
}

func (c *cluster) place(s *server, cores, mem float64, vm trace.VM) {
	touched := mem * vm.MaxMemFrac
	s.coresFree -= cores
	s.memFree -= mem
	s.vms++
	s.touched += touched
	heap.Push(&c.deps, departure{at: vm.Depart, srv: s, cores: cores, mem: mem, touched: touched})
}

// finish snapshots through the horizon and takes the final observation.
func (c *cluster) finish(horizon float64) {
	c.advance(horizon)
	c.observe()
}

// Simulate is the reference for alloc.Simulate: the same placement
// rules and Result, computed by linear scan. observe may be nil.
func Simulate(tr trace.Trace, cfg alloc.Config, decide alloc.Decider, observe Observer) (alloc.Result, error) {
	if err := tr.Validate(); err != nil {
		return alloc.Result{}, err
	}
	if cfg.NBase < 0 || cfg.NGreen < 0 || cfg.NBase+cfg.NGreen == 0 {
		return alloc.Result{}, fmt.Errorf("oracle: cluster needs at least one server")
	}
	if decide == nil {
		decide = alloc.AdoptNone
	}
	c := newCluster(cfg.SnapshotEvery, newPool(cfg.Base, cfg.NBase), newPool(cfg.Green, cfg.NGreen))
	base, green := c.pools[0], c.pools[1]
	var res alloc.Result
	for _, vm := range tr.VMs {
		c.advance(vm.Arrive)
		d := decide(vm)
		if d.Scale < 1 {
			d.Scale = 1
		}
		var srv *server
		var cores, mem float64
		onGreen := false
		if vm.FullNode {
			// Full-node VMs take the first empty baseline server that
			// fits a whole baseline node.
			cores, mem = float64(cfg.Base.Cores), float64(cfg.Base.Memory)
			for _, s := range base {
				if s.vms == 0 && s.fits(cores, mem) {
					srv = s
					break
				}
			}
		} else {
			if d.Adopt && cfg.NGreen > 0 {
				cores, mem = float64(vm.Cores)*d.Scale, float64(vm.Memory)*d.Scale
				srv = pick(green, cores, mem, cfg.Policy, cfg.PreferNonEmpty)
				onGreen = srv != nil
			}
			if srv == nil {
				cores, mem = float64(vm.Cores), float64(vm.Memory)
				srv = pick(base, cores, mem, cfg.Policy, cfg.PreferNonEmpty)
			}
		}
		if srv == nil {
			res.Rejected++
			if vm.Deferrable {
				res.DeferrableRejected++
			}
			continue
		}
		c.place(srv, cores, mem, vm)
		if observe != nil {
			observe(vm.ID, onGreen, srv.id)
		}
		res.Placed++
		if vm.Deferrable {
			res.DeferrablePlaced++
		}
	}
	c.finish(tr.Horizon)
	res.Snapshots = c.snapshots
	res.Base, res.Green = c.aggs[0].stats(), c.aggs[1].stats()
	return res, nil
}

// SimulateMulti is the reference for alloc.SimulateMulti: full-node
// VMs take the first empty baseline server that fits a whole node, as
// in Simulate; other VMs try the green pools in order, scaled per the
// directive, then the baseline pool unscaled.
func SimulateMulti(tr trace.Trace, mc alloc.MultiConfig, decide alloc.MultiDecider) (alloc.MultiResult, error) {
	if err := tr.Validate(); err != nil {
		return alloc.MultiResult{}, err
	}
	pools := [][]*server{nil}
	total := mc.Base.N
	for _, g := range mc.Greens {
		if g.N < 0 {
			return alloc.MultiResult{}, fmt.Errorf("oracle: negative pool size")
		}
		pools = append(pools, newPool(g.Class, g.N))
		total += g.N
	}
	if mc.Base.N < 0 || total == 0 {
		return alloc.MultiResult{}, fmt.Errorf("oracle: cluster needs at least one server")
	}
	pools[0] = newPool(mc.Base.Class, mc.Base.N)
	if decide == nil {
		decide = func(trace.VM) alloc.MultiDecision { return alloc.MultiDecision{} }
	}
	c := newCluster(mc.SnapshotEvery, pools...)
	var res alloc.MultiResult
	for _, vm := range tr.VMs {
		c.advance(vm.Arrive)
		var srv *server
		var cores, mem float64
		if vm.FullNode {
			for _, s := range pools[0] {
				if s.vms == 0 && s.fits(float64(s.class.Cores), float64(s.class.Memory)) {
					srv = s
					cores, mem = float64(s.class.Cores), float64(s.class.Memory)
					break
				}
			}
		} else {
			d := decide(vm)
			for g := range mc.Greens {
				if g >= len(d.Scales) || d.Scales[g] <= 0 {
					continue
				}
				scale := max(d.Scales[g], 1)
				cores, mem = float64(vm.Cores)*scale, float64(vm.Memory)*scale
				if srv = pick(pools[g+1], cores, mem, mc.Policy, mc.PreferNonEmpty); srv != nil {
					break
				}
			}
			if srv == nil {
				cores, mem = float64(vm.Cores), float64(vm.Memory)
				srv = pick(pools[0], cores, mem, mc.Policy, mc.PreferNonEmpty)
			}
		}
		if srv == nil {
			res.Rejected++
			continue
		}
		c.place(srv, cores, mem, vm)
		res.Placed++
	}
	c.finish(tr.Horizon)
	res.Snapshots = c.snapshots
	res.Base = c.aggs[0].stats()
	for i := range mc.Greens {
		res.Green = append(res.Green, c.aggs[i+1].stats())
	}
	return res, nil
}

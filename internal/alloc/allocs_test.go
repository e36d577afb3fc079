package alloc

// Steady-state allocation regressions: once a fleet's servers are
// materialized, placing and releasing VMs must not touch the heap.
// The index's treaps, the FirstFit segment tree and the whole-node
// bitset are slice-backed, and the departure heap reuses its backing
// array, so the simulator's per-VM cost is pure CPU.
// testing.AllocsPerRun pins that at zero.

import (
	"container/heap"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/greensku/gsf/internal/trace"
)

func TestIndexedPickZeroAllocs(t *testing.T) {
	class := ServerClass{Name: "steady", Cores: 32, Memory: 256, LocalMemory: 256}
	// Mixed occupancy so queries traverse both treaps; every server is
	// materialized, so no pick opens (and appends) a new one.
	states := make([]srvState, 1024)
	for i := range states {
		states[i] = srvState{cores: 32, mem: 256}
		if i%3 == 0 {
			states[i] = srvState{cores: 28, mem: 224, vms: 1}
		}
	}
	for _, pol := range policies {
		f := fleetOf(class, pol, states)
		avg := testing.AllocsPerRun(200, func() {
			id := f.pick(4, 32, true)
			if id == nilNode {
				t.Fatal("no feasible server in a near-empty pool")
			}
			f.place(id, 4, 32, 0)
			f.release(id, 4, 32, 0)
		})
		if avg != 0 {
			t.Errorf("indexed pick+place+release under %v allocates %.1f times per op, want 0", pol, avg)
		}
	}
}

func TestDepartureHeapZeroAllocs(t *testing.T) {
	var h depHeap
	// One warm cycle establishes the backing array's capacity.
	for i := 0; i < 128; i++ {
		depPush(&h, departure{at: float64((i * 37) % 128)})
	}
	for len(h) > 0 {
		depPop(&h)
	}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 128; i++ {
			depPush(&h, departure{at: float64((i * 53) % 128)})
		}
		for len(h) > 0 {
			if d := depPop(&h); d.at < 0 {
				t.Fatal("negative departure time")
			}
		}
	})
	if avg != 0 {
		t.Errorf("departure heap churn allocates %.1f times per cycle, want 0", avg)
	}
}

// TestDepartureHeapOrdering pins the typed heap to container/heap
// semantics: pops come out in non-decreasing time order regardless of
// push order.
func TestDepartureHeapOrdering(t *testing.T) {
	var h depHeap
	times := []float64{5, 1, 9, 1, 7, 3, 3, 8, 0, 2, 6, 4}
	for _, at := range times {
		depPush(&h, departure{at: at})
	}
	prev := -1.0
	for len(h) > 0 {
		d := depPop(&h)
		if d.at < prev {
			t.Fatalf("heap popped %g after %g", d.at, prev)
		}
		prev = d.at
	}
}

// refDeps is container/heap's view of a departure heap, the order the
// oracle pops in.
type refDeps []departure

func (h refDeps) Len() int           { return len(h) }
func (h refDeps) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refDeps) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refDeps) Push(x any)        { *h = append(*h, x.(departure)) }
func (h *refDeps) Pop() any {
	old := *h
	d := old[len(old)-1]
	*h = old[:len(old)-1]
	return d
}

// TestDepartureHeapMatchesContainerHeap interleaves pushes and pops of
// departures drawn from a few distinct times, so most pops choose among
// equal times, and requires the typed heap to pop the same departure
// (by id) as container/heap every time.
func TestDepartureHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 27))
	var h depHeap
	var ref refDeps
	for i := 0; i < 20000; i++ {
		if len(h) == 0 || rng.IntN(5) < 3 {
			d := departure{at: float64(rng.IntN(4)), id: int32(i)}
			depPush(&h, d)
			heap.Push(&ref, d)
			continue
		}
		got, want := depPop(&h), heap.Pop(&ref).(departure)
		if got != want {
			t.Fatalf("op %d: popped %+v, container/heap pops %+v", i, got, want)
		}
	}
	for len(ref) > 0 {
		if got, want := depPop(&h), heap.Pop(&ref).(departure); got != want {
			t.Fatalf("drain: popped %+v, container/heap pops %+v", got, want)
		}
	}
	if len(h) != 0 {
		t.Fatalf("typed heap holds %d departures after container/heap drained", len(h))
	}
}

// TestSimStepZeroAllocs pins the single-green replay at zero heap
// allocations per VM once its servers are materialized: the Decider's
// directive goes into the simulator's own one-pool scale array, not a
// fresh slice. Each VM departs before the one after next arrives, so
// the same few servers host them all.
func TestSimStepZeroAllocs(t *testing.T) {
	sim, err := NewSim("steady", Config{Base: baseClass(), NBase: 4, Green: greenClass(), NGreen: 4}, func(vm trace.VM) Decision {
		return Decision{Adopt: vm.ID%2 == 1, Scale: 1.2}
	})
	if err != nil {
		t.Fatal(err)
	}
	id := 0
	// pair steps one non-adopting and one adopting VM: AllocsPerRun
	// rounds its average down, so a run must cover both kinds.
	pair := func() {
		for range 2 {
			at := float64(id)
			if err := sim.Step(trace.VM{ID: id, Arrive: at, Depart: at + 1.5, Cores: 4, Memory: 16, Gen: 3, MaxMemFrac: 0.5}); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	pair()
	pair()
	if avg := testing.AllocsPerRun(100, pair); avg != 0 {
		t.Errorf("Sim.Step allocates %.1f times per pair of VMs, want 0", avg)
	}
	if res := sim.Finish(float64(id)); res.Placed != id || math.IsNaN(res.Green.CorePacking) {
		t.Fatalf("steady replay placed %d of %d VMs, green packing %v", res.Placed, id, res.Green.CorePacking)
	}
}

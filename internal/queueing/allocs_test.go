package queueing

// The event loop's only per-request data-structure work is rewriting
// the free-server heap's root and sifting it down. That operation used
// container/heap.Fix, whose interface indirection allocates; the typed
// siftDown must not. AllocsPerRun pins it, and an ordering test keeps
// the sift honest against the heap invariant auditHeap checks.

import (
	"context"
	"testing"
)

func TestServerHeapZeroAllocs(t *testing.T) {
	h := make(serverHeap, 64)
	step := 0.0
	avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 256; i++ {
			step += 0.75
			h[0] += step
			h.siftDown(0)
		}
	})
	if avg != 0 {
		t.Errorf("server-heap root rewrite allocates %.1f times per cycle, want 0", avg)
	}
}

func TestServerHeapSiftDownKeepsMinHeap(t *testing.T) {
	h := serverHeap{0, 0, 0, 0, 0, 0, 0}
	adds := []float64{5, 3, 9, 1, 7, 2, 8, 6, 4, 2.5, 0.5}
	prevRoot := 0.0
	for _, s := range adds {
		if h[0] < prevRoot {
			t.Fatalf("root went backwards: %g after %g", h[0], prevRoot)
		}
		prevRoot = h[0]
		h[0] += s
		h.siftDown(0)
		for i := 1; i < len(h); i++ {
			if parent := (i - 1) / 2; h[parent] > h[i] {
				t.Fatalf("min-heap violated after adding %g: parent %g > child %g", s, h[parent], h[i])
			}
		}
	}
}

// TestKneeSearchColumnsFromPool pins that a steady-state knee search
// takes its random columns and both latency buffers from their pools.
// What it does allocate is one server heap per probe plus the prober,
// its RNG and the prepared sampler; fresh columns would add three
// allocations per search, fresh latency buffers two each.
func TestKneeSearchColumnsFromPool(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random")
	}
	withoutAudit(t)
	cfg := Config{Servers: 8, Service: LogNormal{0.004, 1.5}, Requests: 5000, Seed: 3}
	var k Knee
	avg := testing.AllocsPerRun(20, func() {
		var err error
		if k, err = KneeSearch(context.Background(), cfg, 0.5, 1.3, 0.02); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(k.Evals + 3); avg > want {
		t.Errorf("steady-state knee search allocates %.0f times for %d probes, want at most %.0f", avg, k.Evals, want)
	}
}

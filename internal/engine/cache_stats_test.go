package engine

import (
	"fmt"
	"sync"
	"testing"
)

// TestCacheStatsConcurrent pins the accounting contract under
// contention: with no failing computations, every Do call is counted
// exactly once — as the leader's miss or a follower's hit — even while
// Stats and Len are read concurrently. Run under -race (CI does), this
// also guards the atomic hit/miss counters against regressing to plain
// fields.
func TestCacheStatsConcurrent(t *testing.T) {
	const (
		goroutines = 16
		iterations = 200
		keys       = 7
	)
	c := NewCache[int](keys)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				key := fmt.Sprintf("k%d", (g+i)%keys)
				v, err := c.Do(key, func() (int, error) { return (g + i) % keys, nil })
				if err != nil {
					t.Errorf("Do(%s): %v", key, err)
				}
				if want := (g + i) % keys; v != want {
					t.Errorf("Do(%s) = %d, want %d", key, v, want)
				}
				// Concurrent readers must be safe against in-flight Do calls.
				c.Stats()
				c.Len()
			}
		}(g)
	}
	wg.Wait()

	hits, misses := c.Stats()
	if total := int64(goroutines * iterations); hits+misses != total {
		t.Errorf("hits (%d) + misses (%d) = %d, want every Do counted once (%d)",
			hits, misses, hits+misses, total)
	}
	if misses < keys {
		t.Errorf("misses = %d, want at least one per key (%d)", misses, keys)
	}
	if c.Len() > keys {
		t.Errorf("Len() = %d exceeds capacity %d", c.Len(), keys)
	}
}

// TestCachePeek pins Peek's contract: it sees only completed, retained
// values, never computes or waits, and moves neither the counters nor
// the LRU order.
func TestCachePeek(t *testing.T) {
	c := NewCache[int](2)
	if _, ok := c.Peek("a"); ok {
		t.Fatal("Peek found a value never computed")
	}
	started, release := make(chan struct{}), make(chan struct{})
	go c.Do("a", func() (int, error) { close(started); <-release; return 1, nil })
	<-started
	if _, ok := c.Peek("a"); ok {
		t.Error("Peek returned an in-flight value")
	}
	close(release)
	c.Do("a", func() (int, error) { return 0, nil }) // waits for the leader
	c.Do("b", func() (int, error) { return 2, nil })
	h0, m0 := c.Stats()
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Errorf("Peek(a) = %d, %v; want 1, true", v, ok)
	}
	if h, m := c.Stats(); h != h0 || m != m0 {
		t.Errorf("Peek moved the counters: %d/%d -> %d/%d", h0, m0, h, m)
	}
	// a is the least recently used despite the Peek, so c evicts it.
	c.Do("c", func() (int, error) { return 3, nil })
	if _, ok := c.Peek("a"); ok {
		t.Error("Peek refreshed a's recency: it survived an eviction")
	}
	if v, ok := c.Peek("b"); !ok || v != 2 {
		t.Errorf("Peek(b) = %d, %v; want 2, true", v, ok)
	}
}

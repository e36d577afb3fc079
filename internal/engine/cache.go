package engine

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Cache is a memoization layer with per-key singleflight: concurrent
// Do calls for the same key compute the value once and share it, and
// completed values are retained under an LRU policy. It exists so a
// sweep that evaluates one SKU against 35 traces profiles the SKU once,
// not 35 times.
//
// Errors are never cached: a failed computation is forgotten so a
// later call can retry. In-flight entries are never evicted.
type Cache[V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry[V]
	order   *list.List // front = most recently used; holds keys of completed entries

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheEntry[V any] struct {
	done chan struct{} // closed when val/err are set
	val  V
	err  error
	elem *list.Element // nil while in flight
}

// NewCache returns a cache holding up to capacity completed values.
// capacity <= 0 disables retention: singleflight still coalesces
// concurrent callers, but nothing is kept once the leader returns.
func NewCache[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		cap:     capacity,
		entries: make(map[string]*cacheEntry[V]),
		order:   list.New(),
	}
}

// Do returns the cached value for key, or computes it with fn. Exactly
// one caller runs fn per key at a time; the rest block until it
// finishes and share the outcome.
func (c *Cache[V]) Do(key string, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.elem != nil {
			c.order.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		<-e.done
		if e.err == nil {
			c.hits.Add(1)
		}
		return e.val, e.err
	}
	e := &cacheEntry[V]{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)

	e.val, e.err = fn()
	close(e.done)

	c.mu.Lock()
	if e.err != nil || c.cap <= 0 {
		// Errors and zero-capacity caches are not retained; only remove
		// our own entry (a retry may have replaced it already — it has
		// not: the map still points at e until we delete it here).
		delete(c.entries, key)
	} else {
		e.elem = c.order.PushFront(key)
		for c.order.Len() > c.cap {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(string))
		}
	}
	c.mu.Unlock()
	return e.val, e.err
}

// Peek returns the value retained for key, if a completed one is. It
// computes nothing, waits for nothing, counts neither a hit nor a
// miss, and leaves the entry's recency unchanged.
func (c *Cache[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.elem != nil {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Stats reports cumulative completed-hit and miss counts.
func (c *Cache[V]) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Len reports the number of completed values currently retained.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

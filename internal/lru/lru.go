// Package lru is the one cache implementation in the tree: the server's
// result cache, the core store's two artifact layers and the figures
// runner's memo of finished validations. It is a bounded least-recently-used
// map with a single-flight table beside it. What it guarantees, for every
// user:
//
//   - At most max entries; inserting beyond that evicts the least recently
//     used. Get, a Lookup hit and Finish refresh recency.
//   - Values enter only through a flight: Lookup elects the leader, Finish
//     caches what it produced.
//   - Lookup decides hit, join or lead in one critical section, so a key
//     has at most one leader at a time — a Finish landing between a
//     separate "is it cached" and "is it in flight" check would otherwise
//     show a second caller a miss and an empty table.
//   - A failed flight is never cached, and releases every waiter.
//   - A waiter leaves on its own context; the flight is unaffected.
//
// The recency list is intrusive (the links live in the entry), so a hit
// allocates nothing and an insertion into a full cache reuses the evicted
// entry.
package lru

import (
	"context"
	"sync"
)

// Cache is a bounded LRU map with single-flight fills. It must not be
// copied after first use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	entries map[K]*node[K, V]
	// root is the sentinel of the circular recency list: root.next is the
	// most recently used entry, root.prev the least.
	root    node[K, V]
	flights map[K]*Flight[V]
}

type node[K comparable, V any] struct {
	prev, next *node[K, V]
	key        K
	val        V
}

// Flight is one in-flight fill, shared by every caller that asked for its
// key while it ran.
type Flight[V any] struct {
	done chan struct{} // closed exactly once, after val and err are set
	val  V
	err  error
}

// New returns an empty cache bounded to max entries (at least 1).
func New[K comparable, V any](max int) *Cache[K, V] {
	if max < 1 {
		max = 1
	}
	c := &Cache[K, V]{
		max:     max,
		entries: map[K]*node[K, V]{},
		flights: map[K]*Flight[V]{},
	}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Len reports the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Get returns the value cached under k, refreshing its recency.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.get(k)
}

// Lookup resolves k: the cached value (f nil), the flight already producing
// it (wait on f), or — for the caller that finds neither — a new flight
// that caller leads: it must produce the value and call Finish, whatever
// happens, or every later caller for k waits forever.
func (c *Cache[K, V]) Lookup(k K) (v V, f *Flight[V], leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.get(k); ok {
		return v, nil, false
	}
	if f, ok := c.flights[k]; ok {
		return v, f, false
	}
	f = &Flight[V]{done: make(chan struct{})}
	c.flights[k] = f
	return v, f, true
}

// Finish ends the flight its caller leads for k: a nil err caches v as the
// most recently used entry, a non-nil err caches nothing; either way the
// flight leaves the table and every waiter is released with (v, err). It
// returns the resulting entry count.
func (c *Cache[K, V]) Finish(k K, v V, err error) int {
	c.mu.Lock()
	f := c.flights[k]
	delete(c.flights, k)
	f.val, f.err = v, err
	if err == nil {
		c.put(k, v)
	}
	n := len(c.entries)
	c.mu.Unlock()
	close(f.done)
	return n
}

// Wait blocks until the flight finishes or ctx is done, whichever is
// first. Leaving early does not disturb the flight.
func (f *Flight[V]) Wait(ctx context.Context) (V, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// get is Get with c.mu held; put caches v under k as the most recently used
// entry, replacing any previous value, with c.mu held.

func (c *Cache[K, V]) get(k K) (v V, ok bool) {
	n, ok := c.entries[k]
	if !ok {
		return v, false
	}
	if c.root.next != n {
		n.unlink()
		c.pushFront(n)
	}
	return n.val, true
}

func (c *Cache[K, V]) put(k K, v V) {
	n, ok := c.entries[k]
	switch {
	case ok:
		n.unlink()
	case len(c.entries) >= c.max:
		// Evict the least recently used entry and reuse it for k. One
		// insertion adds one entry, so one eviction restores the bound.
		n = c.root.prev
		n.unlink()
		delete(c.entries, n.key)
	default:
		n = new(node[K, V])
	}
	n.key, n.val = k, v
	c.entries[k] = n
	c.pushFront(n)
}

func (n *node[K, V]) unlink() {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev, n.next = &c.root, c.root.next
	n.prev.next, n.next.prev = n, n
}

package server

import (
	"container/list"
	"crypto/sha256"
	"strconv"
	"sync"

	swapp "repro"
)

// cacheKey is the content address of one evaluation result: a raw sha256.
// Using the array itself as the map key (instead of a hex string) keeps
// key derivation allocation-free on the serving hot path.
type cacheKey [sha256.Size]byte

// digest returns the content-addressed cache key for one evaluation: a
// sha256 over the operation and every request field that influences the
// numbers. Workers and Obs are excluded (the projection is byte-identical
// across them, by the engine's determinism contract), as is the caller's
// deadline — a request that times out for one client must still be
// serveable from cache for the next. Requests must be normalised first so
// that a defaulted and an explicit base share an entry.
func digest(op string, req swapp.Request) cacheKey {
	var buf [96]byte
	b := buf[:0]
	b = append(b, op...)
	b = append(b, '|')
	b = append(b, req.Base...)
	b = append(b, '|')
	b = append(b, req.Target...)
	b = append(b, '|')
	b = append(b, string(req.Bench)...)
	b = append(b, '|')
	b = append(b, byte(req.Class))
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(req.Ranks), 10)
	return sha256.Sum256(b)
}

// Endpoint indices for the per-endpoint rendered-bytes slots. /v1/project
// and /v1/surrogate share one result entry (same op) but render it
// differently, so each endpoint owns a slot.
const (
	epProject = iota
	epValidate
	epSurrogate
	numEndpoints
)

// call is one in-flight evaluation, shared by every request that arrived
// while it ran. done closes exactly once, after res/err are set.
type call struct {
	done chan struct{}
	res  *swapp.Result
	err  error
}

// cache is the result store: an LRU over finished evaluations plus a
// singleflight table collapsing duplicate in-flight ones. Entries hold
// *swapp.Result values, which are immutable once published, plus the
// rendered wire bytes per endpoint — rendered at most once per (entry,
// endpoint) and served as-is on every later hit, so the hot path never
// re-marshals a projection.
type cache struct {
	mu       sync.Mutex
	max      int
	ll       *list.List                 // front = most recently used
	entries  map[cacheKey]*list.Element // key → element; element value is *entry
	inflight map[cacheKey]*call
}

// entry is one LRU element's payload.
type entry struct {
	key      cacheKey
	res      *swapp.Result
	rendered [numEndpoints][]byte
}

func newCache(max int) *cache {
	if max < 1 {
		max = 1
	}
	return &cache{
		max:      max,
		ll:       list.New(),
		entries:  map[cacheKey]*list.Element{},
		inflight: map[cacheKey]*call{},
	}
}

// get returns the cached result for key, refreshing its recency.
func (c *cache) get(key cacheKey) (*swapp.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry).res, true
}

// renderedBytes returns the wire bytes for (key, ep), rendering via render
// at most once per slot: a hit serves the stored bytes with zero
// marshalling work. Rendering runs outside the lock (it is a pure function
// of the immutable result); concurrent first-renders produce identical
// bytes, so last-write-wins is benign. When the entry has been evicted the
// bytes are rendered and returned uncached.
func (c *cache) renderedBytes(key cacheKey, ep int, res *swapp.Result, render func(*swapp.Result) ([]byte, error)) ([]byte, error) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		if b := el.Value.(*entry).rendered[ep]; b != nil {
			c.mu.Unlock()
			return b, nil
		}
	}
	c.mu.Unlock()
	b, err := render(res)
	if err != nil || !ok {
		return b, err
	}
	c.mu.Lock()
	if el, still := c.entries[key]; still {
		el.Value.(*entry).rendered[ep] = b
	}
	c.mu.Unlock()
	return b, nil
}

// lookup resolves key in one critical section: a finished result (cl nil,
// entry refreshed in the LRU), the in-flight call to wait on, or — for
// the caller that finds neither — a new call it must run and finish as
// leader. Checking the LRU and the in-flight table under one lock is what
// makes the leader unique: a finish between two separate checks would show
// a second caller a miss and an empty table.
func (c *cache) lookup(key cacheKey) (res *swapp.Result, cl *call, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry).res, nil, false
	}
	if cl, ok := c.inflight[key]; ok {
		return nil, cl, false
	}
	cl = &call{done: make(chan struct{})}
	c.inflight[key] = cl
	return nil, cl, true
}

// finish publishes the leader's outcome: successful results enter the LRU,
// the in-flight slot is cleared either way, and every waiter is released.
// It returns the resulting entry count (for the size gauge).
func (c *cache) finish(key cacheKey, cl *call, res *swapp.Result, err error) int {
	c.mu.Lock()
	cl.res, cl.err = res, err
	delete(c.inflight, key)
	if err == nil {
		if el, ok := c.entries[key]; ok {
			c.ll.MoveToFront(el)
			e := el.Value.(*entry)
			e.res = res
			e.rendered = [numEndpoints][]byte{}
		} else {
			c.entries[key] = c.ll.PushFront(&entry{key: key, res: res})
			for c.ll.Len() > c.max {
				oldest := c.ll.Back()
				c.ll.Remove(oldest)
				delete(c.entries, oldest.Value.(*entry).key)
			}
		}
	}
	n := c.ll.Len()
	c.mu.Unlock()
	close(cl.done)
	return n
}

// len reports the number of cached results.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

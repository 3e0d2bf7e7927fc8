package lru

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLookupElectsOneLeader: a key is produced once however its callers
// interleave. The leader finishes at once, so each round's flight ends
// while other callers are still arriving — a caller landing just after
// Finish must see the cached value, not a miss and an empty flight table.
func TestLookupElectsOneLeader(t *testing.T) {
	c := New[int, string](256)
	const callers, keys = 64, 200
	for k := 0; k < keys; k++ {
		want := fmt.Sprint("v", k)
		var leaders atomic.Int64
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				v, f, leader := c.Lookup(k)
				switch {
				case leader:
					leaders.Add(1)
					c.Finish(k, want, nil)
					v = want
				case f != nil:
					var err error
					if v, err = f.Wait(context.Background()); err != nil {
						t.Errorf("key %d: waiter got %v", k, err)
					}
				}
				if v != want {
					t.Errorf("key %d: got %q, want %q", k, v, want)
				}
			}()
		}
		close(start)
		wg.Wait()
		if n := leaders.Load(); n != 1 {
			t.Fatalf("key %d: %d leaders, want exactly 1", k, n)
		}
	}
	if c.Len() != keys {
		t.Errorf("Len = %d, want %d", c.Len(), keys)
	}
}

// put inserts as the cache's users do, through a flight: lead one for k
// and finish it with v. k must be neither cached nor in flight. It returns
// the entry count.
func put[K comparable, V any](t *testing.T, c *Cache[K, V], k K, v V) int {
	t.Helper()
	if _, f, leader := c.Lookup(k); !leader {
		t.Fatalf("put(%v): cached or in flight (flight %v)", k, f)
	}
	return c.Finish(k, v, nil)
}

// TestEvictionOrder: the least recently used entry goes first; Get, a
// Lookup hit and Finish refresh recency; an evicted key comes back through
// a new flight.
func TestEvictionOrder(t *testing.T) {
	c := New[string, int](3)
	put(t, c, "a", 1)
	put(t, c, "b", 2)
	put(t, c, "c", 3) // recency: c b a
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before any eviction")
	} // a c b
	if n := put(t, c, "d", 4); n != 3 { // evicts b: d a c
		t.Fatalf("Finish returned %d entries, want 3", n)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b outlived a and c, both used after it")
	}
	if v, f, _ := c.Lookup("c"); f != nil || v != 3 { // c d a
		t.Fatalf("Lookup(c) = %d, flight %v; want the cached 3", v, f)
	}
	put(t, c, "b", 2) // evicts a: b c d
	if v, ok := c.Get("d"); !ok || v != 4 {
		t.Fatalf("Get(d) = %d, %t; want the cached 4", v, ok)
	} // d b c
	put(t, c, "e", 5) // evicts c: e d b
	for key, want := range map[string]int{"b": 2, "d": 4, "e": 5} {
		if v, ok := c.Get(key); !ok || v != want {
			t.Errorf("Get(%s) = %d, %t; want %d", key, v, ok, want)
		}
	}
	for _, key := range []string{"a", "c"} {
		if _, ok := c.Get(key); ok {
			t.Errorf("%s survived eviction", key)
		}
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3", c.Len())
	}
	if one := New[string, int](0); put(t, one, "x", 1) != 1 || put(t, one, "y", 2) != 1 {
		t.Error("a cache built with max < 1 does not hold exactly one entry")
	}
}

// TestFailedFlightNotCached: an error releases every waiter with that error
// and leaves nothing behind; the next caller leads afresh.
func TestFailedFlightNotCached(t *testing.T) {
	c := New[string, int](4)
	_, _, leader := c.Lookup("k")
	if !leader {
		t.Fatal("first caller is not the leader")
	}
	const waiters = 8
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		_, f, leader := c.Lookup("k")
		if f == nil || leader {
			t.Fatalf("caller %d: flight %v leader %t, want to join", i, f, leader)
		}
		go func() {
			_, err := f.Wait(context.Background())
			errs <- err
		}()
	}
	boom := errors.New("boom")
	if n := c.Finish("k", 7, boom); n != 0 {
		t.Errorf("failed Finish left %d entries", n)
	}
	for i := 0; i < waiters; i++ {
		if err := <-errs; err != boom {
			t.Errorf("waiter got %v, want %v", err, boom)
		}
	}
	if _, ok := c.Get("k"); ok {
		t.Error("failed flight was cached")
	}
	if _, f, leader := c.Lookup("k"); f == nil || !leader {
		t.Error("caller after a failed flight does not lead a new one")
	}
}

// TestWaiterLeavesOnItsOwnContext: a waiter whose context ends gets its
// context's error at once; the flight completes and is cached regardless.
func TestWaiterLeavesOnItsOwnContext(t *testing.T) {
	c := New[string, int](4)
	c.Lookup("k") // lead
	_, f, _ := c.Lookup("k")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Wait(ctx); err != context.Canceled {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
	patient := make(chan int)
	go func() {
		v, _ := f.Wait(context.Background())
		patient <- v
	}()
	c.Finish("k", 42, nil)
	if v := <-patient; v != 42 {
		t.Errorf("patient waiter got %d, want 42", v)
	}
	if v, ok := c.Get("k"); !ok || v != 42 {
		t.Errorf("Get after the flight = %d, %t; want 42, true", v, ok)
	}
}

// errChurn is the failure TestConcurrentChurn's failing leaders finish with.
var errChurn = errors.New("churn")

// TestConcurrentChurn drives every method from many goroutines over more
// keys than fit, with failed flights among the filled ones. Under -race
// this proves the locking; the assertions prove the bound and that a key
// only ever yields a value stored under it.
func TestConcurrentChurn(t *testing.T) {
	const max = 4
	c := New[int, int](max)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g + i) % 12
				switch i % 3 {
				case 0:
					if v, ok := c.Get(k); ok && v != k*10 {
						t.Errorf("key %d held %d", k, v)
						return
					}
				case 1:
					// A leader that fails: its waiters get the error and
					// nothing is cached.
					if _, f, leader := c.Lookup(k); leader {
						c.Finish(k, 0, errChurn)
					} else if f != nil {
						f.Wait(context.Background())
					}
				default:
					v, f, leader := c.Lookup(k)
					if leader {
						c.Finish(k, k*10, nil)
						continue
					}
					if f != nil {
						var err error
						if v, err = f.Wait(context.Background()); err == errChurn {
							continue
						}
					}
					if v != k*10 {
						t.Errorf("key %d yielded %d", k, v)
						return
					}
				}
				if n := c.Len(); n > max {
					t.Errorf("cache holds %d entries, max is %d", n, max)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGetHitZeroAllocs: the guard that generics and intrusive links add
// nothing per hit, at the two key shapes the repository uses.
func TestGetHitZeroAllocs(t *testing.T) {
	type big struct {
		p    *int
		more [3][]byte
	}
	arr := New[[32]byte, big](8)
	var ak [32]byte
	for i := byte(0); i < 8; i++ {
		ak[0] = i
		put(t, arr, ak, big{})
	}
	if n := testing.AllocsPerRun(200, func() {
		ak[0] = (ak[0] + 1) % 8
		if _, ok := arr.Get(ak); !ok {
			t.Fatal("miss on a resident key")
		}
	}); n != 0 {
		t.Errorf("Get hit on a [32]byte key allocates %v times, want 0", n)
	}

	str := New[string, *int](8)
	keys := []string{"spec|\"hydra\"", "imb|\"hydra\"|16", "imb|\"hydra\"|32"}
	for _, k := range keys {
		put(t, str, k, new(int))
	}
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		i++
		if _, ok := str.Get(keys[i%len(keys)]); !ok {
			t.Fatal("miss on a resident key")
		}
	}); n != 0 {
		t.Errorf("Get hit on a string key allocates %v times, want 0", n)
	}
}

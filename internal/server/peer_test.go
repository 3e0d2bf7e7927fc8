package server

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// TestPeerBreakerOpensOnBlackHole: an owner that drops packets — a connect
// neither accepted nor refused — must cost what a crashed one costs. Each
// dial is given up after peerDialTimeout although the request itself has
// minutes left; each failed forward counts on the owner's breaker although
// its error answers to context.DeadlineExceeded; the third opens it, after
// which nothing is dialled and the next replica in the group's preference
// order answers at once; past the cooldown exactly one forward is let
// through as the probe, and once the owner is reachable again that probe is
// the rejoin.
func TestPeerBreakerOpensOnBlackHole(t *testing.T) {
	t.Parallel()
	reps, clock := newCluster(t, 3)
	order := preferenceOf(t, reps, reqBT)
	owner, succ, entry := order[0], order[1], order[2]

	var hole atomic.Bool
	var dials, longest atomic.Int64
	hole.Store(true)
	entry.srv.peers.clients[owner.url].HTTP = &http.Client{Transport: peerTransport(
		func(ctx context.Context, network, addr string) (net.Conn, error) {
			if !hole.Load() {
				return (&net.Dialer{}).DialContext(ctx, network, addr)
			}
			dials.Add(1)
			start := time.Now()
			<-ctx.Done()
			if d := int64(time.Since(start)); d > longest.Load() {
				longest.Store(d)
			}
			return nil, ctx.Err()
		})}

	// ask sends a fresh key of the group through the entry replica and
	// returns who answered it and how many dials the black hole swallowed.
	ranks := 0
	ask := func() (peer string, dialled int64) {
		t.Helper()
		ranks++
		before := dials.Load()
		body := fmt.Sprintf(`{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":%d}`, ranks)
		code, hdr, out := post(t, entry.url+"/v1/project", body)
		if code != 200 {
			t.Fatalf("request %d: status %d: %s", ranks, code, out)
		}
		if _, _, want := post(t, succ.url+"/v1/project", body); !bytes.Equal(out, want) {
			t.Errorf("request %d: bytes differ from the successor's own answer", ranks)
		}
		return hdr.Get(peerHeader), dials.Load() - before
	}

	perForward := int64(0)
	for i := 1; i <= 3; i++ {
		peer, dialled := ask()
		if peer != succ.url {
			t.Errorf("request %d was answered by %q, want the successor %q", i, peer, succ.url)
		}
		if dialled == 0 {
			t.Fatalf("request %d never tried the owner", i)
		}
		perForward = dialled
	}
	if d := time.Duration(longest.Load()); d < peerDialTimeout/2 || d > peerDialTimeout+time.Second {
		t.Errorf("the longest dial was given up after %v, want about peerDialTimeout = %v", d, peerDialTimeout)
	}
	if n := counter(entry.scope, "cluster.fallbacks"); n != 3 {
		t.Errorf("cluster.fallbacks = %d after three failed forwards, want 3", n)
	}

	// Open: the owner is not dialled, the successor answers.
	if peer, dialled := ask(); peer != succ.url || dialled != 0 {
		t.Errorf("with the breaker open: answered by %q after %d dials, want %q after none", peer, dialled, succ.url)
	}

	// Past the cooldown one forward probes, fails, and re-opens the breaker.
	clock.advance(6 * time.Second)
	if peer, dialled := ask(); peer != succ.url || dialled != perForward {
		t.Errorf("the probe: answered by %q after %d dials, want %q after one forward's %d", peer, dialled, succ.url, perForward)
	}
	if peer, dialled := ask(); peer != succ.url || dialled != 0 {
		t.Errorf("after the failed probe: answered by %q after %d dials, want %q after none", peer, dialled, succ.url)
	}

	// The owner comes back; the next probe is an ordinary forward it answers.
	hole.Store(false)
	clock.advance(6 * time.Second)
	if peer, _ := ask(); peer != owner.url {
		t.Errorf("after the owner's return: answered by %q, want the owner %q", peer, owner.url)
	}
	if peer, _ := ask(); peer != owner.url {
		t.Errorf("with the breaker closed again: answered by %q, want the owner %q", peer, owner.url)
	}
}

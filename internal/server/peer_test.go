package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPeerCallIsOneAttempt holds the one call a replica makes to a peer to its
// contract: a 2xx reply comes back verbatim, body and headers; anything else
// is an error after exactly one request — a 4xx, and a 503 whose Retry-After
// nobody waits out; the breaker counts a failure at the destination, is left
// alone by the caller's own cancellation, and while open lets nothing reach
// the network.
func TestPeerCallIsOneAttempt(t *testing.T) {
	const (
		hangs   = 0  // the listener holds the request until its caller gives up
		nowhere = -1 // nothing listens at the peer's address
	)
	for _, tc := range []struct {
		name         string
		status       int
		open         bool   // the peer's breaker is open before the call
		wantErr      string // a substring of the call's error; "" for success
		wantRequests int64  // requests that reach the listener
		wantFailures int    // failures the breaker counts of this one call
	}{
		{name: "200 is the reply verbatim", status: 200, wantRequests: 1},
		{name: "202 is the reply verbatim", status: 202, wantRequests: 1},
		{name: "400 costs one request", status: 400, wantErr: "HTTP 400", wantRequests: 1, wantFailures: 1},
		{name: "503 with Retry-After is not waited out", status: 503, wantErr: "HTTP 503", wantRequests: 1, wantFailures: 1},
		{name: "a refused connection fails at the destination", status: nowhere, wantErr: "dial tcp", wantFailures: 1},
		{name: "a caller cancelling is neutral", status: hangs, wantErr: "context canceled", wantRequests: 1},
		{name: "an open breaker sends nothing", status: 200, open: true, wantErr: "circuit breaker open"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const doc = `{"app":"BT-MZ.C"}` + "\n"
			var requests atomic.Int64
			arrived := make(chan struct{}, 1)
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				requests.Add(1)
				if got := r.Header.Get(forwardedHeader); got != "http://self" {
					t.Errorf("the forward does not name its relayer: %s = %q", forwardedHeader, got)
				}
				if tc.status == hangs {
					io.Copy(io.Discard, r.Body) // the server watches for a hang-up only past the body
					arrived <- struct{}{}
					<-r.Context().Done()
					return
				}
				w.Header().Set("X-Cache", "hit")
				w.Header().Set("Retry-After", "3")
				w.WriteHeader(tc.status)
				fmt.Fprint(w, doc)
			}))
			defer ts.Close()
			if tc.status == nowhere {
				ts.Close()
			}
			p := newPeerSet("http://self", []string{ts.URL}, time.Now)
			brk := p.peers[ts.URL].breaker
			for i := 0; tc.open && i < brk.threshold; i++ {
				brk.record(errDestination)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				select {
				case <-arrived:
					cancel()
				case <-ctx.Done():
				}
			}()

			start := time.Now()
			body, hdr, err := p.post(ctx, ts.URL, "/v1/project", []byte(reqBT))
			if d := time.Since(start); d > time.Second {
				t.Errorf("the call took %v: one attempt waits for nothing but its reply", d)
			}
			if tc.wantErr == "" {
				if err != nil || string(body) != doc || hdr.Get("X-Cache") != "hit" {
					t.Errorf("call = %q, X-Cache %q, %v; want the listener's reply verbatim", body, hdr.Get("X-Cache"), err)
				}
			} else if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want one naming %q", err, tc.wantErr)
			}
			if got := requests.Load(); got != tc.wantRequests {
				t.Errorf("%d requests reached the listener, want %d", got, tc.wantRequests)
			}
			if tc.open {
				var boe *breakerOpenError
				if !errors.As(err, &boe) || brk.state != breakerOpen {
					t.Errorf("err = %v with the breaker in state %d, want a breakerOpenError from a breaker still open", err, brk.state)
				}
			} else if brk.failures != tc.wantFailures || brk.state != breakerClosed {
				t.Errorf("the breaker counted %d failures (state %d), want %d and closed", brk.failures, brk.state, tc.wantFailures)
			}
		})
	}
}

// TestForwardDoesNotWaitOutABusyOwner: an owner that answers 503 is walked
// past at once, whatever Retry-After it names — the entry replica computes the
// answer itself in the time an evaluation takes, not in the seconds the owner
// asked its caller to wait before asking again.
func TestForwardDoesNotWaitOutABusyOwner(t *testing.T) {
	reps, _ := newCluster(t, 2)
	order := preferenceOf(t, reps, reqBT)
	owner, entry := order[0], order[1]
	var asked atomic.Int64
	owner.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		asked.Add(1)
		w.Header().Set("Retry-After", "3")
		writeError(w, http.StatusServiceUnavailable, errQueueFull)
	}))

	start := time.Now()
	code, hdr, out := post(t, entry.url+"/v1/project", reqBT)
	if d := time.Since(start); d > time.Second {
		t.Errorf("the reply took %v: the forward waited out the owner's Retry-After", d)
	}
	if code != 200 || hdr.Get("X-Cache") != "miss" || hdr.Get(peerHeader) != "" {
		t.Fatalf("status %d, X-Cache %q, X-Swapp-Peer %q: %s; want the entry replica's own 200 miss", code, hdr.Get("X-Cache"), hdr.Get(peerHeader), out)
	}
	if n := counter(entry.scope, "cluster.fallbacks"); n != 1 {
		t.Errorf("cluster.fallbacks = %d, want 1", n)
	}
	if n := asked.Load(); n != 1 {
		t.Errorf("the busy owner was asked %d times, want once", n)
	}
}

// TestForwardedOutcomeIsHitOrMiss: X-Cache has two values whoever answered. The
// answering peer's header is read, not relayed: exactly "hit" is a hit (and
// counts a peer hit), anything else — a value this build does not know, none at
// all — is reported as a miss.
func TestForwardedOutcomeIsHitOrMiss(t *testing.T) {
	reps, _ := newCluster(t, 2)
	order := preferenceOf(t, reps, reqBT)
	owner, entry := order[0], order[1]
	const doc = `{"app":"BT-MZ.C"}` + "\n"
	for i, tc := range []struct{ peerSays, want string }{
		{"hit", "hit"},
		{"miss", "miss"},
		{"replica", "miss"},
		{"", "miss"},
	} {
		owner.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if tc.peerSays != "" {
				w.Header()["X-Cache"] = []string{tc.peerSays}
			}
			fmt.Fprint(w, doc)
		}))
		code, hdr, out := post(t, entry.url+"/v1/project", reqBT)
		if code != 200 || string(out) != doc || hdr.Get(peerHeader) != owner.url {
			t.Fatalf("peer says %q: status %d from %q: %s; want the owner's reply relayed", tc.peerSays, code, hdr.Get(peerHeader), out)
		}
		if got := hdr.Values("X-Cache"); len(got) != 1 || got[0] != tc.want {
			t.Errorf("peer says %q: X-Cache = %q, want %q", tc.peerSays, got, tc.want)
		}
		if n := counter(entry.scope, "cluster.forwards"); n != int64(i+1) {
			t.Errorf("peer says %q: cluster.forwards = %d, want %d", tc.peerSays, n, i+1)
		}
	}
	if n := counter(entry.scope, "cluster.peer_hits"); n != 1 {
		t.Errorf("cluster.peer_hits = %d, want 1", n)
	}
}

// TestPeerReplyIsBounded: whatever answers at a peer's address cannot stream
// into a replica's heap. A reply past maxPeerReplyBytes is a failed call like
// any other — one fallback, and the next replica in the preference order
// answers with the bytes a single process serves.
func TestPeerReplyIsBounded(t *testing.T) {
	reps, _ := newCluster(t, 3)
	order := preferenceOf(t, reps, reqBT)
	owner, succ, entry := order[0], order[1], order[2]
	var sent atomic.Int64
	owner.handler.Store(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		chunk := bytes.Repeat([]byte(" "), 64<<10)
		for n := 0; n < 4*maxPeerReplyBytes; n += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return // the caller stopped reading
			}
			sent.Add(int64(len(chunk)))
		}
	}))
	ctl := newHTTPServer(t, New(Config{Workers: 2, Eval: (&stubEval{}).fn}))
	_, _, want := post(t, ctl.URL+"/v1/project", reqBT)

	code, hdr, out := post(t, entry.url+"/v1/project", reqBT)
	if code != 200 || !bytes.Equal(out, want) {
		t.Fatalf("status %d and %d bytes, want 200 and the control's %d bytes", code, len(out), len(want))
	}
	if peer := hdr.Get(peerHeader); peer != succ.url {
		t.Errorf("answered by %q, want the owner's successor %q", peer, succ.url)
	}
	if n := counter(entry.scope, "cluster.fallbacks"); n != 1 {
		t.Errorf("cluster.fallbacks = %d, want 1", n)
	}
	if n := sent.Load(); n >= 4*maxPeerReplyBytes {
		t.Errorf("the entry replica read all %d bytes the listener had to send; the bound is %d", n, maxPeerReplyBytes)
	}
}

// TestPeerBreakerOpensOnBlackHole: an owner that drops packets — a connect
// neither accepted nor refused — must cost what a crashed one costs. A forward
// is one dial, given up after peerDialTimeout although the request itself has
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
	entry.srv.peers.http = &http.Client{Transport: peerTransport(
		func(ctx context.Context, network, addr string) (net.Conn, error) {
			if !hole.Load() || "http://"+addr != owner.url {
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

	for i := 1; i <= 3; i++ {
		peer, dialled := ask()
		if peer != succ.url {
			t.Errorf("request %d was answered by %q, want the successor %q", i, peer, succ.url)
		}
		if dialled != 1 {
			t.Fatalf("request %d dialled the owner %d times, want once: a forward is one attempt", i, dialled)
		}
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
	if peer, dialled := ask(); peer != succ.url || dialled != 1 {
		t.Errorf("the probe: answered by %q after %d dials, want %q after one", peer, dialled, succ.url)
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

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	swapp "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// testClock is a real clock with an adjustable forward offset, so tests can
// age peer breakers past their cooldown without sleeping.
type testClock struct{ offset atomic.Int64 }

func (c *testClock) now() time.Time { return time.Now().Add(time.Duration(c.offset.Load())) }

func (c *testClock) advance(d time.Duration) { c.offset.Add(int64(d)) }

// clusterReplica is one in-process peer-aware replica: a real Server wired
// to real peers over loopback HTTP, plus a kill switch that drops every
// connection at the transport — the failure mode a crashed replica
// presents to the survivors.
type clusterReplica struct {
	url   string
	srv   *Server
	eval  *stubEval
	scope *obs.Scope

	killed  atomic.Bool
	handler atomic.Value // http.Handler
}

func (c *clusterReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if c.killed.Load() {
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("test listener not hijackable")
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			panic(err)
		}
		conn.Close()
		return
	}
	c.handler.Load().(http.Handler).ServeHTTP(w, r)
}

// newCluster starts n peer-wired replicas. Listeners come up first (their
// URLs are the ring's node names), then each Server is built knowing the
// full membership.
func newCluster(t testing.TB, n int) ([]*clusterReplica, *testClock) {
	t.Helper()
	clock := &testClock{}
	reps := make([]*clusterReplica, n)
	urls := make([]string, n)
	for i := range reps {
		reps[i] = &clusterReplica{}
		ts := httptest.NewServer(reps[i])
		t.Cleanup(ts.Close)
		reps[i].url = ts.URL
		urls[i] = ts.URL
	}
	for i, rep := range reps {
		peers := make([]string, 0, n-1)
		for k, u := range urls {
			if k != i {
				peers = append(peers, u)
			}
		}
		rep.eval = &stubEval{}
		rep.scope = obs.New("test")
		rep.srv = New(Config{Workers: 4, Obs: rep.scope, Eval: rep.eval.fn,
			Self: rep.url, Peers: peers, nowFn: clock.now})
		rep.handler.Store(rep.srv.Handler())
	}
	return reps, clock
}

// requestOf normalises a request body the way every handler does.
func requestOf(t *testing.T, body string) swapp.Request {
	t.Helper()
	var api APIRequest
	if err := json.Unmarshal([]byte(body), &api); err != nil {
		t.Fatal(err)
	}
	req, err := evalRequest(api)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// owner resolves which replica URL owns a request body's group, the same
// way every replica does.
func ownerOf(t *testing.T, reps []*clusterReplica, body string) string {
	t.Helper()
	urls := make([]string, len(reps))
	for i, r := range reps {
		urls[i] = r.url
	}
	return cluster.NewRing(urls).Owner(groupKeyOf(t, body))
}

// counter reads one obs counter, defaulting to 0.
func counter(scope *obs.Scope, name string) int64 {
	v, _ := scope.Metrics().Counter(name)
	return v
}

// ringBatch is six requests spanning three ring groups, the same at every
// replica count, so ring size is BenchmarkRingBatch's only variable.
var ringBatch = []string{
	`{"target":"bgp","bench":"BT-MZ","class":"C","ranks":16}`,
	`{"target":"bgp","bench":"SP-MZ","class":"C","ranks":16}`,
	`{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16}`,
	`{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":32}`,
	`{"target":"westmere-x5670","bench":"LU-MZ","class":"C","ranks":16}`,
	`{"target":"westmere-x5670","bench":"SP-MZ","class":"C","ranks":32}`,
}

// BenchmarkRingBatch is the peer-hop number: one grouped /v1/batch sent to
// replica 0 of a 2-, 4- and 8-replica ring whose owners already hold every
// result, so an iteration is grouping, forwarding and assembly — no
// evaluation. As the ring grows more groups land off-node.
func BenchmarkRingBatch(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			reps, _ := newCluster(b, n)
			body := batchBody(b, ringBatch...)
			code, _, out := post(b, reps[0].url+"/v1/batch", body)
			if code != 200 {
				b.Fatalf("priming batch status = %d: %s", code, out)
			}
			for i, e := range decodeBatch(b, out).Results {
				if e.Status != 200 {
					b.Fatalf("priming batch entry %d failed: %d %s", i, e.Status, e.Error)
				}
			}
			for _, rep := range reps {
				rep.srv.WaitReplication()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if code, _, out := post(b, reps[0].url+"/v1/batch", body); code != 200 {
					b.Fatalf("batch status = %d: %s", code, out)
				}
			}
		})
	}
}

// TestClusterRoutingDeterminism proves every replica resolves the same
// owner for every group: a request lands on the owner's evaluator no
// matter which replica receives it, responses are byte-identical from
// every entry point, and the X-Swapp-Peer header names the owner exactly
// when the receiver forwarded.
func TestClusterRoutingDeterminism(t *testing.T) {
	reps, _ := newCluster(t, 3)
	requests := []string{
		`{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16}`,
		`{"target":"bgp","bench":"SP-MZ","class":"C","ranks":16}`,
		`{"target":"westmere-x5670","bench":"LU-MZ","class":"C","ranks":16}`,
		`{"base":"bgp","target":"hydra","bench":"BT-MZ","class":"C","ranks":16}`,
	}
	for _, body := range requests {
		owner := ownerOf(t, reps, body)
		var reference []byte
		for i, rep := range reps {
			code, hdr, out := post(t, rep.url+"/v1/project", body)
			if code != 200 {
				t.Fatalf("replica %d: status %d: %s", i, code, out)
			}
			if reference == nil {
				reference = out
			} else if !bytes.Equal(out, reference) {
				t.Errorf("replica %d served different bytes for %s", i, body)
			}
			peer := hdr.Get(peerHeader)
			if rep.url == owner && peer != "" {
				t.Errorf("owner replica %d forwarded to %q", i, peer)
			}
			if rep.url != owner && peer != owner {
				t.Errorf("replica %d: X-Swapp-Peer = %q, want owner %q", i, peer, owner)
			}
		}
	}
	// Every evaluation ran on exactly one replica: distinct requests ==
	// total evaluations across the cluster.
	var total int64
	for _, rep := range reps {
		total += rep.eval.calls.Load()
	}
	if total != int64(len(requests)) {
		t.Errorf("cluster ran %d evaluations for %d distinct requests", total, len(requests))
	}
	// And the memberships agree.
	want := fmt.Sprint(reps[0].srv.Peers())
	for i, rep := range reps[1:] {
		if fmt.Sprint(rep.srv.Peers()) != want {
			t.Errorf("replica %d sees membership %v, replica 0 sees %v", i+1, rep.srv.Peers(), want)
		}
	}
}

// TestClusterPeerCacheFill proves forwarding fills the owner's cache for
// everyone: the second forward of one request is a peer cache hit,
// surfaced through X-Cache and the cluster.peer_hits counter.
func TestClusterPeerCacheFill(t *testing.T) {
	reps, _ := newCluster(t, 3)
	body := `{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16}`
	owner := ownerOf(t, reps, body)
	var sender *clusterReplica
	for _, rep := range reps {
		if rep.url != owner {
			sender = rep
			break
		}
	}
	_, hdr1, _ := post(t, sender.url+"/v1/project", body)
	_, hdr2, _ := post(t, sender.url+"/v1/project", body)
	if hdr1.Get("X-Cache") != "miss" || hdr2.Get("X-Cache") != "hit" {
		t.Errorf("forwarded X-Cache = %q then %q, want miss then hit", hdr1.Get("X-Cache"), hdr2.Get("X-Cache"))
	}
	if n := counter(sender.scope, "cluster.forwards"); n != 2 {
		t.Errorf("cluster.forwards = %d, want 2", n)
	}
	if n := counter(sender.scope, "cluster.peer_hits"); n != 1 {
		t.Errorf("cluster.peer_hits = %d, want 1", n)
	}
}

// TestClusterForwardedRequestNotBounced proves the loop guard: a request
// already carrying the forwarded header is computed where it lands, even
// when its group's owner is elsewhere — no multi-hop routing, no cycles.
func TestClusterForwardedRequestNotBounced(t *testing.T) {
	reps, _ := newCluster(t, 3)
	body := `{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16}`
	owner := ownerOf(t, reps, body)
	var nonOwner *clusterReplica
	for _, rep := range reps {
		if rep.url != owner {
			nonOwner = rep
			break
		}
	}
	req, err := http.NewRequest(http.MethodPost, nonOwner.url+"/v1/project", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("forwarded request status = %d", resp.StatusCode)
	}
	if p := resp.Header.Get(peerHeader); p != "" {
		t.Errorf("forwarded request was re-forwarded to %q", p)
	}
	if n := nonOwner.eval.calls.Load(); n != 1 {
		t.Errorf("non-owner ran %d evaluations for a forwarded request, want 1", n)
	}
}

// TestClusterBatchFaultInjectionFailover is the kill-one-mid-batch
// satellite: three replicas serve a batch spanning groups owned across the
// cluster; then one replica dies at the transport and the same workload —
// resubmitted to a survivor — completes with every projection
// byte-identical to a single-process run. The dead peer costs fallbacks,
// never correctness.
func TestClusterBatchFaultInjectionFailover(t *testing.T) {
	reps, clock := newCluster(t, 3)
	// A single-process control server for byte-identity.
	ctl := New(Config{Workers: 4, Eval: (&stubEval{}).fn})
	ctlTS := newHTTPServer(t, ctl)

	bodies := []string{
		`{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16}`,
		`{"target":"bgp","bench":"BT-MZ","class":"C","ranks":16}`,
		`{"target":"westmere-x5670","bench":"BT-MZ","class":"C","ranks":16}`,
		`{"base":"bgp","target":"hydra","bench":"SP-MZ","class":"C","ranks":16}`,
		`{"base":"power6-575","target":"bgp","bench":"LU-MZ","class":"C","ranks":16}`,
	}
	// Receiver: replica 0. Victim: the owner of some group that is not the
	// receiver, so its groups genuinely needed forwarding.
	receiver := reps[0]
	var victim *clusterReplica
	for _, body := range bodies {
		if owner := ownerOf(t, reps, body); owner != receiver.url {
			for _, rep := range reps {
				if rep.url == owner {
					victim = rep
				}
			}
			break
		}
	}
	if victim == nil {
		t.Fatal("no group hashed off the receiver; add targets")
	}

	// Healthy pass: the batch spreads across the ring.
	code, _, out := post(t, receiver.url+"/v1/batch", batchBody(t, bodies...))
	if code != 200 {
		t.Fatalf("healthy batch status = %d: %s", code, out)
	}
	for i, e := range decodeBatch(t, out).Results {
		if e.Status != 200 {
			t.Fatalf("healthy batch entry %d failed: %d %s", i, e.Status, e.Error)
		}
	}
	if counter(receiver.scope, "cluster.forwards") == 0 {
		t.Error("healthy batch forwarded nothing; victim selection is wrong")
	}

	// Kill the victim and resubmit: every group it owned degrades to local
	// computation on the receiver.
	victim.killed.Store(true)
	code, _, out = post(t, receiver.url+"/v1/batch", batchBody(t, bodies...))
	if code != 200 {
		t.Fatalf("post-kill batch status = %d: %s", code, out)
	}
	resp := decodeBatch(t, out)
	for i, e := range resp.Results {
		if e.Status != 200 {
			t.Fatalf("post-kill batch entry %d failed: %d %s", i, e.Status, e.Error)
		}
		_, _, individual := post(t, ctlTS.URL+"/v1/project", bodies[i])
		if want := bytes.TrimSuffix(individual, []byte("\n")); !bytes.Equal(e.Body, want) {
			t.Errorf("entry %d differs from the single-process run:\ncluster: %s\nsingle:  %s", i, e.Body, want)
		}
	}
	if counter(receiver.scope, "cluster.fallbacks") == 0 {
		t.Error("dead peer produced no fallbacks")
	}

	// Rejoin: the next forward to the recovered replica succeeds again.
	// Ageing the clock past the peer breaker's cooldown lets its half-open
	// probe through.
	victim.killed.Store(false)
	clock.advance(time.Minute)
	served := counter(victim.scope, "server.requests./v1/batch")
	code, _, out = post(t, receiver.url+"/v1/batch", batchBody(t, bodies...))
	if code != 200 {
		t.Fatalf("post-rejoin batch status = %d: %s", code, out)
	}
	for i, e := range decodeBatch(t, out).Results {
		if e.Status != 200 {
			t.Fatalf("post-rejoin batch entry %d failed: %d %s", i, e.Status, e.Error)
		}
	}
	if counter(victim.scope, "server.requests./v1/batch") <= served {
		t.Error("nothing was forwarded to the rejoined replica")
	}
	// With gossip off nothing ever replaces the ring: a failed forward is a
	// fallback, not a membership change.
	if n := counter(receiver.scope, "cluster.ring_moves"); n != 0 {
		t.Errorf("cluster.ring_moves = %d on a static ring, want 0", n)
	}
}

// TestClusterBatchOrderOwnerReplicaCache pins the order a batch group
// resolves in on a non-owner, which answering cached members inline must
// not have disturbed: the live owner first, even when this replica's own
// LRU could answer; then the replica vault; the local result cache and
// computation last.
func TestClusterBatchOrderOwnerReplicaCache(t *testing.T) {
	reps, clock := newCluster(t, 2)
	bodies := []string{
		`{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16}`,
		`{"target":"power6-575","bench":"SP-MZ","class":"C","ranks":32}`,
	}
	batch := batchBody(t, bodies...)
	owner := byURL(t, reps, ownerOf(t, reps, bodies[0]))
	other := reps[0]
	if other == owner {
		other = reps[1]
	}
	members := int64(len(bodies))
	submit := func(phase string) []batchEntry {
		t.Helper()
		code, _, out := post(t, other.url+"/v1/batch", batch)
		if code != 200 {
			t.Fatalf("%s: batch status = %d: %s", phase, code, out)
		}
		resp := decodeBatch(t, out)
		for i, e := range resp.Results {
			if e.Status != 200 {
				t.Fatalf("%s: entry %d failed: %d %s", phase, i, e.Status, e.Error)
			}
		}
		return resp.Results
	}

	// Owner down: the non-owner falls back, computes the group itself and
	// keeps the results in its own LRU.
	owner.killed.Store(true)
	submit("owner down")
	if n := other.eval.calls.Load(); n != members {
		t.Fatalf("fallback ran %d evaluations, want %d", n, members)
	}

	// Owner back: the group is forwarded whole all the same — the local
	// LRU is not consulted ahead of the ring.
	owner.killed.Store(false)
	clock.advance(time.Minute)
	fromOwner := submit("owner back")
	if n := counter(other.scope, "cluster.forwards"); n != members {
		t.Errorf("cluster.forwards = %d, want %d (the whole group)", n, members)
	}
	if n := counter(other.scope, "server.cache.result_hits"); n != 0 {
		t.Errorf("non-owner answered %d members from its own LRU with the owner alive", n)
	}
	if n := owner.eval.calls.Load(); n != members {
		t.Errorf("owner ran %d evaluations, want %d", n, members)
	}
	owner.srv.WaitReplication()
	if n := counter(other.scope, "cluster.replica_stores"); n != members {
		t.Fatalf("successor stored %d replicas, want %d", n, members)
	}

	// Owner down again: the replicated bytes answer before the local LRU,
	// and they are the owner's bytes.
	owner.killed.Store(true)
	fromVault := submit("owner down again")
	if n := counter(other.scope, "cluster.replica_hits"); n != members {
		t.Errorf("cluster.replica_hits = %d, want %d", n, members)
	}
	if n := counter(other.scope, "server.cache.result_hits"); n != 0 {
		t.Errorf("local LRU answered %d members ahead of the replica vault", n)
	}
	if n := other.eval.calls.Load(); n != members {
		t.Errorf("non-owner ran %d evaluations in all, want the first fallback's %d", n, members)
	}
	for i := range fromVault {
		if !bytes.Equal(fromVault[i].Body, fromOwner[i].Body) {
			t.Errorf("entry %d from the replica vault differs from the owner's:\nvault: %s\nowner: %s", i, fromVault[i].Body, fromOwner[i].Body)
		}
	}
}

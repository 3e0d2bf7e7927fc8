package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	neturl "net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	swapp "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// testClock stands still until a test advances it, so peer breakers age past
// their cooldown exactly when a test says so — never because a run was slow.
type testClock struct{ offset atomic.Int64 }

func (c *testClock) now() time.Time {
	return time.Unix(1_700_000_000, 0).Add(time.Duration(c.offset.Load()))
}

func (c *testClock) advance(d time.Duration) { c.offset.Add(int64(d)) }

// clusterReplica is one in-process peer-aware replica: a real Server wired
// to real peers over loopback HTTP, plus two faults at the listener — a kill
// switch that drops every connection, the failure mode a crashed replica
// presents to the survivors, and a one-way cut that drops only what one
// named peer relays here.
type clusterReplica struct {
	url   string // where the listener is
	name  string // what the ring calls this replica; the url unless startCluster was given names
	srv   *Server
	eval  *stubEval
	scope *obs.Scope

	killed  atomic.Bool
	cutFrom atomic.Value // string: the peer whose forwards are dropped, "" for none
	handler atomic.Value // http.Handler
}

func (c *clusterReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if from := r.Header.Get(forwardedHeader); c.killed.Load() || (from != "" && from == c.cutFrom.Load()) {
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

// boot builds the replica's Server — again, empty, after a simulated restart
// — knowing the full membership, and, when the ring's names are not URLs,
// sends its peer calls to their listeners.
func (c *clusterReplica) boot(reps []*clusterReplica, clock *testClock) {
	var peers []string
	for _, rep := range reps {
		if rep != c {
			peers = append(peers, rep.name)
		}
	}
	c.srv = New(Config{Workers: 4, Obs: c.scope, Eval: c.eval.fn,
		Self: c.name, Peers: peers, nowFn: clock.now})
	routes := listenerRoutes{}
	for _, rep := range reps {
		if rep.name != rep.url {
			routes[rep.name] = rep.url
		}
	}
	if len(routes) > 0 {
		c.srv.peers.http = &http.Client{Transport: routes}
	}
	c.handler.Store(c.srv.Handler())
}

// listenerRoutes is a peer client's transport in a test cluster: a call
// addressed to a ring name goes to that replica's listener, through the
// production peer transport.
type listenerRoutes map[string]string // ring name -> listener URL

func (m listenerRoutes) RoundTrip(r *http.Request) (*http.Response, error) {
	for name, url := range m {
		if rest, ok := strings.CutPrefix(r.URL.String(), name); ok && strings.HasPrefix(rest, "/") {
			to, err := neturl.Parse(url + rest)
			if err != nil {
				return nil, err
			}
			r = r.Clone(r.Context())
			r.URL, r.Host = to, ""
			break
		}
	}
	return peerHTTP.Transport.RoundTrip(r)
}

// newCluster starts n peer-wired replicas whose ring names are their
// listeners' URLs, so which replica owns what differs from run to run.
func newCluster(t testing.TB, n int) ([]*clusterReplica, *testClock) {
	t.Helper()
	return startCluster(t, make([]string, n))
}

// startCluster starts one peer-wired replica per name. Listeners come up
// first, then each Server is built knowing the full membership. An empty
// name is replaced by the listener's URL; given names pin the ring's
// geometry, and with it every count a test takes, across runs.
func startCluster(t testing.TB, names []string) ([]*clusterReplica, *testClock) {
	t.Helper()
	clock := &testClock{}
	reps := make([]*clusterReplica, len(names))
	for i, name := range names {
		reps[i] = &clusterReplica{name: name, eval: &stubEval{}, scope: obs.New("test")}
		reps[i].cutFrom.Store("")
		ts := httptest.NewServer(reps[i])
		t.Cleanup(ts.Close)
		reps[i].url = ts.URL
		if name == "" {
			reps[i].name = ts.URL
		}
	}
	for _, rep := range reps {
		rep.boot(reps, clock)
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

// preferenceOf lists the replicas in the preference order of a request
// body's group, resolved the way every replica does.
func preferenceOf(t *testing.T, reps []*clusterReplica, body string) []*clusterReplica {
	t.Helper()
	byName := map[string]*clusterReplica{}
	var names []string
	for _, r := range reps {
		byName[r.name] = r
		names = append(names, r.name)
	}
	var order []*clusterReplica
	req := requestOf(t, body)
	for _, name := range cluster.Preference(names, cluster.GroupKey(req.Base, req.Target)) {
		order = append(order, byName[name])
	}
	return order
}

// ownerOf resolves which replica URL owns a request body's group.
func ownerOf(t *testing.T, reps []*clusterReplica, body string) string {
	t.Helper()
	return preferenceOf(t, reps, body)[0].url
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
// evaluation. The replicas have fixed ring names, as TestRingChaosSchedules'
// do, so which of the batch's groups replica 0 owns, and with it the
// benchmark's allocs/op, is the same on every run: under these names
// replica 0 forwards one of the three groups on the 2-ring, two on the
// 4-ring and all three, to two owners, on the 8-ring.
func BenchmarkRingBatch(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			names := make([]string, n)
			for i := range names {
				// Never dialled: boot sends every peer call to its listener.
				names[i] = fmt.Sprintf("http://127.0.0.1:9/member-%d", i)
			}
			reps, _ := startCluster(b, names)
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
// when the receiver is not the owner — a non-owner holds nothing of the
// owner's and forwards every time.
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
				t.Errorf("replica %d: X-Swapp-Peer = %q (X-Cache %q), want owner %q", i, peer, hdr.Get("X-Cache"), owner)
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
	want := fmt.Sprint(reps[0].srv.peers.nodes)
	for i, rep := range reps[1:] {
		if fmt.Sprint(rep.srv.peers.nodes) != want {
			t.Errorf("replica %d sees membership %v, replica 0 sees %v", i+1, rep.srv.peers.nodes, want)
		}
	}
}

// TestClusterPeerCacheFill proves forwarding fills the owner's cache for
// everyone: the second forward of one request is a peer cache hit,
// surfaced through X-Cache and the cluster.peer_hits counter.
func TestClusterPeerCacheFill(t *testing.T) {
	reps, _ := newCluster(t, 3)
	body := `{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16}`
	sender := preferenceOf(t, reps, body)[1] // any replica but the owner
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
	// Victim: the owner of the first group. Receiver: any other replica, so
	// the victim's groups genuinely need forwarding.
	victim := preferenceOf(t, reps, bodies[0])[0]
	receiver := reps[0]
	if receiver == victim {
		receiver = reps[1]
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

	// Kill the victim and resubmit: every group it owned goes to the next
	// replica in the group's preference order, or is computed here when that
	// is the receiver.
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
	// What the victim owned was recomputed past it.
	if counter(receiver.scope, "cluster.fallbacks") == 0 {
		t.Error("the dead peer's groups cost no fallback")
	}

	// Rejoin: the next forward to the recovered replica succeeds again.
	// Ageing the clock past the peer breaker's cooldown lets its half-open
	// probe through.
	// A fresh key of the victim's group: the receiver may hold the old ones
	// by now and would not ask anyone for them.
	victim.killed.Store(false)
	clock.advance(time.Minute)
	served := counter(victim.scope, "server.requests./v1/batch")
	fresh := batchBody(t, strings.Replace(bodies[0], `"ranks":16`, `"ranks":8`, 1))
	code, _, out = post(t, receiver.url+"/v1/batch", fresh)
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
}

// TestClusterHeldOwnerCompute pins the one order every delivery resolves in
// — held here, else the group's owner, else compute — by running the same
// arc through the single endpoint, a batch and async jobs on a 2-replica
// ring, always asking the replica that does not own the group. A held
// document is never fetched over the wire; the owner is asked for open
// members only, and what it answers is relayed, not kept; and nothing is
// evaluated twice anywhere. Jobs take the same path minus the owner hop.
func TestClusterHeldOwnerCompute(t *testing.T) {
	bodies := []string{
		`{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16}`,
		`{"target":"power6-575","bench":"SP-MZ","class":"C","ranks":32}`,
		`{"target":"power6-575","bench":"LU-MZ","class":"C","ranks":16}`,
	}
	// ask delivers bodies[i] for each i in idx at rep and returns the
	// documents, newline-terminated as the endpoint serves them.
	type askFunc func(t *testing.T, rep *clusterReplica, idx ...int) [][]byte
	for _, d := range []struct {
		name     string
		forwards bool // does this delivery send open members to the owner?
		ask      askFunc
	}{
		{"single", true, func(t *testing.T, rep *clusterReplica, idx ...int) [][]byte {
			docs := make([][]byte, len(idx))
			for k, i := range idx {
				code, _, out := post(t, rep.url+"/v1/project", bodies[i])
				if code != 200 {
					t.Fatalf("body %d: status %d: %s", i, code, out)
				}
				docs[k] = out
			}
			return docs
		}},
		{"batch", true, func(t *testing.T, rep *clusterReplica, idx ...int) [][]byte {
			items := make([]string, len(idx))
			for k, i := range idx {
				items[k] = bodies[i]
			}
			code, _, out := post(t, rep.url+"/v1/batch", batchBody(t, items...))
			if code != 200 {
				t.Fatalf("batch status = %d: %s", code, out)
			}
			docs := make([][]byte, len(idx))
			for k, e := range decodeBatch(t, out).Results {
				if e.Status != 200 {
					t.Fatalf("body %d: entry failed: %d %s", idx[k], e.Status, e.Error)
				}
				docs[k] = append(append([]byte(nil), e.Body...), '\n')
			}
			return docs
		}},
		{"job", false, func(t *testing.T, rep *clusterReplica, idx ...int) [][]byte {
			docs := make([][]byte, len(idx))
			for k, i := range idx {
				st := submitJob(t, rep.url, `{"request":`+bodies[i]+`}`)
				if final := waitJobDone(t, rep.url, st.ID); final.State != cluster.JobDone {
					t.Fatalf("body %d: job %s (%s)", i, final.State, final.Error)
				}
				docs[k] = resultBytes(t, rep.url, st.ID)
			}
			return docs
		}},
	} {
		t.Run(d.name, func(t *testing.T) {
			reps, clock := newCluster(t, 2)
			owner := preferenceOf(t, reps, bodies[0])[0]
			other := reps[0]
			if other == owner {
				other = reps[1]
			}
			evals := func(phase string, atOther, atOwner int64) {
				t.Helper()
				if a, b := other.eval.calls.Load(), owner.eval.calls.Load(); a != atOther || b != atOwner {
					t.Errorf("%s: non-owner ran %d evaluations and the owner %d, want %d and %d", phase, a, b, atOther, atOwner)
				}
			}
			forwards := func(phase string, want int64) {
				t.Helper()
				if n := counter(other.scope, "cluster.forwards"); n != want {
					t.Errorf("%s: cluster.forwards = %d, want %d", phase, n, want)
				}
			}

			// Compute: with the owner unreachable, the non-owner fills two
			// keys itself and keeps them in its LRU.
			owner.killed.Store(true)
			first := d.ask(t, other, 0, 1)
			evals("owner down", 2, 0)
			if d.forwards && counter(other.scope, "cluster.fallbacks") == 0 {
				t.Error("owner down: the failed forwards counted no fallback")
			}

			// Held: the owner is back, alive and unconsulted — both are
			// answered where they are asked, byte for byte what was computed.
			owner.killed.Store(false)
			clock.advance(time.Minute)
			hits := counter(other.scope, "server.cache.result_hits")
			held := d.ask(t, other, 0, 1)
			evals("held", 2, 0)
			forwards("held", 0)
			if n := counter(other.scope, "server.cache.result_hits") - hits; n != 2 {
				t.Errorf("held: the LRU answered %d members, want 2", n)
			}
			if !bytes.Equal(held[0], first[0]) || !bytes.Equal(held[1], first[1]) {
				t.Error("held: the LRU's bytes differ from the ones computed")
			}

			// Owner: of a held key and a new one, only the new one is open,
			// and only an open member crosses the wire — again the next time,
			// since the owner's answer is relayed and not kept. A job computes
			// it here instead, and from then on holds it.
			d.ask(t, other, 0, 2)
			d.ask(t, other, 0, 2)
			if d.forwards {
				evals("one open member", 2, 1)
				forwards("one open member, twice", 2)
			} else {
				evals("one open member", 3, 0)
				forwards("a job", 0)
			}
			if n := other.eval.calls.Load() + owner.eval.calls.Load(); n != int64(len(bodies)) {
				t.Errorf("the ring ran %d evaluations for %d distinct keys", n, len(bodies))
			}
		})
	}
}

// TestRingServesOnlyItsOwnAnswers: a replica serves what it computed itself
// or what a configured peer answered to its own forward — there is no route
// by which anyone else can put a document in its way. POST /v1/replicate
// with a well-formed result push for a request is 404, and that request is
// then evaluated once and answered with the single-process control's bytes.
func TestRingServesOnlyItsOwnAnswers(t *testing.T) {
	ctl := newHTTPServer(t, New(Config{Workers: 4, Eval: (&stubEval{}).fn}))
	_, _, want := post(t, ctl.URL+"/v1/project", reqBT)

	reps, _ := newCluster(t, 3)
	owner := preferenceOf(t, reps, reqBT)[0]
	key := digest(opProject, requestOf(t, reqBT))
	planted := []byte(`{"app":"planted"}` + "\n")
	sum := sha256.Sum256(planted)
	push, err := json.Marshal(map[string]any{
		"key":      hex.EncodeToString(key[:]),
		"endpoint": "/v1/project",
		"sum":      hex.EncodeToString(sum[:]),
		"body":     planted,
	})
	if err != nil {
		t.Fatal(err)
	}
	if code, _, out := post(t, owner.url+"/v1/replicate", string(push)); code != http.StatusNotFound {
		t.Errorf("POST /v1/replicate on a ring member: %d %s, want 404", code, out)
	}
	if code, _, out := post(t, ctl.URL+"/v1/replicate", string(push)); code != http.StatusNotFound {
		t.Errorf("POST /v1/replicate without -peers: %d %s, want 404", code, out)
	}

	code, hdr, got := post(t, owner.url+"/v1/project", reqBT)
	if code != 200 || hdr.Get("X-Cache") != "miss" {
		t.Fatalf("status %d, X-Cache %q: %s; want a 200 miss", code, hdr.Get("X-Cache"), got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the ring member served\n%s, the control\n%s", got, want)
	}
	if n := owner.eval.calls.Load(); n != 1 {
		t.Errorf("the ring member ran %d evaluations, want 1", n)
	}
}

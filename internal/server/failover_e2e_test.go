package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// newGossipCluster starts n peer-wired replicas running the SWIM detector
// at test cadence: membership changes land in tens of milliseconds instead
// of seconds, which keeps the kill-failover tests fast and deterministic.
func newGossipCluster(t *testing.T, n int) []*clusterReplica {
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
			Self: rep.url, Peers: peers, nowFn: clock.now,
			GossipInterval:     20 * time.Millisecond,
			GossipProbeTimeout: 10 * time.Millisecond,
			GossipSuspectAfter: 60 * time.Millisecond,
		})
		// Close stops the gossip loop; cleanups run LIFO so every loop dies
		// before its listener does.
		t.Cleanup(rep.srv.Close)
		rep.handler.Store(rep.srv.Handler())
	}
	return reps
}

// groupKeyOf resolves a request body's routing group key the way every
// replica does.
func groupKeyOf(t *testing.T, body string) string {
	t.Helper()
	req := requestOf(t, body)
	return cluster.GroupKey(req.Base, req.Target)
}

// byURL finds the replica serving url.
func byURL(t *testing.T, reps []*clusterReplica, url string) *clusterReplica {
	t.Helper()
	for _, rep := range reps {
		if rep.url == url {
			return rep
		}
	}
	t.Fatalf("no replica at %s", url)
	return nil
}

// awaitMembershipWithout polls a replica's routing view until addr has been
// gossiped out of it.
func awaitMembershipWithout(t *testing.T, rep *clusterReplica, addr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		evicted := true
		for _, m := range rep.srv.Membership() {
			if m == addr {
				evicted = false
			}
		}
		if evicted {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gossip never evicted %s from %s's view: %v", addr, rep.url, rep.srv.Membership())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterWarmFailoverReplicaServes is the tentpole's proof: an owner
// computes a result and replicates the rendered bytes to its ring
// successor; the owner dies; gossip evicts it from the survivors' rings;
// and the successor — now the group's owner — serves the replicated bytes
// byte-identically without recomputing, from either entry point.
func TestClusterWarmFailoverReplicaServes(t *testing.T) {
	reps := newGossipCluster(t, 3)
	body := `{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16}`
	gk := groupKeyOf(t, body)
	urls := make([]string, len(reps))
	for i, rep := range reps {
		urls[i] = rep.url
	}
	ring := cluster.NewRing(urls)
	owner := byURL(t, reps, ring.Owner(gk))
	succ := byURL(t, reps, ring.NextOwner(gk, owner.url))
	var third *clusterReplica
	for _, rep := range reps {
		if rep != owner && rep != succ {
			third = rep
		}
	}

	// Warm phase: the owner computes and pushes the rendered bytes to its
	// successor in the background; join the push before pulling the plug.
	code, _, reference := post(t, owner.url+"/v1/project", body)
	if code != 200 {
		t.Fatalf("warm request status = %d: %s", code, reference)
	}
	owner.srv.WaitReplication()
	if counter(owner.scope, "cluster.replica_pushes") != 1 {
		t.Fatalf("owner pushed %d replicas, want 1 (fails: %d)",
			counter(owner.scope, "cluster.replica_pushes"), counter(owner.scope, "cluster.replica_push_fails"))
	}
	if counter(succ.scope, "cluster.replica_stores") != 1 {
		t.Fatal("successor stored no replica")
	}

	// Kill the owner at the transport and wait for both survivors' gossip
	// to gossip it out of their rings.
	owner.killed.Store(true)
	awaitMembershipWithout(t, succ, owner.url)
	awaitMembershipWithout(t, third, owner.url)

	// The successor inherits the group and answers warm: the dead owner's
	// exact bytes, no evaluation.
	code, hdr, out := post(t, succ.url+"/v1/project", body)
	if code != 200 {
		t.Fatalf("failover request status = %d: %s", code, out)
	}
	if !bytes.Equal(out, reference) {
		t.Errorf("successor served different bytes than the dead owner:\nowner:     %s\nsuccessor: %s", reference, out)
	}
	if xc := hdr.Get("X-Cache"); xc != "replica" {
		t.Errorf("successor X-Cache = %q, want \"replica\"", xc)
	}

	// Entering through the third replica forwards to the successor and gets
	// the same bytes.
	code, hdr, out = post(t, third.url+"/v1/project", body)
	if code != 200 {
		t.Fatalf("forwarded failover request status = %d: %s", code, out)
	}
	if !bytes.Equal(out, reference) {
		t.Error("third replica relayed different bytes than the dead owner computed")
	}
	if p := hdr.Get(peerHeader); p != succ.url {
		t.Errorf("third replica forwarded to %q, want successor %q", p, succ.url)
	}

	if n := counter(succ.scope, "cluster.replica_hits"); n < 1 {
		t.Errorf("cluster.replica_hits = %d, want >= 1", n)
	}
	if n := succ.eval.calls.Load() + third.eval.calls.Load(); n != 0 {
		t.Errorf("survivors ran %d evaluations; warm failover should run none", n)
	}
}

// TestReplicateIdempotent drives the wire contract of POST /v1/replicate:
// the first push stores, an identical re-push is a counted no-op that
// leaves the vault size alone, and a corrupted, unsummed or oversized push
// is rejected without landing.
func TestReplicateIdempotent(t *testing.T) {
	scope := obs.New("test")
	s := New(Config{Workers: 2, Obs: scope, Eval: (&stubEval{}).fn})
	ts := newHTTPServer(t, s)

	resultBody := []byte(`{"projection":42}` + "\n")
	sum := sha256.Sum256(resultBody)
	msg := replicaMsg{
		Key:      strings.Repeat("ab", sha256.Size),
		Endpoint: "/v1/project",
		Sum:      hex.EncodeToString(sum[:]),
		Body:     resultBody,
	}
	payload, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}

	code, _, out := post(t, ts.URL+"/v1/replicate", string(payload))
	if code != 200 || string(out) != "{\"stored\":true}\n" {
		t.Fatalf("first push: %d %s, want 200 {\"stored\":true}", code, out)
	}
	code, _, out = post(t, ts.URL+"/v1/replicate", string(payload))
	if code != 200 || string(out) != "{\"stored\":false}\n" {
		t.Fatalf("duplicate push: %d %s, want 200 {\"stored\":false}", code, out)
	}
	if n := counter(scope, "cluster.replica_stores"); n != 1 {
		t.Errorf("cluster.replica_stores = %d, want 1", n)
	}
	if n := counter(scope, "cluster.replica_dups"); n != 1 {
		t.Errorf("cluster.replica_dups = %d, want 1", n)
	}
	if n := s.store.ArtifactCount(); n != 1 {
		t.Errorf("vault holds %d entries after a double push, want 1", n)
	}

	// A checksum mismatch must never land.
	bad := msg
	bad.Sum = hex.EncodeToString(make([]byte, sha256.Size))
	payload, _ = json.Marshal(bad)
	if code, _, out = post(t, ts.URL+"/v1/replicate", string(payload)); code != 400 {
		t.Fatalf("corrupted push: %d %s, want 400", code, out)
	}
	if n := counter(scope, "cluster.replica_rejects"); n != 1 {
		t.Errorf("cluster.replica_rejects = %d, want 1", n)
	}
	// Nor a malformed key, nor a body nobody summed.
	short := msg
	short.Key = "abc"
	payload, _ = json.Marshal(short)
	if code, _, _ = post(t, ts.URL+"/v1/replicate", string(payload)); code != 400 {
		t.Fatalf("short-key push accepted with status %d", code)
	}
	unsummed := msg
	unsummed.Key, unsummed.Sum = strings.Repeat("cd", sha256.Size), ""
	payload, _ = json.Marshal(unsummed)
	if code, _, _ = post(t, ts.URL+"/v1/replicate", string(payload)); code != 400 {
		t.Fatalf("unsummed push accepted with status %d", code)
	}
	// Nor a body the vault's entry bound says nothing about: checksum-valid
	// JSON, 2 MiB of it.
	huge := msg
	huge.Key = strings.Repeat("ef", sha256.Size)
	huge.Body = []byte(`"` + strings.Repeat("x", 2<<20) + `"`)
	hugeSum := sha256.Sum256(huge.Body)
	huge.Sum = hex.EncodeToString(hugeSum[:])
	payload, _ = json.Marshal(huge)
	if code, _, out = post(t, ts.URL+"/v1/replicate", string(payload)); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB push: %d %.80s, want 413", code, out)
	}
	if n := counter(scope, "cluster.replica_rejects"); n != 2 {
		t.Errorf("cluster.replica_rejects = %d, want 2", n)
	}
	if n := s.store.ArtifactCount(); n != 1 {
		t.Errorf("rejected pushes changed the vault: %d entries, want 1", n)
	}
}

// TestGossipPingOnlyProbesMembers: the indirect probe is a GET this server
// makes on a caller's say-so, so it goes to configured cluster members and
// nowhere else — and the route does not exist on a server with no cluster.
func TestGossipPingOnlyProbesMembers(t *testing.T) {
	listener := func(hits *atomic.Int64) string {
		ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { hits.Add(1) }))
		t.Cleanup(ts.Close)
		return ts.URL
	}
	var memberHits, bystanderHits atomic.Int64
	member, bystander := listener(&memberHits), listener(&bystanderHits)

	scope := obs.New("test")
	ts := newHTTPServer(t, New(Config{Workers: 1, Obs: scope, Eval: (&stubEval{}).fn,
		Self: "http://self.invalid", Peers: []string{member}}))
	ping := func(target string) int {
		t.Helper()
		code, err := httpGet(ts.URL + "/v1/gossip/ping?target=" + url.QueryEscape(target))
		if err != nil {
			t.Fatal(err)
		}
		return code
	}
	if code := ping(member); code != 200 || memberHits.Load() != 1 {
		t.Errorf("ping of a member: status %d after %d probes, want 200 after 1", code, memberHits.Load())
	}
	for _, target := range []string{bystander, bystander + "/v1/project?x=", ""} {
		if code := ping(target); code != 400 {
			t.Errorf("ping of non-member %q: status %d, want 400", target, code)
		}
	}
	if n := bystanderHits.Load(); n != 0 {
		t.Errorf("a non-member received %d requests from the ping route", n)
	}
	if n := counter(scope, "cluster.gossip_ping_rejects"); n != 3 {
		t.Errorf("cluster.gossip_ping_rejects = %d, want 3", n)
	}

	alone := newHTTPServer(t, New(Config{Workers: 1, Eval: (&stubEval{}).fn}))
	if code, err := httpGet(alone.URL + "/v1/gossip/ping?target=" + url.QueryEscape(bystander)); err != nil || code != 404 {
		t.Errorf("ping on a server with no cluster: %d, %v; want 404", code, err)
	}
	if n := bystanderHits.Load(); n != 0 {
		t.Errorf("a server with no cluster probed a bystander %d times", n)
	}
}

package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// groupKeyOf resolves a request body's routing group key the way every
// replica does.
func groupKeyOf(t *testing.T, body string) string {
	t.Helper()
	req := requestOf(t, body)
	return cluster.GroupKey(req.Base, req.Target)
}

// TestClusterWarmFailoverReplicaServes is warm failover's proof: an owner
// computes a result and replicates the rendered bytes to the next replica in
// the group's preference order; the owner dies; and at once, with nothing
// rebuilt and nothing waited for, that successor serves the replicated bytes
// byte-identically without recomputing, from either entry point.
func TestClusterWarmFailoverReplicaServes(t *testing.T) {
	reps, _ := newCluster(t, 3)
	body := `{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16}`
	order := preferenceOf(t, reps, body)
	owner, succ, third := order[0], order[1], order[2]

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

	// Kill the owner at the transport. The successor answers warm: the dead
	// owner's exact bytes, no evaluation.
	owner.killed.Store(true)
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

	// Entering through the third replica fails over the dead owner to the
	// successor and gets the same bytes.
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

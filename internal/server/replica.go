package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"time"

	swapp "repro"
	"repro/internal/cluster"
	"repro/internal/core"
)

// Warm failover: when an owner finishes a fill it pushes the rendered
// result bytes to its ring successor (the replica that inherits the group
// if the owner leaves), content-addressed so a duplicate push is a no-op.
// When gossip later removes the dead owner and the ring reassigns the
// group, the successor serves the replicated bytes — byte-identical, no
// recomputation — counted as cluster.replica_hits against the cold-path
// cluster.fallbacks.

// replicatePushTimeout bounds one background replication push. Replication
// is an optimisation: a push that cannot land quickly is dropped (counted)
// rather than retried forever — the fallback is plain recomputation.
const replicatePushTimeout = 5 * time.Second

// maxReplicaBytes bounds one POST /v1/replicate body. The vault is bounded
// in entries, so this is what bounds it in bytes; a rendered projection is
// 2–5 KB.
const maxReplicaBytes = 1 << 20

// replicaMsg is the POST /v1/replicate body: the result-cache key (hex),
// the producing endpoint, a sha256 of the body, and the rendered bytes.
type replicaMsg struct {
	Key      string `json:"key"`
	Endpoint string `json:"endpoint"`
	Sum      string `json:"sum"`
	Body     []byte `json:"body"`
}

// replicaVaultKey namespaces one replicated result in the store's artifact
// vault. Server.held is the vault's one reader.
func replicaVaultKey(keyHex, endpoint string) string {
	return fmt.Sprintf("replica|%s|%q", keyHex, endpoint)
}

// maybeReplicate pushes a freshly computed result's rendered bytes to the
// group's ring successor. Only locally owned groups replicate — a fallback
// computation on a non-owner is already a degraded path and its successor
// would be wrong. The push runs in the background (WaitReplication joins
// it).
func (s *Server) maybeReplicate(key cacheKey, endpoint string, req swapp.Request, body []byte) {
	if s.peers == nil {
		return
	}
	gk := cluster.GroupKey(req.Base, req.Target)
	if owner, pc := s.peers.route(gk); pc != nil || owner == "" {
		return
	}
	succ := s.peers.successor(gk)
	if succ == nil {
		return
	}
	sum := sha256.Sum256(body)
	payload, err := json.Marshal(replicaMsg{
		Key:      hex.EncodeToString(key[:]),
		Endpoint: endpoint,
		Sum:      hex.EncodeToString(sum[:]),
		Body:     body,
	})
	if err != nil {
		return
	}
	s.replWG.Add(1)
	go func() {
		defer s.replWG.Done()
		ctx, cancel := context.WithTimeout(context.Background(), replicatePushTimeout)
		defer cancel()
		if _, _, err := succ.PostRaw(ctx, "/v1/replicate", payload, nil); err != nil {
			s.obs.Count("cluster.replica_push_fails", 1)
			return
		}
		s.obs.Count("cluster.replica_pushes", 1)
	}()
}

// WaitReplication blocks until every in-flight replication push has
// completed (tests; the pushes are otherwise fire-and-forget).
func (s *Server) WaitReplication() { s.replWG.Wait() }

// handleReplicate serves POST /v1/replicate: verify the checksum and store
// the pushed bytes in the artifact vault. Idempotent by construction — a
// duplicate of a resident artifact changes neither counters' meaning nor
// the vault size (counted as cluster.replica_dups); a checksum mismatch or
// a body that is not JSON is rejected, so neither a corrupted push nor a
// faithful push of garbage can poison the serving path; a body over
// maxReplicaBytes is 413.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	s.obs.Count("server.requests", 1)
	s.obs.Count("server.requests./v1/replicate", 1)
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, errors.New("/v1/replicate requires POST"))
		return
	}
	var msg replicaMsg
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxReplicaBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&msg); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.obs.Count("cluster.replica_rejects", 1)
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("replica body exceeds %d bytes", maxReplicaBytes))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding replica: %w", err))
		return
	}
	if len(msg.Key) != 2*sha256.Size || msg.Endpoint == "" || msg.Sum == "" || len(msg.Body) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("replica needs key, endpoint, sum, and body"))
		return
	}
	if !json.Valid(msg.Body) {
		s.obs.Count("cluster.replica_rejects", 1)
		writeError(w, http.StatusBadRequest, errors.New("replica body is not JSON"))
		return
	}
	stored, err := s.store.ImportArtifact(core.Artifact{
		Key:  replicaVaultKey(msg.Key, msg.Endpoint),
		Sum:  msg.Sum,
		Body: msg.Body,
	})
	if err != nil {
		s.obs.Count("cluster.replica_rejects", 1)
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if stored {
		s.obs.Count("cluster.replica_stores", 1)
	} else {
		s.obs.Count("cluster.replica_dups", 1)
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"stored\":%t}\n", stored)
}

// probeHealthz is the gossip direct probe: GET addr/healthz must answer
// 200 within the probe context.
func probeHealthz(ctx context.Context, addr string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// indirectPing is the gossip indirect probe: ask via to health-check
// target on our behalf (GET via/v1/gossip/ping?target=...). Distinguishes
// a dead target from a broken direct link.
func indirectPing(ctx context.Context, via, target string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		via+"/v1/gossip/ping?target="+url.QueryEscape(target), nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("gossip ping via %s: HTTP %d", via, resp.StatusCode)
	}
	return nil
}

// handleGossipPing serves GET /v1/gossip/ping?target=...: health-check the
// target for a peer whose own direct link may be broken, answering 200 if
// the target's /healthz responds and 502 otherwise. Only a configured
// cluster member is ever probed — anything else is 400, or this route would
// send a GET wherever any caller pointed it. Registered in peer mode only.
func (s *Server) handleGossipPing(w http.ResponseWriter, r *http.Request) {
	target := r.URL.Query().Get("target")
	if !slices.Contains(s.peers.configured, target) {
		s.obs.Count("cluster.gossip_ping_rejects", 1)
		writeError(w, http.StatusBadRequest, errors.New("gossip ping needs a target that is a cluster member"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), replicatePushTimeout)
	defer cancel()
	if err := probeHealthz(ctx, target); err != nil {
		writeError(w, http.StatusBadGateway, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Membership reports the routing ring's current member addresses (gossip
// view in gossip mode, configured membership otherwise); nil when
// peer-aware mode is off.
func (s *Server) Membership() []string {
	if s.peers == nil {
		return nil
	}
	return s.peers.membership()
}

package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	swapp "repro"
	"repro/internal/cluster"
	"repro/internal/core"
)

// Warm failover: a replica that finishes a fill pushes the rendered result
// bytes to the node after it in the group's preference order — the node
// every entry point's walk tries next once this one stops answering —
// content-addressed so a duplicate push is a no-op. When this replica dies
// that node serves the replicated bytes — byte-identical, no recomputation —
// counted as cluster.replica_hits against the cold-path cluster.fallbacks.

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

// maybeReplicate pushes a freshly computed result's rendered bytes down the
// group's preference order from this replica: to the node after it, or — when
// that one cannot be reached — the one after that, which is where every
// entry point's walk would go on to. The last node in the order has nobody
// the walk would try after it and pushes nowhere. The push runs in the
// background (WaitReplication joins it).
func (s *Server) maybeReplicate(key cacheKey, endpoint string, req swapp.Request, body []byte) {
	if s.peers == nil {
		return
	}
	order := s.peers.ring.Preference(cluster.GroupKey(req.Base, req.Target))
	after := order[slices.Index(order, s.peers.self)+1:]
	if len(after) == 0 {
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
		for _, addr := range after {
			if _, _, err := s.peers.post(ctx, addr, "/v1/replicate", payload, false); err == nil {
				s.obs.Count("cluster.replica_pushes", 1)
				return
			}
			s.obs.Count("cluster.replica_push_fails", 1)
		}
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
	if status := decodeBody(w, r, maxReplicaBytes, "replica", &msg); status != 0 {
		if status == http.StatusRequestEntityTooLarge {
			s.obs.Count("cluster.replica_rejects", 1)
		}
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

package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	swapp "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// forwardedHeader marks a request relayed by a peer replica. Its presence
// is the loop guard: a forwarded request is always computed locally, never
// re-forwarded, so a stale or disagreeing ring cannot bounce a request
// around the cluster.
const forwardedHeader = "X-Swapp-Forwarded"

// peerHeader, on a response, names the replica that actually computed it.
const peerHeader = "X-Swapp-Peer"

// maxTrackedGroups bounds the group keys retained for ring-movement
// accounting. Tracking is metrics-only; beyond the bound new groups are
// simply not counted in cluster.ring_moves.
const maxTrackedGroups = 4096

// peerSet is a replica's view of the cluster: the ring every replica with
// the same membership computes identically (routing preference) and one
// breaker-guarded client per peer (failure isolation). There is one ring:
// it starts over the configured membership and only setMembership — the
// gossip detector's hook — ever replaces it, so a static -peers cluster is
// the gossip-fed one that never hears an update.
//
// Ownership is a preference, not a correctness requirement: when a group's
// owner is unreachable the request degrades to local computation — every
// projection is a pure function of its request, so the bytes are identical
// wherever they are computed. The owner's value is concentration: its
// layered store fills once per group and serves every forwarded request
// (the peer cache fill).
type peerSet struct {
	self       string
	obs        *obs.Scope
	configured []string // the configured membership, self included, sorted
	nowFn      func() time.Time

	mu      sync.Mutex
	clients map[string]*Client // forwarding path per peer address
	routing *cluster.Ring      // over the current membership
	tracked map[string]bool    // group keys seen, for ring_moves accounting
	keys    []string
}

// newPeerSet wires clients for every peer address except self. nowFn is the
// breaker clock (injectable in tests).
func newPeerSet(self string, peers []string, scope *obs.Scope, nowFn func() time.Time) *peerSet {
	p := &peerSet{
		self:    self,
		obs:     scope,
		routing: cluster.NewRing(append(append([]string(nil), peers...), self)),
		nowFn:   nowFn,
		clients: map[string]*Client{},
		tracked: map[string]bool{},
	}
	p.configured = p.routing.Nodes()
	for _, addr := range p.configured {
		if addr != self {
			p.clients[addr] = p.newClient(addr)
		}
	}
	return p
}

// newClient wires the forwarding path to one peer address, with its own
// breaker: a dead peer fails fast after a few attempts instead of charging
// connect timeouts to every request routed its way.
func (p *peerSet) newClient(addr string) *Client {
	return &Client{
		BaseURL: addr,
		// Forwarding must degrade to local computation quickly: one
		// retry with short backoff, then the caller falls back.
		MaxRetries:  1,
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  500 * time.Millisecond,
		breaker:     newBreaker(3, 5*time.Second, p.nowFn),
	}
}

// setMembership replaces the routing ring with one over the given alive
// membership (self always included) — the gossip detector's OnChange hook.
// Group keys whose owner moved under the rebuild are counted as
// cluster.ring_moves; clients for newly seen addresses are wired lazily,
// and clients for departed peers are kept (a rejoin reuses the breaker's
// recovery machinery instead of forgetting its history).
func (p *peerSet) setMembership(alive []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	next := cluster.NewRing(append(append([]string(nil), alive...), p.self))
	for _, addr := range next.Nodes() {
		if addr == p.self {
			continue
		}
		if _, ok := p.clients[addr]; !ok {
			p.clients[addr] = p.newClient(addr)
		}
	}
	if moved := cluster.Moved(p.routing, next, p.keys); moved > 0 {
		p.obs.Count("cluster.ring_moves", int64(moved))
	}
	p.routing = next
	p.obs.Gauge("cluster.ring_size", float64(next.Len()))
}

// membership reports the routing ring's current member addresses.
func (p *peerSet) membership() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.routing.Nodes()
}

// successor resolves the replication target for a locally owned group: the
// replica that would inherit the group if this one left the ring. nil when
// the ring has no other member.
func (p *peerSet) successor(groupKey string) *Client {
	p.mu.Lock()
	defer p.mu.Unlock()
	addr := p.routing.NextOwner(groupKey, p.self)
	if addr == "" || addr == p.self {
		return nil
	}
	if _, ok := p.clients[addr]; !ok {
		p.clients[addr] = p.newClient(addr)
	}
	return p.clients[addr]
}

// route resolves a group key: the owning address on the routing ring, and
// the peer client to forward through — nil when the key is owned locally
// (or the membership is degenerate) and the caller should compute here.
func (p *peerSet) route(groupKey string) (owner string, pc *Client) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.tracked[groupKey] && len(p.keys) < maxTrackedGroups {
		p.tracked[groupKey] = true
		p.keys = append(p.keys, groupKey)
	}
	owner = p.routing.Owner(groupKey)
	if owner == "" || owner == p.self {
		return owner, nil
	}
	return owner, p.clients[owner]
}

// timeoutFor resolves one request's evaluation deadline from its body,
// applying the server default and maximum.
func (s *Server) timeoutFor(body APIRequest) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if body.TimeoutMS > 0 {
		timeout = time.Duration(body.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return timeout
}

// forwardEval relays one single-request evaluation to its group's owner and
// returns the peer's bytes verbatim, the owner's own outcome and its
// address. ok is false when the group is owned here or the forward failed;
// a failure counts a fallback and the caller computes locally — a dead peer
// degrades, never errors.
func (s *Server) forwardEval(r *http.Request, endpoint string, body APIRequest, req swapp.Request) (doc []byte, oc outcome, owner string, ok bool) {
	owner, pc := s.peers.route(cluster.GroupKey(req.Base, req.Target))
	if pc == nil {
		return nil, "", "", false
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, "", "", false
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(body))
	defer cancel()
	doc, respHdr, err := pc.PostRaw(ctx, endpoint, payload, http.Header{forwardedHeader: []string{s.cfg.Self}})
	if err != nil {
		s.obs.Count("cluster.fallbacks", 1)
		return nil, "", "", false
	}
	s.obs.Count("cluster.forwards", 1)
	oc = outcome(respHdr.Get("X-Cache"))
	if oc == outcomeHit {
		s.obs.Count("cluster.peer_hits", 1)
	}
	return doc, oc, owner, true
}

// Peers reports the configured cluster membership (empty when peer-aware
// mode is off) — diagnostics and tests.
func (s *Server) Peers() []string {
	if s.peers == nil {
		return nil
	}
	return append([]string(nil), s.peers.configured...)
}

package server

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"time"

	swapp "repro"
	"repro/internal/cluster"
)

// forwardedHeader marks a request relayed by a peer replica, naming the
// relayer. Its presence is the loop guard: a forwarded request is always
// computed locally, never re-forwarded, so replicas that disagree about who
// is reachable cannot bounce a request around the cluster.
const forwardedHeader = "X-Swapp-Forwarded"

// peerHeader, on a response, names the replica that answered the forward.
const peerHeader = "X-Swapp-Peer"

// peerDialTimeout bounds connecting to a peer. A replica that silently
// drops packets must cost a forward about as much as one that refuses the
// connection, or its breaker would take minutes to hear three failures;
// replicas share a network, where a connect that has not answered in half a
// second will not.
const peerDialTimeout = 500 * time.Millisecond

// peerTransport is http.DefaultTransport with every dial bounded by
// peerDialTimeout.
func peerTransport(dial func(ctx context.Context, network, addr string) (net.Conn, error)) *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		ctx, cancel := context.WithTimeout(ctx, peerDialTimeout)
		defer cancel()
		return dial(ctx, network, addr)
	}
	return t
}

// peerHTTP is the one HTTP client every peer call in the process goes
// through.
var peerHTTP = &http.Client{Transport: peerTransport((&net.Dialer{KeepAlive: 30 * time.Second}).DialContext)}

// peerSet is a replica's view of the cluster, fixed at construction: the
// ring every replica with the same -peers computes identically, and one
// breaker-guarded client per peer. The breaker is the only failure detector
// there is: three failed calls open it, an open breaker fails fast for its
// cooldown, and the one call it then lets through — a real forward — is how
// a returning peer is found again.
//
// A group's preference order (cluster.Ring.Preference) is a preference, not
// a correctness requirement: every projection is a pure function of its
// request, so the bytes are identical wherever they are computed. Its value
// is concentration: every replica that cannot reach a group's owner asks the
// same next node, whose layered store then fills once per group and whose
// vault already holds what the owner pushed (the peer cache fill).
type peerSet struct {
	self    string
	ring    *cluster.Ring
	clients map[string]*Client // per configured peer; read-only after newPeerSet
}

// newPeerSet wires a client for every peer address except self. nowFn is the
// breakers' clock (injectable in tests).
func newPeerSet(self string, peers []string, nowFn func() time.Time) *peerSet {
	p := &peerSet{
		self:    self,
		ring:    cluster.NewRing(append(append([]string(nil), peers...), self)),
		clients: map[string]*Client{},
	}
	for _, addr := range p.ring.Nodes() {
		if addr == self {
			continue
		}
		p.clients[addr] = &Client{
			BaseURL: addr,
			HTTP:    peerHTTP,
			// A forward must give way to the next candidate quickly: one
			// retry with short backoff, then the walk moves on.
			MaxRetries:  1,
			BaseBackoff: 50 * time.Millisecond,
			MaxBackoff:  500 * time.Millisecond,
			breaker:     newBreaker(3, 5*time.Second, nowFn),
		}
	}
	return p
}

// forward relays one request — a single evaluation or a group's nested batch
// — along its group's preference order and returns the first candidate's
// successful reply with that candidate's address. Reaching this replica in
// the order — nobody ahead of it answered, or nobody is ahead — means compute
// here: ok is false. Every other candidate gets one PostRaw — an open breaker
// fails it fast — and a failure counts a fallback and moves on, so an
// unreachable owner's groups land on the node a ring rebuilt without it would
// have named, from every entry point alike.
func (s *Server) forward(ctx context.Context, groupKey, path string, payload []byte) (body []byte, hdr http.Header, peer string, ok bool) {
	relayed := http.Header{forwardedHeader: []string{s.peers.self}}
	for _, addr := range s.peers.ring.Preference(groupKey) {
		if addr == s.peers.self {
			break
		}
		body, hdr, err := s.peers.clients[addr].PostRaw(ctx, path, payload, relayed)
		if err == nil {
			return body, hdr, addr, true
		}
		s.obs.Count("cluster.fallbacks", 1)
	}
	return nil, nil, "", false
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

// forwardEval relays one single-request evaluation along its group's
// preference order and returns the answering peer's bytes verbatim, that
// peer's own outcome and its address. ok is false when the request is to be
// computed here — a dead peer degrades, never errors.
func (s *Server) forwardEval(r *http.Request, endpoint string, body APIRequest, req swapp.Request) (doc []byte, oc outcome, peer string, ok bool) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, "", "", false
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(body))
	defer cancel()
	doc, respHdr, peer, ok := s.forward(ctx, cluster.GroupKey(req.Base, req.Target), endpoint, payload)
	if !ok {
		return nil, "", "", false
	}
	s.obs.Count("cluster.forwards", 1)
	oc = outcome(respHdr.Get("X-Cache"))
	if oc == outcomeHit {
		s.obs.Count("cluster.peer_hits", 1)
	}
	return doc, oc, peer, true
}

// Peers reports the configured cluster membership (empty when peer-aware
// mode is off) — diagnostics and tests.
func (s *Server) Peers() []string {
	if s.peers == nil {
		return nil
	}
	return s.peers.ring.Nodes()
}

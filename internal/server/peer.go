package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
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

// maxPeerReplyBytes bounds what a peer call reads of its reply. The largest
// legitimate one is a forwarded 256-item group at 2–5 KB a document; whatever
// answers at a peer's address with more than this is not a replica, and its
// reply is a failed call, not a heap's worth of bytes.
const maxPeerReplyBytes = 8 << 20

// peerSet is a replica's view of the cluster, fixed at construction: the
// membership every replica with the same -peers lists identically, and one
// breaker per peer. The breaker is the only failure detector there is: three
// failed calls open it, an open breaker fails fast for its cooldown, and the
// one call it then lets through — a real forward — is how a returning peer is
// found again.
//
// A group's preference order (cluster.Preference over nodes) is a
// preference, not a correctness requirement: every projection is a pure
// function of its request, so the bytes are identical wherever they are
// computed. Its value is concentration: every replica that cannot reach a
// group's owner asks the same next node, whose layered store then fills once
// per group and whose result LRU then answers every later ask (the peer
// cache fill).
type peerSet struct {
	self  string
	nodes []string // the peers and self: sorted, each once
	http  *http.Client
	peers map[string]*breaker // by peer address; read-only after newPeerSet
}

// newPeerSet wires a breaker for every peer address except self. nowFn is the
// breakers' clock (injectable in tests).
func newPeerSet(self string, peers []string, nowFn func() time.Time) *peerSet {
	nodes := append(slices.Clone(peers), self)
	slices.Sort(nodes)
	p := &peerSet{self: self, nodes: slices.Compact(nodes), http: peerHTTP, peers: map[string]*breaker{}}
	for _, addr := range p.nodes {
		if addr != self {
			p.peers[addr] = newBreaker(3, 5*time.Second, nowFn)
		}
	}
	return p
}

// errDestination is what the breaker is told of any call that failed while
// its caller was still waiting. The error itself cannot be trusted to say
// so: a connect that timed out satisfies errors.Is(err,
// context.DeadlineExceeded) — net's timeout errors answer to it — which the
// breaker's own rules read as the caller's deadline, so a destination that
// drops packets would never open its breaker.
var errDestination = errors.New("server: call failed at its destination")

// post is the one call a replica makes to a peer, and it is one attempt: POST
// the payload, read at most maxPeerReplyBytes of the reply, and return a 2xx
// reply's body and headers verbatim — a replica relaying a peer's rendered
// bytes must pass them through untouched to preserve byte-identity. Anything
// else is an error, and nothing is retried here: the caller's walk down the
// preference order is the retry, and the peer's breaker — which fails the call
// fast, with no network traffic, while it is open — is the back-off. The
// breaker hears errDestination of any failure while the caller is still
// waiting; the caller's own cancellation or deadline is no verdict on the
// peer. Every peer call is a forward and is marked as one (forwardedHeader).
func (p *peerSet) post(ctx context.Context, addr, path string, payload []byte) (body []byte, hdr http.Header, err error) {
	brk := p.peers[addr]
	if !brk.allow() {
		return nil, nil, errBreakerOpen
	}
	defer func() {
		switch {
		case err == nil:
			brk.record(nil)
		case ctx.Err() != nil:
			brk.record(ctx.Err())
		default:
			brk.record(errDestination)
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+path, bytes.NewReader(payload))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, p.self)
	resp, err := p.http.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(io.LimitReader(resp.Body, maxPeerReplyBytes+1))
	switch {
	case err != nil:
		return nil, nil, fmt.Errorf("server: reading peer %s's reply to %s: %w", addr, path, err)
	case resp.StatusCode < 200 || resp.StatusCode >= 300:
		return nil, nil, fmt.Errorf("server: peer %s answered %s with HTTP %d", addr, path, resp.StatusCode)
	case len(body) > maxPeerReplyBytes:
		return nil, nil, fmt.Errorf("server: peer %s answered %s with more than %d bytes", addr, path, maxPeerReplyBytes)
	}
	return body, resp.Header, nil
}

// forward relays one request — a single evaluation or a group's nested batch
// — along its group's preference order and returns the first candidate's
// successful reply with that candidate's address. Reaching this replica in
// the order — nobody ahead of it answered, or nobody is ahead — means compute
// here: ok is false. Every other candidate gets one call — an open breaker
// fails it fast — and a failure counts a fallback and moves on at once, so an
// unreachable owner's groups land on the owner Preference names over the
// survivors, from every entry point alike.
func (s *Server) forward(ctx context.Context, groupKey, path string, payload []byte) (body []byte, hdr http.Header, peer string, ok bool) {
	for _, addr := range cluster.Preference(s.peers.nodes, groupKey) {
		if addr == s.peers.self {
			break
		}
		body, hdr, err := s.peers.post(ctx, addr, path, payload)
		if err == nil {
			return body, hdr, addr, true
		}
		s.obs.Count("cluster.fallbacks", 1)
	}
	return nil, nil, "", false
}

// timeoutFor resolves one request's evaluation deadline from its body,
// applying the server default and maximum. The clamp is taken in
// milliseconds, before converting: past ~9.2e12 ms the product overflows
// time.Duration into an already-expired deadline.
func (s *Server) timeoutFor(body APIRequest) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if body.TimeoutMS > 0 {
		timeout = s.cfg.MaxTimeout
		if ms := int64(body.TimeoutMS); ms <= s.cfg.MaxTimeout.Milliseconds() {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return timeout
}

// forwardEval relays one single-request evaluation along its group's
// preference order and returns the answering peer's bytes verbatim, that
// peer's own outcome — hit only if it says exactly that, miss whatever else
// it says — and its address. ok is false when the request is to be computed
// here — a dead peer degrades, never errors.
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
	oc = outcomeMiss
	if outcome(respHdr.Get("X-Cache")) == outcomeHit {
		oc = outcomeHit
		s.obs.Count("cluster.peer_hits", 1)
	}
	return doc, oc, peer, true
}

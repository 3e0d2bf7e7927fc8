// Package cluster is the scale-out substrate behind a sharded swappd
// deployment: a consistent-hash ring that assigns normalised request
// groups to replicas, and an async job manager that runs one request in the
// background, each job one attempt.
//
// The ring answers one question deterministically on every replica: in which
// order do the replicas take a (base, target) request group? All replicas are
// configured with the same peer list, so they all compute the same order and
// a group's characterisation work concentrates on the first replica of it
// that can be reached — its layered store fills once and every forwarded
// request reuses it (the peer cache fill). The ring is never rebuilt: a
// replica that cannot reach a group's owner asks the next one in the order,
// which is where a ring without the owner would have sent it. The order is a
// routing preference, not a correctness requirement: wherever a request ends
// up it is answered byte-identically, because every projection is a pure
// function of its request.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"sort"
	"strconv"
)

// GroupKey is the normalised routing (and batch-grouping) key for one
// request: the (base, target) machine pair. Requests sharing it share the
// expensive characterisation artifacts, so both the batch planner and the
// ring route by it. Components are quoted as fmt's %q quotes them, so
// distinct pairs can never collapse onto one key; the bytes are pinned
// (ring ownership hashes them), only fmt's per-call cost is gone.
func GroupKey(base, target string) string {
	var buf [64]byte
	b := strconv.AppendQuote(buf[:0], base)
	b = append(b, '|')
	b = strconv.AppendQuote(b, target)
	return string(b)
}

// vnodesPerNode is the number of ring positions each node occupies.
// 64 keeps the ownership spread within a few percent of even for small
// clusters while the ring stays tiny (a 16-replica ring is 1024 points).
const vnodesPerNode = 64

// Ring is an immutable consistent-hash ring over replica addresses. Build
// with NewRing; share freely — all methods are safe for concurrent use.
//
// Hashing is sha256-based and endianness-pinned, so every replica — and
// every future process — computes identical ownership for identical
// membership. Leaving one node out moves only the keys that node's arcs
// cover (about 1/n of the keyspace), never reshuffling the rest: the
// property that lets callers walk past an unreachable node (Preference)
// without disturbing anyone else's groups.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // sorted, deduplicated membership
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over the given node addresses. Duplicates are
// collapsed and order is irrelevant: two rings built from permutations of
// the same membership are identical. An empty membership yields a ring
// that owns nothing (Owner returns "").
func NewRing(nodes []string) *Ring {
	seen := map[string]bool{}
	r := &Ring{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
	}
	sort.Strings(r.nodes)
	for _, n := range r.nodes {
		for v := 0; v < vnodesPerNode; v++ {
			r.points = append(r.points, ringPoint{hash: hashPoint(n, v), node: n})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Hash collisions across nodes are astronomically unlikely but must
		// still order deterministically.
		return r.points[a].node < r.points[b].node
	})
	return r
}

// hashPoint positions one virtual node: the first 8 bytes of
// sha256("node|vnode"), big-endian.
func hashPoint(node string, vnode int) uint64 {
	sum := sha256.Sum256([]byte(node + "|" + strconv.Itoa(vnode)))
	return binary.BigEndian.Uint64(sum[:8])
}

// hashKey positions a key on the ring.
func hashKey(key string) uint64 {
	sum := sha256.Sum256([]byte("key|" + key))
	return binary.BigEndian.Uint64(sum[:8])
}

// Preference returns key's preference order: the ring's distinct nodes in
// ring order from the key's position, wrapping. Its first element is the
// key's owner, the node of the first ring point at or after the key's hash;
// for any set of dead nodes the first element outside the set is the owner
// on NewRing(survivors) — a ring over the survivors is this ring minus the
// dead nodes' points — so a caller that walks the order past
// the nodes it cannot reach lands where a ring rebuilt without them would
// have routed, and every caller skipping the same nodes lands on the same
// one. Empty on an empty ring.
func (r *Ring) Preference(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	order := make([]string, 0, len(r.nodes))
	for k := 0; len(order) < len(r.nodes); k++ {
		node := r.points[(start+k)%len(r.points)].node
		if !slices.Contains(order, node) {
			order = append(order, node)
		}
	}
	return order
}

// Nodes returns the ring's membership, sorted.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// Package cluster is the scale-out substrate behind a sharded swappd
// deployment: rendezvous hashing that orders the replicas for each
// normalised request group, and an async job manager that runs one request
// in the background, each job one attempt.
//
// Preference answers one question deterministically on every replica: in
// which order do the replicas take a (base, target) request group? All
// replicas are configured with the same peer list, so they all compute the
// same order and a group's characterisation work concentrates on the first
// replica of it that can be reached — its layered store fills once and every
// forwarded request reuses it (the peer cache fill). Nothing is rebuilt when
// a replica dies: one that cannot reach a group's owner asks the next one in
// the order, which is the owner Preference names over the survivors. The
// order is a routing preference, not a correctness requirement: wherever a
// request ends up it is answered byte-identically, because every projection
// is a pure function of its request.
package cluster

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"strconv"
	"strings"
)

// GroupKey is the normalised routing (and batch-grouping) key for one
// request: the (base, target) machine pair. Requests sharing it share the
// expensive characterisation artifacts, so both the batch planner and the
// router key on it. Components are quoted as fmt's %q quotes them, so
// distinct pairs can never collapse onto one key; the bytes are pinned
// (ownership hashes them), only fmt's per-call cost is gone.
func GroupKey(base, target string) string {
	var buf [64]byte
	b := strconv.AppendQuote(buf[:0], base)
	b = append(b, '|')
	b = strconv.AppendQuote(b, target)
	return string(b)
}

// Preference returns key's preference order over nodes, a set of distinct
// replica names: rendezvous (highest-random-weight) hashing. Each node
// scores the first 8 bytes, big-endian, of SHA-256 over its quoted name
// followed by the key — the quotes end the name, so no two (node, key)
// pairs hash the same bytes — and the order is highest score first, ties
// by name. Its first element is the key's owner. A node's score does not
// depend on who else is listed, so the order is the same for any
// permutation of nodes, and for any set of dead nodes the first element
// outside it is Preference(survivors, key)[0]: a caller that walks the
// order past the nodes it cannot reach lands on the owner among the
// survivors, and every caller skipping the same nodes lands on the same
// one. Empty for no nodes.
func Preference(nodes []string, key string) []string {
	type scored struct {
		score uint64
		node  string
	}
	s := make([]scored, len(nodes))
	for i, n := range nodes {
		var buf [128]byte
		sum := sha256.Sum256(append(strconv.AppendQuote(buf[:0], n), key...))
		s[i] = scored{binary.BigEndian.Uint64(sum[:8]), n}
	}
	slices.SortFunc(s, func(a, b scored) int {
		return cmp.Or(cmp.Compare(b.score, a.score), strings.Compare(a.node, b.node))
	})
	order := make([]string, len(s))
	for i := range s {
		order[i] = s[i].node
	}
	return order
}

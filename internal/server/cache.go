package server

import (
	"crypto/sha256"
	"strconv"

	swapp "repro"
	"repro/internal/lru"
)

// cacheKey is the content address of one evaluation result: a raw sha256.
// Using the array itself as the map key (instead of a hex string) keeps
// key derivation allocation-free on the serving hot path.
type cacheKey [sha256.Size]byte

// digest returns the content-addressed cache key for one evaluation: a
// sha256 over the operation and every request field that influences the
// numbers. Workers and Obs are excluded (the projection is byte-identical
// across them, by the engine's determinism contract), as is the caller's
// deadline — a request that times out for one client must still be
// serveable from cache for the next. Requests must be normalised first so
// that a defaulted and an explicit base share an entry.
func digest(op string, req swapp.Request) cacheKey {
	var buf [96]byte
	b := buf[:0]
	b = append(b, op...)
	b = append(b, '|')
	b = append(b, req.Base...)
	b = append(b, '|')
	b = append(b, req.Target...)
	b = append(b, '|')
	b = append(b, string(req.Bench)...)
	b = append(b, '|')
	b = append(b, byte(req.Class))
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(req.Ranks), 10)
	return sha256.Sum256(b)
}

// Endpoint indices for the per-endpoint rendered-bytes slots. /v1/project
// and /v1/surrogate share one result entry (same op) but render it
// differently, so each endpoint owns a slot.
const (
	epProject = iota
	epValidate
	epSurrogate
	numEndpoints
)

// resultCache is the result store: finished evaluations by content address,
// duplicate in-flight ones collapsed onto one leader.
type resultCache = lru.Cache[cacheKey, entry]

// entry is one resultCache value: the result, immutable once published,
// plus its rendered wire bytes per endpoint (see Server.render).
type entry struct {
	res      *swapp.Result
	rendered [numEndpoints][]byte
}

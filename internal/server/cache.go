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
// plus its rendered wire bytes per endpoint — rendered at most once per
// (entry, endpoint) and served as-is on every later hit, so the hot path
// never re-marshals a projection.
type entry struct {
	res      *swapp.Result
	rendered [numEndpoints][]byte
}

// renderedBytes returns the wire bytes for (key, ep), rendering via render
// at most once per slot: a hit serves the stored bytes with zero
// marshalling work. Rendering runs outside the lock (it is a pure function
// of the immutable result); concurrent first-renders produce identical
// bytes, so last-write-wins is benign. When the entry has been evicted the
// bytes are rendered and returned uncached.
func (s *Server) renderedBytes(key cacheKey, ep int, res *swapp.Result, render func(*swapp.Result) ([]byte, error)) ([]byte, error) {
	e, ok := s.cache.Get(key)
	if ok && e.rendered[ep] != nil {
		return e.rendered[ep], nil
	}
	b, err := render(res)
	if err != nil || !ok {
		return b, err
	}
	s.cache.Update(key, func(e *entry) { e.rendered[ep] = b })
	return b, nil
}

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

// resultCache is the result store: each finished evaluation's served
// document by content address, duplicate in-flight ones collapsed onto one
// leader. The leader renders the document once (see Server.runEval); every
// later reader shares the slice read-only.
type resultCache = lru.Cache[cacheKey, []byte]

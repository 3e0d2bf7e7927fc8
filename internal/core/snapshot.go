package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/imb"
	"repro/internal/persist"
	"repro/internal/spec"
)

// StoreSnapshot is the on-disk spill of the store's transferable layers:
// the replication vault (rendered result bytes) and the characterisation
// layer (SPEC result sets and IMB tables in their persist wire form).
// Profiles and surrogates are deliberately absent — they are cheap to
// recompute relative to characterisation, and their in-memory values
// carry live pointers that have no stable wire form.
//
// Every entry carries its own sha256, verified on import exactly like
// /v1/replicate verifies pushed artifacts: a corrupt or tampered entry
// is rejected and counted, never loaded.
type StoreSnapshot struct {
	Version   int            `json:"version"`
	Artifacts []Artifact     `json:"artifacts"`
	Chars     []CharArtifact `json:"chars"`
}

// SnapshotVersion is the current StoreSnapshot schema version. Imports
// of other versions are rejected whole (a snapshot is a cache spill, not
// a migration source).
const SnapshotVersion = 1

// CharArtifact is one characterisation-layer entry in transferable form:
// the layer key, the hex sha256 of Body, and the persist-marshalled
// payload (MarshalSpec for spec| keys, MarshalIMB for imb| keys).
type CharArtifact struct {
	Key  string `json:"key"`
	Sum  string `json:"sum"`
	Body []byte `json:"body"`
}

// ExportSnapshot captures the vault and the characterisation layer.
// External ("ext|") characterisation entries are skipped: their values
// are opaque to the store and have no wire form. Entries that fail to
// marshal are skipped rather than failing the whole export — a spill is
// best-effort by design.
func (s *Store) ExportSnapshot() *StoreSnapshot {
	if s == nil {
		return &StoreSnapshot{Version: SnapshotVersion}
	}
	snap := &StoreSnapshot{Version: SnapshotVersion, Artifacts: s.ExportArtifacts()}
	for _, key := range s.DebugKeys("characterisation") {
		s.chars.mu.Lock()
		el, ok := s.chars.entries[key]
		var val any
		if ok {
			val = el.Value.(*layerEntry).val
		}
		s.chars.mu.Unlock()
		if !ok {
			continue
		}
		var body []byte
		var err error
		switch v := val.(type) {
		case map[string]spec.Result:
			machine := machineOfSpecKey(key)
			body, err = persist.MarshalSpec(machine, v)
		case *imb.Table:
			body, err = persist.MarshalIMB(v)
		default:
			continue // ext| entries: opaque, not spillable
		}
		if err != nil {
			continue
		}
		sum := sha256.Sum256(body)
		snap.Chars = append(snap.Chars, CharArtifact{Key: key, Sum: hex.EncodeToString(sum[:]), Body: body})
	}
	return snap
}

// machineOfSpecKey recovers the machine name from a spec| layer key.
func machineOfSpecKey(key string) string {
	var m string
	if _, err := fmt.Sscanf(key, "spec|%q", &m); err == nil {
		return m
	}
	return ""
}

// ImportSnapshot loads a snapshot into the store. Every entry is
// verified — checksum first, then the payload is parsed by the persist
// validators and its content-derived key must equal the recorded key, so
// a snapshot can never publish data under a key it doesn't match.
// Returns how many entries were stored and how many rejected; rejections
// are counted on the vault's _rejects counter (artifacts) or the
// characterisation layer's <prefix>.characterisation_rejects.
func (s *Store) ImportSnapshot(snap *StoreSnapshot) (stored, rejected int) {
	if s == nil || snap == nil {
		return 0, 0
	}
	if snap.Version != SnapshotVersion {
		return 0, 0
	}
	for _, a := range snap.Artifacts {
		if _, err := s.ImportArtifact(a); err != nil {
			rejected++
			continue
		}
		stored++
	}
	for _, c := range snap.Chars {
		if s.importChar(c) {
			stored++
		} else {
			rejected++
			s.chars.obs.Count(s.chars.name+"_rejects", 1)
		}
	}
	return stored, rejected
}

// importChar verifies and loads one characterisation entry.
func (s *Store) importChar(c CharArtifact) bool {
	sum := sha256.Sum256(c.Body)
	if c.Sum != hex.EncodeToString(sum[:]) {
		return false
	}
	var val any
	var wantKey string
	switch {
	case strings.HasPrefix(c.Key, "spec|"):
		machine, results, err := persist.UnmarshalSpec(c.Body)
		if err != nil {
			return false
		}
		val, wantKey = results, fmt.Sprintf("spec|%q", machine)
	case strings.HasPrefix(c.Key, "imb|"):
		t, err := persist.UnmarshalIMB(c.Body)
		if err != nil {
			return false
		}
		val, wantKey = t, fmt.Sprintf("imb|%q|%d", t.Machine, t.Ranks)
	default:
		return false
	}
	if c.Key != wantKey {
		return false
	}
	s.chars.putIfAbsent(c.Key, val)
	return true
}

// putIfAbsent publishes a value directly into the layer (the snapshot
// import path — there is no fill to run). An existing entry wins: live
// data is never overwritten by a spill.
func (l *layer) putIfAbsent(key string, val any) {
	l.mu.Lock()
	if _, ok := l.entries[key]; ok {
		l.mu.Unlock()
		return
	}
	l.entries[key] = l.ll.PushFront(&layerEntry{key: key, val: val})
	for l.ll.Len() > l.max {
		oldest := l.ll.Back()
		l.ll.Remove(oldest)
		delete(l.entries, oldest.Value.(*layerEntry).key)
	}
	size := l.ll.Len()
	l.mu.Unlock()
	l.obs.Gauge(l.name+"_size", float64(size))
}

package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/obs"
)

// vaultCounter reads one obs counter, defaulting to 0.
func vaultCounter(scope *obs.Scope, name string) int64 {
	v, _ := scope.Metrics().Counter(name)
	return v
}

// TestArtifactVaultDupPushIsNoOp is the replication-idempotency contract: a
// re-push of resident bytes changes nothing — not the vault size, not the
// store counter, and not the LRU order (a dup must not refresh an entry's
// recency, or retried pushes would distort eviction).
func TestArtifactVaultDupPushIsNoOp(t *testing.T) {
	scope := obs.New("test")
	s := NewStore(StoreConfig{ArtifactCap: 2, Obs: scope})
	body := []byte(`{"result":1}` + "\n")

	if !s.PutArtifact("a", body) {
		t.Fatal("first put reported no change")
	}
	if s.PutArtifact("a", body) {
		t.Error("duplicate put reported a change")
	}
	if n := s.ArtifactCount(); n != 1 {
		t.Errorf("vault holds %d entries after a dup push, want 1", n)
	}
	if n := vaultCounter(scope, "core.store.artifact_stores"); n != 1 {
		t.Errorf("artifact_stores = %d, want 1", n)
	}
	if n := vaultCounter(scope, "core.store.artifact_dups"); n != 1 {
		t.Errorf("artifact_dups = %d, want 1", n)
	}

	// LRU order: after put(a), put(b), a is oldest. A dup push of a must NOT
	// move it to the front, so the next insertion beyond cap still evicts a.
	s.PutArtifact("b", []byte("bb"))
	s.PutArtifact("a", body) // dup — no recency refresh
	s.PutArtifact("c", []byte("cc"))
	if _, ok := s.GetArtifact("a"); ok {
		t.Error("dup push refreshed LRU recency: oldest entry survived eviction")
	}
	for _, key := range []string{"b", "c"} {
		if _, ok := s.GetArtifact(key); !ok {
			t.Errorf("entry %q missing after eviction round", key)
		}
	}
}

// TestArtifactVaultConflictOverwrites covers the same-key-different-bytes
// case (possible only across incompatible builds): the newer bytes win and
// the event is counted distinctly from stores and dups.
func TestArtifactVaultConflictOverwrites(t *testing.T) {
	scope := obs.New("test")
	s := NewStore(StoreConfig{Obs: scope})
	s.PutArtifact("k", []byte("old"))
	if !s.PutArtifact("k", []byte("new")) {
		t.Fatal("conflicting put reported no change")
	}
	got, ok := s.GetArtifact("k")
	if !ok || !bytes.Equal(got, []byte("new")) {
		t.Errorf("GetArtifact after conflict = %q, %t; want \"new\", true", got, ok)
	}
	if n := s.ArtifactCount(); n != 1 {
		t.Errorf("vault holds %d entries, want 1", n)
	}
	if n := vaultCounter(scope, "core.store.artifact_conflicts"); n != 1 {
		t.Errorf("artifact_conflicts = %d, want 1", n)
	}
}

// TestArtifactImportChecksumReject proves a corrupted transfer cannot land:
// the mismatch is an error, counted, and the vault stays empty. An empty
// sum skips verification (trusted local transfers).
func TestArtifactImportChecksumReject(t *testing.T) {
	scope := obs.New("test")
	s := NewStore(StoreConfig{Obs: scope})
	bad := Artifact{Key: "k", Sum: hex.EncodeToString(make([]byte, sha256.Size)), Body: []byte("payload")}
	stored, err := s.ImportArtifact(bad)
	if err == nil || stored {
		t.Fatalf("corrupted import: stored=%t err=%v, want rejection", stored, err)
	}
	if n := s.ArtifactCount(); n != 0 {
		t.Errorf("vault holds %d entries after a rejected import, want 0", n)
	}
	if n := vaultCounter(scope, "core.store.artifact_rejects"); n != 1 {
		t.Errorf("artifact_rejects = %d, want 1", n)
	}
	if stored, err := s.ImportArtifact(Artifact{Key: "k", Body: []byte("payload")}); err != nil || !stored {
		t.Errorf("unchecked import: stored=%t err=%v, want acceptance", stored, err)
	}
}

// TestArtifactNilStore pins the nil-safety contract: a server running with
// the layered cache disabled has no store, and every vault accessor must
// degrade to "absent" rather than panic.
func TestArtifactNilStore(t *testing.T) {
	var s *Store
	if s.PutArtifact("k", []byte("x")) {
		t.Error("nil store accepted a put")
	}
	if _, ok := s.GetArtifact("k"); ok {
		t.Error("nil store returned an artifact")
	}
	if stored, err := s.ImportArtifact(Artifact{Key: "k", Body: []byte("x")}); stored || err != nil {
		t.Errorf("nil store import: stored=%t err=%v", stored, err)
	}
	if n := s.ArtifactCount(); n != 0 {
		t.Errorf("nil store counts %d artifacts", n)
	}
}

package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// TestChaosWALWriteError: a write the kernel refuses fails the append. A
// read-only handle in place of the segment's makes it so, and also makes
// cutting the segment back fail, so the log cannot know where its end is:
// it must refuse every later append rather than acknowledge one, even
// with its own handle back. Reopened, it holds what was acknowledged and
// takes appends again.
func TestChaosWALWriteError(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, []byte("before"))
	ro, err := os.Open(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	own := w.f
	w.f = ro
	if err := w.Append([]byte("lost")); err == nil {
		t.Fatal("a write on a read-only handle reported success")
	}
	w.f = own
	ro.Close()
	if err := w.Append([]byte("refused")); err == nil {
		t.Fatal("an append after an uncut failed write was acknowledged")
	}
	w.Close()
	sc := obs.New("wal")
	got, w2 := replayAll(t, dir, Options{Obs: sc})
	defer w2.Close()
	if len(got) != 1 || !bytes.Equal(got[0], []byte("before")) {
		t.Fatalf("replay = %q, want [before]", got)
	}
	if tr, c := walCount(sc, "truncated"), walCount(sc, "corrupt"); tr != 0 || c != 0 {
		t.Errorf("the failed write left damage behind: %d truncated, %d corrupt", tr, c)
	}
	appendAll(t, w2, []byte("after"))
}

// TestChaosWALSyncFailure: a failed fsync surfaces through Append instead
// of being swallowed. The write end of a pipe takes the write and rejects
// the fsync (EINVAL).
func TestChaosWALSyncFailure(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	own := w.f
	w.f = pw
	err = w.Append([]byte("x"))
	w.f = own
	pw.Close()
	if err == nil {
		t.Fatal("sync failure did not surface through Append")
	}
}

// TestChaosWALReplayError: a replay whose read fails returns the error and
// delivers nothing, and the log is untouched — the next replay delivers
// every record. A directory in the segment's place fails the read
// (EISDIR), whatever the process's privileges.
func TestChaosWALReplayError(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendAll(t, w, []byte("a"), []byte("b"))
	seg := filepath.Join(dir, segName(1))
	if err := os.Rename(seg, seg+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(seg, 0o755); err != nil {
		t.Fatal(err)
	}
	var got []string
	collect := func(rec []byte) error { got = append(got, string(rec)); return nil }
	err = w.Replay(collect)
	if err := os.Remove(seg); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(seg+".aside", seg); err != nil {
		t.Fatal(err)
	}
	if err == nil || len(got) != 0 {
		t.Fatalf("failed replay: err %v, delivered %q; want an error and nothing", err, got)
	}
	if err := w.Replay(collect); err != nil || len(got) != 2 {
		t.Fatalf("replay after the failure: err %v, delivered %q; want both records", err, got)
	}
}

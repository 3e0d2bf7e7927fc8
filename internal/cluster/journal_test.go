package cluster

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
)

func openTestJournal(t *testing.T, dir string, scope *obs.Scope) *Journal {
	t.Helper()
	jl, err := OpenJournal(dir, durable.Options{Obs: scope})
	if err != nil {
		t.Fatal(err)
	}
	return jl
}

// TestJournalRecoverPendingJobs is the restart contract: replay returns
// exactly the jobs that were submitted but never finished, in submission
// order, each with its submission material.
func TestJournalRecoverPendingJobs(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir, nil)
	jl.RecordSubmit(JobSpec{ID: "job-1", Op: "project", Payload: []byte(`{"a":1}`)})
	jl.RecordSubmit(JobSpec{ID: "job-2", Op: "validate"})
	jl.RecordSubmit(JobSpec{ID: "job-3", Op: "project"})
	jl.RecordDone("job-9", JobDone) // unknown job: ignored
	jl.RecordDone("job-2", JobDone)
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	jl2 := openTestJournal(t, dir, nil)
	defer jl2.Close()
	pending, err := jl2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 2 || pending[0].ID != "job-1" || pending[1].ID != "job-3" {
		t.Fatalf("pending = %+v, want job-1 then job-3", pending)
	}
	j1 := pending[0]
	if j1.Op != "project" || string(j1.Payload) != `{"a":1}` {
		t.Errorf("job-1 submission material lost: %+v", j1)
	}
	// Replay is idempotent: a second recovery sees the same pending set.
	again, err := jl2.Recover()
	if err != nil || len(again) != 2 {
		t.Fatalf("second Recover = %d pending, %v; want the same 2", len(again), err)
	}
}

// TestJournalRecoverAfterTornTail: a crash mid-append must cost at most the
// torn record — the pending set reflects every intact record before it.
func TestJournalRecoverAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	scope := obs.New("test")
	jl := openTestJournal(t, dir, scope)
	jl.RecordSubmit(JobSpec{ID: "job-1", Op: "project"})
	jl.RecordDone("job-1", JobDone)
	jl.RecordSubmit(JobSpec{ID: "job-2", Op: "project"})
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	// Sever the log mid-way through the last record.
	seg := filepath.Join(dir, "wal-00000001.seg")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	jl2 := openTestJournal(t, dir, scope)
	defer jl2.Close()
	pending, err := jl2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Errorf("pending = %+v, want none (the torn record was the only live submit)", pending)
	}
	if st := jl2.Stats(); st.Truncated != 1 {
		t.Errorf("wal truncations = %d, want 1", st.Truncated)
	}
}

// TestJournalCompact folds history down to the pending submits so replay
// time stays bounded.
func TestJournalCompact(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir, nil)
	for i := 0; i < 6; i++ {
		id := "job-" + string(rune('1'+i))
		jl.RecordSubmit(JobSpec{ID: id, Op: "project"})
		jl.RecordDone(id, JobDone)
	}
	jl.RecordSubmit(JobSpec{ID: "job-live", Op: "project"})
	pending, err := jl.Recover()
	if err != nil || len(pending) != 1 {
		t.Fatalf("Recover = %+v, %v", pending, err)
	}
	if err := jl.Compact(pending); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	jl2 := openTestJournal(t, dir, nil)
	defer jl2.Close()
	after, err := jl2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 || after[0].ID != "job-live" {
		t.Fatalf("post-compact pending = %+v", after)
	}
	if st := jl2.Stats(); st.Replayed != 1 {
		t.Errorf("compacted log replayed %d records, want exactly the 1 pending submit", st.Replayed)
	}
}

// TestJournalNilSafety: a nil journal (durability off) is a no-op sink.
func TestJournalNilSafety(t *testing.T) {
	var jl *Journal
	jl.RecordSubmit(JobSpec{ID: "job-1"})
	jl.RecordDone("job-1", JobDone)
	if pending, err := jl.Recover(); err != nil || pending != nil {
		t.Errorf("nil Recover = %+v, %v", pending, err)
	}
	if err := jl.Compact(nil); err != nil {
		t.Errorf("nil Compact: %v", err)
	}
	if err := jl.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

// legacyJournal copies the committed PR-12-format journal — written by the
// last release that journalled per-generation search state: a finished job,
// then an adopted job whose submit carries resume material followed by four
// search-state records and no terminal record, then one search-state record
// for an ID never submitted — into a scratch directory.
func legacyJournal(t testing.TB) string {
	t.Helper()
	const seg = "wal-00000001.seg"
	body, err := os.ReadFile(filepath.Join("testdata", "journal-pr12", seg))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, seg), body, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestJournalRecoversLegacyFormat: a journal written before recovery became
// "resubmit the payload" still recovers exactly its one unfinished job —
// same ID, same payload, the extra fields and record types ignored — and
// that job resubmits under its ID and compacts to a single record.
func TestJournalRecoversLegacyFormat(t *testing.T) {
	dir := legacyJournal(t)
	jl := openTestJournal(t, dir, nil)
	if st := jl.Stats(); st.Truncated != 0 || st.Corrupt != 0 {
		t.Fatalf("fixture did not open clean: %+v", st)
	}
	pending, err := jl.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n := jl.Stats().Replayed; n != 8 {
		t.Fatalf("fixture replayed %d records, want its 8", n)
	}
	const payload = `{"op":"project","request":{"bench":"LU-MZ","class":"C","ranks":16,"base":"hydra","target":"power6-575"}}`
	if len(pending) != 1 {
		t.Fatalf("pending = %+v, want exactly job-7", pending)
	}
	got := pending[0]
	if got.ID != "job-7" || got.Op != "project" || string(got.Payload) != payload {
		t.Fatalf("recovered spec = %+v (payload %s)", got, got.Payload)
	}
	if err := jl.Compact(pending); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	jl2 := openTestJournal(t, dir, nil)
	defer jl2.Close()
	again, err := jl2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n := jl2.Stats().Replayed; n != 1 || len(again) != 1 || again[0].ID != "job-7" || !bytes.Equal(again[0].Payload, got.Payload) {
		t.Fatalf("compacted journal replayed %d records → %+v, want job-7 alone", n, again)
	}
	m := NewManager(ManagerConfig{Journal: jl2})
	j, err := m.SubmitJob(again[0], func(ctx context.Context, tap Tap) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "job-7" {
		t.Errorf("resubmitted as %q, want the original job-7", j.ID)
	}
	waitDone(t, j)
	if left, err := jl2.Recover(); err != nil || len(left) != 0 {
		t.Errorf("after the resubmitted job finished: pending %+v, %v", left, err)
	}
}

// FuzzJournalRecover appends arbitrary record bodies to a valid WAL and
// recovers it: hostile bodies never panic or fail the replay, and every
// recovered spec has an ID. The seeds are the legacy fixture's own records.
func FuzzJournalRecover(f *testing.F) {
	seedLog, err := durable.Open(legacyJournal(f), durable.Options{})
	if err != nil {
		f.Fatal(err)
	}
	var prev []byte
	if err := seedLog.Replay(func(rec []byte) error {
		f.Add(prev, append([]byte(nil), rec...))
		prev = append([]byte(nil), rec...)
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	seedLog.Close()
	f.Add([]byte(`{"type":"submit","id":""}`), []byte(`{"type":"done"}`))
	f.Add([]byte(`{"type":"submit","id":"a","payload":"!!"}`), []byte(`[1,2]`))
	f.Add([]byte(`{"type":7,"id":{}}`), []byte{0xff, 0x00})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		// No fsync per record: the fuzzer is after the decoder, not the disk.
		open := func(dir string) *Journal {
			jl, err := OpenJournal(dir, durable.Options{SyncEvery: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			return jl
		}
		dir := t.TempDir()
		crashed := open(dir)
		for _, body := range [][]byte{a, b, a} {
			if err := crashed.wal.Append(body); err != nil {
				t.Skip(err) // an over-long record is the WAL's to reject
			}
		}
		if err := crashed.Close(); err != nil {
			t.Fatal(err)
		}
		jl := open(dir)
		defer jl.Close()
		pending, err := jl.Recover()
		if err != nil {
			t.Fatalf("Recover on arbitrary bodies: %v", err)
		}
		for _, spec := range pending {
			if spec.ID == "" {
				t.Fatalf("recovered a spec without an ID: %+v", spec)
			}
		}
		if err := jl.Compact(pending); err != nil {
			t.Fatalf("Compact of the recovered set: %v", err)
		}
	})
}

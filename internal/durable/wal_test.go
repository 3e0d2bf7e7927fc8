package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

// appendAll writes records.
func appendAll(t *testing.T, w *WAL, recs ...[]byte) {
	t.Helper()
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
}

// walCount reads the counter durable.wal_<name> from the scope a WAL was
// opened with (0 if it never counted).
func walCount(sc *obs.Scope, name string) int64 {
	v, _ := sc.Metrics().Counter("durable.wal_" + name)
	return v
}

// replayAll reopens the log at dir and returns every replayed record.
func replayAll(t *testing.T, dir string, opts Options) ([][]byte, *WAL) {
	t.Helper()
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var got [][]byte
	if err := w.Replay(func(rec []byte) error {
		got = append(got, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, w
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sc := obs.New("wal")
	w, err := Open(dir, Options{Obs: sc})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("one"), []byte(`{"type":"submit","id":"job-1"}`), bytes.Repeat([]byte{0}, 1000)}
	appendAll(t, w, want...)
	if got := walCount(sc, "records"); got != 3 {
		t.Errorf("durable.wal_records = %d, want 3", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sc2 := obs.New("wal")
	got, w2 := replayAll(t, dir, Options{Obs: sc2})
	defer w2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if r, tr, c := walCount(sc2, "replayed"), walCount(sc2, "truncated"), walCount(sc2, "corrupt"); r != 3 || tr != 0 || c != 0 {
		t.Errorf("replayed, truncated, corrupt = %d, %d, %d; want 3 replayed and a clean log", r, tr, c)
	}
}

func TestWALRejectsEmptyAndOversized(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(nil); err == nil {
		t.Error("empty record accepted")
	}
	if err := w.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Error("oversized record accepted")
	}
}

// TestWALTornTail is the table-driven crash-shape suite: a log cut off
// mid-length, mid-CRC, or mid-body must reopen with exactly the records
// before the tear and one truncation event — never an error, never a
// partial record.
func TestWALTornTail(t *testing.T) {
	// cut is where the third record's frame is severed, as an offset into
	// its own frame (header is 8 bytes).
	cases := []struct {
		name string
		cut  int64
	}{
		{"mid-length", 2},   // inside the length field
		{"mid-crc", 6},      // inside the checksum field
		{"mid-body", 8 + 1}, // one body byte made it to disk
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
			appendAll(t, w, recs...)
			w.Close()
			// Sever the third frame at the case's offset. Frames are
			// 8+5 bytes each here.
			seg := filepath.Join(dir, segName(1))
			frame3 := int64(2 * (frameHeader + 5))
			if err := os.Truncate(seg, frame3+tc.cut); err != nil {
				t.Fatal(err)
			}
			sc := obs.New("wal")
			got, w2 := replayAll(t, dir, Options{Obs: sc})
			defer w2.Close()
			if len(got) != 2 {
				t.Fatalf("replayed %d records, want 2", len(got))
			}
			if !bytes.Equal(got[0], recs[0]) || !bytes.Equal(got[1], recs[1]) {
				t.Errorf("surviving records %q, want %q", got, recs[:2])
			}
			if n := walCount(sc, "truncated"); n != 1 {
				t.Errorf("durable.wal_truncated = %d, want 1", n)
			}
			if n := walCount(sc, "corrupt"); n != 0 {
				t.Errorf("durable.wal_corrupt = %d, want 0 (a short frame is a tear, not a checksum failure)", n)
			}
			// The log must accept fresh appends after the cut, and the
			// next replay must see old survivors then the new record.
			appendAll(t, w2, []byte("delta"))
			w2.Close()
			got2, w3 := replayAll(t, dir, Options{})
			defer w3.Close()
			if len(got2) != 3 || !bytes.Equal(got2[2], []byte("delta")) {
				t.Fatalf("post-recovery log replayed %q", got2)
			}
		})
	}
}

// TestWALBitFlip: a flipped body bit is caught by CRC32C, rejected, and
// the log is truncated at the damaged frame.
func TestWALBitFlip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, []byte("alpha"), []byte("beta"), []byte("gamma"))
	w.Close()
	seg := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	raw[frameHeader+5+frameHeader+2] ^= 0x10 // a bit inside "beta"
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sc := obs.New("wal")
	got, w2 := replayAll(t, dir, Options{Obs: sc})
	defer w2.Close()
	if len(got) != 1 || !bytes.Equal(got[0], []byte("alpha")) {
		t.Fatalf("replayed %q, want only alpha", got)
	}
	if c, tr := walCount(sc, "corrupt"), walCount(sc, "truncated"); c != 1 || tr != 1 {
		t.Errorf("corrupt, truncated = %d, %d; want 1 corrupt + 1 truncated", c, tr)
	}
}

// TestWALZeroFilledTail: a preallocated-then-crashed tail of zero bytes
// must not replay as an endless stream of empty records.
func TestWALZeroFilledTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, []byte("alpha"))
	w.Close()
	seg := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sc := obs.New("wal")
	got, w2 := replayAll(t, dir, Options{Obs: sc})
	defer w2.Close()
	if len(got) != 1 {
		t.Fatalf("replayed %d records, want 1", len(got))
	}
	if n := walCount(sc, "truncated"); n != 1 {
		t.Errorf("truncated = %d, want 1", n)
	}
}

// writeSegment writes recs, framed, as segment i of the log in dir — the
// later segments a build that rotated its log left behind.
func writeSegment(t *testing.T, dir string, i int, recs ...[]byte) {
	t.Helper()
	var buf []byte
	for _, rec := range recs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(rec, castagnoli))
		buf = append(buf, rec...)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(i)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWALRotationAndLaterSegmentsDropped: a log of several segments, as a
// rotating build left it, replays across them in order and appends to the
// newest, and a tear in an early segment discards every later segment
// (the chain is broken).
func TestWALRotationAndLaterSegmentsDropped(t *testing.T) {
	dir := t.TempDir()
	var want [][]byte
	for seg := 1; seg <= 4; seg++ {
		var recs [][]byte
		for i := 0; i < 3; i++ {
			recs = append(recs, []byte(fmt.Sprintf("segment-%d-record-%d", seg, i)))
		}
		writeSegment(t, dir, seg, recs...)
		want = append(want, recs...)
	}
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, []byte("appended"))
	want = append(want, []byte("appended"))
	w.Close()
	got, w2 := replayAll(t, dir, Options{})
	if len(got) != len(want) {
		t.Fatalf("replayed %d records across segments, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	w2.Close()

	// Damage the second segment's first frame: everything from that
	// frame on — including segments 3 and 4 — is unreachable.
	raw, err := os.ReadFile(filepath.Join(dir, segName(2)))
	if err != nil {
		t.Fatal(err)
	}
	raw[frameHeader+2] ^= 0x01
	if err := os.WriteFile(filepath.Join(dir, segName(2)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got2, w3 := replayAll(t, dir, Options{})
	defer w3.Close()
	if len(got2) != 3 {
		t.Fatalf("replayed %d records after mid-chain damage, want 3 (first segment only)", len(got2))
	}
	after, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 2 {
		t.Fatalf("later segments not dropped: %v", after)
	}
}

func TestWALCompact(t *testing.T) {
	dir := t.TempDir()
	for seg := 1; seg <= 3; seg++ {
		writeSegment(t, dir, seg, []byte(fmt.Sprintf("old-record-%d", seg)))
	}
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, []byte("old-appended"))
	keep := [][]byte{[]byte("kept-1"), []byte("kept-2")}
	if err := w.Compact(keep); err != nil {
		t.Fatal(err)
	}
	// Post-compact appends land after the kept records.
	appendAll(t, w, []byte("new-after-compact"))
	w.Close()
	got, w2 := replayAll(t, dir, Options{})
	defer w2.Close()
	if len(got) != 3 || !bytes.Equal(got[0], keep[0]) || !bytes.Equal(got[1], keep[1]) || !bytes.Equal(got[2], []byte("new-after-compact")) {
		t.Fatalf("post-compact replay = %q", got)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Errorf("compact left %v segments, want exactly one", segs)
	}
}

// TestWALSyncBatching: with a long SyncEvery, appends don't fsync each
// time (observable only as "no error" here — the contract test is that
// Close still forces the flush and nothing is lost).
func TestWALSyncBatching(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SyncEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil { // Close must flush the batch
		t.Fatal(err)
	}
	got, w2 := replayAll(t, dir, Options{})
	defer w2.Close()
	if len(got) != 5 {
		t.Fatalf("replayed %d records, want 5", len(got))
	}
}

func TestWALClosedAppendFails(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := w.Append([]byte("x")); err == nil {
		t.Error("append after Close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

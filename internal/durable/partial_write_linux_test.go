package durable

import (
	"bytes"
	"errors"
	"os/signal"
	"syscall"
	"testing"

	"repro/internal/obs"
)

// TestChaosWALPartialWrite: a write the kernel takes only part of must
// not hide the records acknowledged after it. A file-size limit some
// bytes past the first record makes the kernel write a prefix of the
// next frame and then fail it (EFBIG; SIGXFSZ ignored). With the limit
// lifted, the next append is acknowledged — and the reopened log must
// replay it. Left in place, the torn prefix would end the scan there.
//
// The limit and the signal disposition are the process's, so this test
// must not run in parallel with others that write files.
func TestChaosWALPartialWrite(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, []byte("before"))

	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	signal.Ignore(syscall.SIGXFSZ)
	defer signal.Reset(syscall.SIGXFSZ)
	restore := func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
			t.Fatalf("restore RLIMIT_FSIZE: %v", err)
		}
	}
	defer restore()
	short := lim
	// Room for "before" and for 3 bytes more of the failing frame than the
	// whole frame of "after": writing "after" over a torn prefix that was
	// never cut would leave 3 of its bytes behind.
	short.Cur = uint64(frameHeader+len("before")) + uint64(frameHeader+len("after")) + 3
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &short); err != nil {
		t.Fatal(err)
	}
	err = w.Append([]byte("torn-record"))
	restore()
	if !errors.Is(err, syscall.EFBIG) {
		t.Fatalf("append past the file-size limit: err %v, want EFBIG", err)
	}
	appendAll(t, w, []byte("after"))
	w.Close()

	sc := obs.New("wal")
	got, w2 := replayAll(t, dir, Options{Obs: sc})
	defer w2.Close()
	if len(got) != 2 || !bytes.Equal(got[0], []byte("before")) || !bytes.Equal(got[1], []byte("after")) {
		t.Fatalf("replay = %q, want [before after]: a torn write hid a later acknowledged record", got)
	}
	if n := walCount(sc, "truncated"); n != 0 {
		t.Errorf("truncated = %d, want 0: the failed append left its torn bytes in the log", n)
	}
}

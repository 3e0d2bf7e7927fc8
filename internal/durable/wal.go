// Package durable is swappd's crash-durability layer: a CRC32C-framed,
// segment-rotated, append-only write-ahead log. Its one user is the job
// journal (internal/cluster); benchmark characterisation is persisted
// separately, one file per table (internal/core).
//
// Frame format, little-endian:
//
//	[len uint32][crc uint32][body ...len bytes]
//
// where crc is CRC32C (Castagnoli) over the body. Records are opaque
// bytes to this package. A log is a directory of segment files
// (wal-00000001.seg, wal-00000002.seg, …) appended in order and rotated
// at a size threshold, so compaction and replay never hold more than the
// frame under the cursor in memory.
//
// Torn-tail semantics: Open scans every segment front to back and
// truncates the log at the FIRST bad frame — a short header, a short
// body, a checksum mismatch, an implausible length — discarding that
// frame and everything after it (including later segments, which are
// unreachable once the chain is broken). That is exactly the state a
// kill -9 mid-write leaves behind: the valid prefix is the durable
// truth, the tail never happened. Replay after Open therefore sees only
// verified records.
//
// Durability knobs: SyncEvery batches fsyncs (0 means fsync every
// append); rotation always syncs the finished segment. The package is
// fault-injectable at "durable.wal.append", "durable.wal.sync", and
// "durable.wal.replay" — including the I/O-shaped modes (shortwrite,
// enospc, corrupt) — so chaos tests can prove recovery under partial
// writes, full disks, and bit flips.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

const (
	// frameHeader is the fixed per-record overhead: length + CRC32C.
	frameHeader = 8
	// MaxRecordBytes bounds a single record. A length field above this is
	// treated as corruption, not an allocation request — replay of
	// hostile or damaged bytes must never OOM.
	MaxRecordBytes = 16 << 20
	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// it zero.
	DefaultSegmentBytes = 4 << 20

	segPrefix = "wal-"
	segSuffix = ".seg"
)

// castagnoli is the CRC32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options configures a WAL.
type Options struct {
	// SyncEvery batches fsyncs: an append syncs only if that much time
	// has passed since the last sync. 0 — the default — syncs every
	// append (maximum durability, the safe default).
	SyncEvery time.Duration
	// SegmentBytes rotates to a fresh segment once the current one
	// reaches this size. 0 means DefaultSegmentBytes.
	SegmentBytes int64
	// Obs, when non-nil, receives the recovery counters
	// (durable.wal_records, _replayed, _truncated, _corrupt).
	Obs *obs.Scope
}

// Stats are the WAL's lifetime counters, mirrored to Options.Obs under
// durable.wal_*.
type Stats struct {
	// Records appended (and fully written) by this process.
	Records int64
	// Replayed records delivered to Replay callbacks.
	Replayed int64
	// Truncated torn-tail events: Open cut the log at a bad frame.
	Truncated int64
	// Corrupt frames rejected on a checksum mismatch (a subset of the
	// damage Truncated covers; short frames count only as truncation).
	Corrupt int64
}

// WAL is an append-only segmented log. All methods are safe for
// concurrent use.
type WAL struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File // current append segment
	seg      int      // its index
	size     int64    // its current size
	segments []int    // all live segment indices, ascending
	lastSync time.Time
	dirty    bool // unsynced appends pending
	closed   bool

	records   atomic.Int64
	replayed  atomic.Int64
	truncated atomic.Int64
	corrupt   atomic.Int64
}

// segName formats a segment file name.
func segName(i int) string { return fmt.Sprintf("%s%08d%s", segPrefix, i, segSuffix) }

// Open opens (or creates) the log in dir, scans every segment, truncates
// the torn tail if one is found, and positions the log for appending.
func Open(dir string, opts Options) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: create wal dir: %w", err)
	}
	w := &WAL{dir: dir, opts: opts}
	if err := w.scan(); err != nil {
		return nil, err
	}
	// Append into the newest segment (creating the first if the log is
	// empty).
	if len(w.segments) == 0 {
		w.segments = []int{1}
	}
	w.seg = w.segments[len(w.segments)-1]
	f, err := os.OpenFile(filepath.Join(dir, segName(w.seg)), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: open segment: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: seek segment: %w", err)
	}
	w.f, w.size, w.lastSync = f, size, time.Now()
	return w, nil
}

// listSegments returns the live segment indices in dir, ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: read wal dir: %w", err)
	}
	var segs []int
	for _, e := range entries {
		name := e.Name()
		var i int
		if n, err := fmt.Sscanf(name, segPrefix+"%d"+segSuffix, &i); n == 1 && err == nil && name == segName(i) {
			segs = append(segs, i)
		}
	}
	sort.Ints(segs)
	return segs, nil
}

// scan validates every segment front to back and truncates at the first
// bad frame, deleting any later segments (unreachable once the chain
// breaks).
func (w *WAL) scan() error {
	segs, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	for si, seg := range segs {
		valid, reason, err := w.readFrames(filepath.Join(w.dir, segName(seg)), nil)
		if err != nil {
			return err
		}
		if reason == "" {
			continue
		}
		// Torn tail: cut this segment back to its valid prefix and drop
		// everything after it.
		if err := os.Truncate(filepath.Join(w.dir, segName(seg)), valid); err != nil {
			return fmt.Errorf("durable: truncate torn segment %d: %w", seg, err)
		}
		for _, later := range segs[si+1:] {
			if err := os.Remove(filepath.Join(w.dir, segName(later))); err != nil && !errors.Is(err, os.ErrNotExist) {
				return fmt.Errorf("durable: drop unreachable segment %d: %w", later, err)
			}
		}
		segs = segs[:si+1]
		w.truncated.Add(1)
		w.opts.Obs.Count("durable.wal_truncated", 1)
		break
	}
	w.segments = segs
	return nil
}

// readFrames is the one frame reader: it walks one segment file front to
// back, verifying each frame (length bounds, full body, CRC32C) and handing
// its body to fn (nil: verify only). valid is the byte offset of the
// verified prefix; reason is "" when the file ends cleanly on a frame
// boundary, otherwise a short description of the first bad frame (a
// checksum mismatch is counted as corruption here). fn's slice is only
// valid for the duration of the call; an error from fn, or an I/O error
// other than running out of file, stops the walk and is returned.
func (w *WAL) readFrames(path string, fn func(rec []byte) error) (valid int64, reason string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, "", fmt.Errorf("durable: open segment: %w", err)
	}
	defer f.Close()
	var hdr [frameHeader]byte
	var body []byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return valid, "", nil // clean end
			}
			if errors.Is(err, io.ErrUnexpectedEOF) {
				return valid, "short header", nil
			}
			return valid, "", fmt.Errorf("durable: read segment: %w", err)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if length == 0 || length > MaxRecordBytes {
			// A zero length would loop forever on zero-filled tails; an
			// implausible one is damage, not an allocation request.
			return valid, "implausible length", nil
		}
		if int(length) > cap(body) {
			body = make([]byte, length)
		}
		body = body[:length]
		if _, err := io.ReadFull(f, body); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return valid, "short body", nil
			}
			return valid, "", fmt.Errorf("durable: read segment: %w", err)
		}
		if fault := faultinject.FireIO("durable.wal.replay"); fault != nil && fault.Mode == faultinject.ModeCorrupt {
			body[int(length)/2] ^= 1
		}
		if crc32.Checksum(body, castagnoli) != want {
			w.corrupt.Add(1)
			w.opts.Obs.Count("durable.wal_corrupt", 1)
			return valid, "checksum mismatch", nil
		}
		if fn != nil {
			if err := fn(body); err != nil {
				return valid, "", err
			}
		}
		valid += frameHeader + int64(length)
	}
}

// Replay streams every record (in append order, across segments) to fn.
// It must only be called on a freshly Opened log, before new appends are
// interleaved with the replay read. fn's slice is only valid for the
// duration of the call. Open's scan already cut the log at its first bad
// frame; one that appears since (or is injected) ends the replay there —
// the chain is broken — without an error.
func (w *WAL) Replay(fn func(rec []byte) error) error {
	w.mu.Lock()
	segs := append([]int(nil), w.segments...)
	w.mu.Unlock()
	if err := faultinject.Fire("durable.wal.replay"); err != nil {
		return err
	}
	deliver := func(rec []byte) error {
		w.replayed.Add(1)
		w.opts.Obs.Count("durable.wal_replayed", 1)
		return fn(rec)
	}
	for _, seg := range segs {
		_, reason, err := w.readFrames(filepath.Join(w.dir, segName(seg)), deliver)
		if err != nil || reason != "" {
			return err
		}
	}
	return nil
}

// Append frames and writes one record, honouring the sync policy. The
// record must be non-empty (zero-length frames are indistinguishable
// from a zero-filled torn tail).
func (w *WAL) Append(rec []byte) error {
	if len(rec) == 0 {
		return errors.New("durable: empty record")
	}
	if len(rec) > MaxRecordBytes {
		return fmt.Errorf("durable: record of %d bytes exceeds MaxRecordBytes", len(rec))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("durable: wal is closed")
	}
	if err := faultinject.Fire("durable.wal.append"); err != nil {
		return err
	}
	frame := make([]byte, frameHeader+len(rec))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(rec)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(rec, castagnoli))
	copy(frame[frameHeader:], rec)
	if fault := faultinject.FireIO("durable.wal.append"); fault != nil {
		switch fault.Mode {
		case faultinject.ModeENOSPC:
			return fmt.Errorf("durable: append: %w", fault)
		case faultinject.ModeShortWrite:
			// The crash shape: a prefix of the frame reaches the disk,
			// then the write fails. The torn tail stays in the file for
			// the next Open to truncate.
			n := fault.N
			if n > len(frame) {
				n = len(frame)
			}
			if n > 0 {
				if _, err := w.f.Write(frame[:n]); err != nil {
					return fmt.Errorf("durable: append: %w", err)
				}
				w.size += int64(n)
			}
			return fmt.Errorf("durable: append: %w", fault)
		case faultinject.ModeCorrupt:
			// Silent media corruption: the write "succeeds", one bit
			// lies. Flip inside the body so the checksum catches it.
			frame[frameHeader+len(rec)/2] ^= 1
		}
	}
	if _, err := w.f.Write(frame); err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	w.size += int64(len(frame))
	w.dirty = true
	w.records.Add(1)
	w.opts.Obs.Count("durable.wal_records", 1)
	if w.size >= w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	if w.opts.SyncEvery <= 0 || time.Since(w.lastSync) >= w.opts.SyncEvery {
		return w.syncLocked()
	}
	return nil
}

// Sync flushes pending appends to stable storage.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("durable: wal is closed")
	}
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if !w.dirty {
		return nil
	}
	if err := faultinject.Fire("durable.wal.sync"); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: sync: %w", err)
	}
	w.dirty = false
	w.lastSync = time.Now()
	return nil
}

// rotateLocked seals the current segment (fsync + close) and starts the
// next one.
func (w *WAL) rotateLocked() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durable: rotate sync: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("durable: rotate close: %w", err)
	}
	w.dirty = false
	w.seg++
	f, err := os.OpenFile(filepath.Join(w.dir, segName(w.seg)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: rotate open: %w", err)
	}
	w.f, w.size = f, 0
	w.segments = append(w.segments, w.seg)
	syncDir(w.dir)
	return nil
}

// Compact atomically replaces the whole log with the given records: they
// are written to a fresh segment (tmp file, fsync, rename), and only
// then are the old segments deleted. A crash at any point leaves either
// the old log or the new one — never neither.
func (w *WAL) Compact(records [][]byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("durable: wal is closed")
	}
	newSeg := w.seg + 1
	path := filepath.Join(w.dir, segName(newSeg))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: compact: %w", err)
	}
	var size int64
	for _, rec := range records {
		if len(rec) == 0 || len(rec) > MaxRecordBytes {
			f.Close()
			os.Remove(tmp)
			return errors.New("durable: compact: record size out of range")
		}
		var hdr [frameHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(rec, castagnoli))
		if _, err := f.Write(hdr[:]); err == nil {
			_, err = f.Write(rec)
		}
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("durable: compact: %w", err)
		}
		size += frameHeader + int64(len(rec))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("durable: compact sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: compact close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: compact rename: %w", err)
	}
	syncDir(w.dir)
	// The new segment is durable; the old ones are now garbage.
	old := w.segments
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("durable: compact: close old segment: %w", err)
	}
	for _, seg := range old {
		if seg == newSeg {
			continue
		}
		if err := os.Remove(filepath.Join(w.dir, segName(seg))); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("durable: compact: drop segment %d: %w", seg, err)
		}
	}
	// Reopen the compacted segment for appending.
	nf, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durable: compact reopen: %w", err)
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		nf.Close()
		return fmt.Errorf("durable: compact seek: %w", err)
	}
	w.f, w.seg, w.size, w.dirty = nf, newSeg, size, false
	w.segments = []int{newSeg}
	return nil
}

// Stats returns the lifetime counters.
func (w *WAL) Stats() Stats {
	return Stats{
		Records:   w.records.Load(),
		Replayed:  w.replayed.Load(),
		Truncated: w.truncated.Load(),
		Corrupt:   w.corrupt.Load(),
	}
}

// Close syncs and closes the log. Further appends fail.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := func() error {
		if !w.dirty {
			return nil
		}
		return w.f.Sync()
	}()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir best-effort fsyncs a directory so renames/creates within it
// are durable. Errors are swallowed: some filesystems reject directory
// syncs, and the data files themselves are already synced.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

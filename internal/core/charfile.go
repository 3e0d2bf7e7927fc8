package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/arch"
	"repro/internal/persist"
)

// Characterisation on disk. A Store given a directory (StoreConfig.Dir)
// writes every SPEC result set and IMB table through to one file as it is
// built, and the leader of a later fill — in this process or the next one
// on the same directory — reads the file instead of re-running the
// benchmarks. Nothing is loaded at start-up and nothing is written at
// shutdown, so a process that was killed and one that was closed restart
// the same way.
//
// Profiles are not persisted: they are cheap next to characterisation and
// their in-memory values carry live pointers with no stable wire form.

// charEpoch is part of every file's address. Bump it whenever the
// simulator's characterisation output changes for an unchanged machine
// description — TestCharEpochPinsSimulatorOutput fails when that happens —
// so files written by the old build are never found by the new one. Without
// it a persisted table would break "byte-identical from cache or from
// scratch" across builds.
const charEpoch = 2

// CharArtifact is one characterisation-layer entry in its file form: the
// layer key, the hex sha256 of Body, and the persist-marshalled payload
// (MarshalSpec for spec| keys, MarshalIMB for imb| keys).
type CharArtifact struct {
	Key  string `json:"key"`
	Sum  string `json:"sum"`
	Body []byte `json:"body"`
}

// charAddress names the file for one layer key on one machine: the hex
// sha256 of key ‖ the machine's full description ‖ epoch (charEpoch,
// outside tests). The machine value is in the address, not just its name,
// because the key only names it: a build whose machine table changed must
// miss, not serve the old build's tables. (%#v is total and injective on
// arch.Machine, a tree of plain values.)
func charAddress(key string, m *arch.Machine, epoch int) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%#v\x00%d", key, *m, epoch)
	return hex.EncodeToString(h.Sum(nil))
}

// throughDisk wraps the fill for one spec| or imb| key with its file: try
// the file first, and after a real fill write the file before the value is
// published. Disk trouble never fails the fill — an unreadable or invalid
// file is counted (<layer>_disk_rejects) and overwritten by the fill that
// follows, a failed write is counted (<layer>_disk_write_fails) and retried
// by the next fill of the key.
func (s *Store) throughDisk(key string, m *arch.Machine, fill func() (charValue, error)) func() (charValue, error) {
	if s.dir == "" {
		return fill
	}
	l := s.chars
	return func() (charValue, error) {
		path := filepath.Join(s.dir, charAddress(key, m, charEpoch))
		v, err := readCharFile(path, key)
		switch {
		case err == nil:
			l.obs.Count(l.name+"_disk_hits", 1)
			return v, nil
		case !errors.Is(err, os.ErrNotExist):
			// Absent is the ordinary miss: never written, or written under
			// another machine description or epoch. Anything else is a file
			// that cannot be trusted.
			l.obs.Count(l.name+"_disk_rejects", 1)
		}
		v, err = fill()
		if err != nil {
			return charValue{}, err
		}
		if err := writeCharFile(path, key, m.Name, v); err != nil {
			l.obs.Count(l.name+"_disk_write_fails", 1)
		} else {
			l.obs.Count(l.name+"_disk_writes", 1)
		}
		return v, nil
	}
}

// readCharFile reads and verifies one file and returns the value to publish
// under key: the envelope must decode, the checksum must match the body,
// the body must pass the persist validators, and the key derived from the
// decoded content must equal both the recorded key and the key asked for —
// so a file can never publish data under a key it does not match, whatever
// address it was found at.
func readCharFile(path, key string) (charValue, error) {
	var val charValue
	data, err := os.ReadFile(path)
	if err != nil {
		return val, err
	}
	var c CharArtifact
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return val, fmt.Errorf("core: characterisation file: %w", err)
	}
	if sum := sha256.Sum256(c.Body); c.Sum != hex.EncodeToString(sum[:]) {
		return val, errors.New("core: characterisation file: checksum mismatch")
	}
	var contentKey string
	switch {
	case strings.HasPrefix(c.Key, "spec|"):
		machine, results, err := persist.UnmarshalSpec(c.Body)
		if err != nil {
			return val, err
		}
		val.spec, contentKey = results, specKey(&arch.Machine{Name: machine})
	case strings.HasPrefix(c.Key, "imb|"):
		t, err := persist.UnmarshalIMB(c.Body)
		if err != nil {
			return val, err
		}
		val.imb, contentKey = t, tableKey(t)
	default:
		return val, fmt.Errorf("core: characterisation file: unknown key %q", c.Key)
	}
	if c.Key != contentKey || c.Key != key {
		return charValue{}, fmt.Errorf("core: characterisation file holds %q (recorded as %q), want %q", contentKey, c.Key, key)
	}
	return val, nil
}

// writeCharFile marshals one characterisation value into its envelope and
// replaces the file at path atomically: tmp file, fsync, rename, so a crash
// mid-write leaves the previous file or none, never a torn one under the
// final name.
func writeCharFile(path, key, machine string, v charValue) error {
	var body []byte
	var err error
	if v.imb != nil {
		body, err = persist.MarshalIMB(v.imb)
	} else {
		body, err = persist.MarshalSpec(machine, v.spec)
	}
	if err != nil {
		return err
	}
	sum := sha256.Sum256(body)
	data, err := json.Marshal(CharArtifact{Key: key, Sum: hex.EncodeToString(sum[:]), Body: body})
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

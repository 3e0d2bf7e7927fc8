package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/imb"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/spec"
	"repro/internal/units"
)

// diskStore builds a store writing through to dir, with its own counters.
func diskStore(dir string) (*Store, *obs.Scope) {
	scope := obs.New("test")
	return NewStore(StoreConfig{Dir: dir, Obs: scope}), scope
}

// counter reads one obs counter, defaulting to 0.
func counter(scope *obs.Scope, name string) int64 {
	v, _ := scope.Metrics().Counter(name)
	return v
}

// diskCounters reads the characterisation layer's four disk counters.
func diskCounters(scope *obs.Scope) (hits, writes, rejects, writeFails int64) {
	c := func(name string) int64 { return counter(scope, "core.store.characterisation_disk_"+name) }
	return c("hits"), c("writes"), c("rejects"), c("write_fails")
}

// fillIMB resolves m's IMB table at ranks through st with the real fill.
func fillIMB(t testing.TB, st *Store, m *arch.Machine, ranks int) *imb.Table {
	t.Helper()
	tab, err := st.imbTable(context.Background(), m, ranks, func() (*imb.Table, error) { return imb.Run(m, ranks, nil) })
	if err != nil {
		t.Fatalf("imbTable(%s, %d): %v", m.Name, ranks, err)
	}
	return tab
}

// fillSpec resolves m's SPEC suite through st with the real fill.
func fillSpec(t testing.TB, st *Store, m *arch.Machine) map[string]spec.Result {
	t.Helper()
	res, err := st.specSuite(context.Background(), m, func() (map[string]spec.Result, error) { return spec.RunSuite(m, true) })
	if err != nil {
		t.Fatalf("specSuite(%s): %v", m.Name, err)
	}
	return res
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// TestCharDiskRoundTrip is the characterisation half of the durability
// contract: a pipeline built through a store with a directory writes every
// SPEC result set and IMB table to it, and a fresh store on the same
// directory — the next process — resolves every one of them from disk,
// running no benchmark, and lands bit-identical pipeline inputs.
func TestCharDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base, target := arch.MustGet(arch.Hydra), arch.MustGet(arch.Power6)
	// SPEC on two machines + IMB per (machine, count) pair.
	const entries = 2 + 2*2

	st1, scope1 := diskStore(dir)
	p1, err := NewPipelineOpts(base, target, []int{4, 8}, Options{Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	if hits, writes, rejects, fails := diskCounters(scope1); hits != 0 || writes != entries || rejects != 0 || fails != 0 {
		t.Fatalf("first store: disk hits=%d writes=%d rejects=%d write_fails=%d, want 0/%d/0/0", hits, writes, rejects, fails, entries)
	}
	if names := dirNames(t, dir); len(names) != entries {
		t.Fatalf("directory holds %v, want %d files and no temporaries", names, entries)
	}

	st2, scope2 := diskStore(dir)
	p2, err := NewPipelineOpts(base, target, []int{4, 8}, Options{Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	if hits, writes, rejects, fails := diskCounters(scope2); hits != entries || writes != 0 || rejects != 0 || fails != 0 {
		t.Fatalf("second store: disk hits=%d writes=%d rejects=%d write_fails=%d, want %d/0/0/0", hits, writes, rejects, fails, entries)
	}
	// A disk hit is still a layer miss: the fill ran, it resolved from disk.
	if n := counter(scope2, "core.store.characterisation_misses"); n != entries {
		t.Errorf("second store counted %d layer misses, want %d", n, entries)
	}
	if !reflect.DeepEqual(p2.SpecBase, p1.SpecBase) || !reflect.DeepEqual(p2.SpecTarget, p1.SpecTarget) {
		t.Error("SPEC data through disk diverged from the fresh run")
	}
	for _, c := range []int{4, 8} {
		if !reflect.DeepEqual(p2.IMBBase[c], p1.IMBBase[c]) || !reflect.DeepEqual(p2.IMBTarget[c], p1.IMBTarget[c]) {
			t.Errorf("IMB tables at %d ranks through disk diverged", c)
		}
	}
}

// TestCharFileRejects pins the load gate and the write path's failure mode:
// a file that cannot be trusted is a counted reject, never a published
// value; the fill behind it still succeeds with the fresh value; and that
// fill repairs the file, so the next process hits it. An unwritable
// directory is a counted write failure and nothing else.
func TestCharFileRejects(t *testing.T) {
	m := arch.MustGet(arch.Hydra)
	const ranks = 4
	fresh, err := imb.Run(m, ranks, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := imbKey(m, ranks)
	addr := charAddress(key, m, charEpoch)

	// written returns a directory holding the one good file, and its bytes.
	written := func(t *testing.T) (string, []byte) {
		dir := t.TempDir()
		st, _ := diskStore(dir)
		fillIMB(t, st, m, ranks)
		data, err := os.ReadFile(filepath.Join(dir, addr))
		if err != nil {
			t.Fatal(err)
		}
		return dir, data
	}
	// rejectedThenRepaired asks a fresh store on dir for the table: the bad
	// file must be rejected once, the fill must serve the fresh value and
	// rewrite the file, and a third store must then hit it.
	rejectedThenRepaired := func(t *testing.T, dir string) {
		t.Helper()
		st, scope := diskStore(dir)
		if got := fillIMB(t, st, m, ranks); !reflect.DeepEqual(got, fresh) {
			t.Error("fill behind a rejected file did not serve the fresh table")
		}
		if hits, writes, rejects, fails := diskCounters(scope); hits != 0 || writes != 1 || rejects != 1 || fails != 0 {
			t.Errorf("disk hits=%d writes=%d rejects=%d write_fails=%d, want 0/1/1/0", hits, writes, rejects, fails)
		}
		again, scope2 := diskStore(dir)
		if got := fillIMB(t, again, m, ranks); !reflect.DeepEqual(got, fresh) {
			t.Error("repaired file serves a different table")
		}
		if hits, _, rejects, _ := diskCounters(scope2); hits != 1 || rejects != 0 {
			t.Errorf("after repair: disk hits=%d rejects=%d, want 1/0", hits, rejects)
		}
	}
	// reenvelope rewrites the file at path with an edited envelope.
	reenvelope := func(t *testing.T, path string, data []byte, edit func(*CharArtifact)) {
		t.Helper()
		var c CharArtifact
		if err := json.Unmarshal(data, &c); err != nil {
			t.Fatal(err)
		}
		edit(&c)
		out, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("flipped-body", func(t *testing.T) {
		dir, data := written(t)
		// Same sum, one body byte changed: only the checksum can catch it.
		reenvelope(t, filepath.Join(dir, addr), data, func(c *CharArtifact) { c.Body[len(c.Body)/2] ^= 0x01 })
		rejectedThenRepaired(t, dir)
	})
	t.Run("wrong-sum", func(t *testing.T) {
		dir, data := written(t)
		reenvelope(t, filepath.Join(dir, addr), data, func(c *CharArtifact) {
			c.Sum = hex.EncodeToString(make([]byte, sha256.Size))
		})
		rejectedThenRepaired(t, dir)
	})
	t.Run("truncated", func(t *testing.T) {
		dir, data := written(t)
		if err := os.WriteFile(filepath.Join(dir, addr), data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		rejectedThenRepaired(t, dir)
	})
	t.Run("key-mismatch", func(t *testing.T) {
		// A valid file — good checksum, good payload — sitting at another
		// key's address must not publish under that key.
		dir, _ := written(t)
		st, _ := diskStore(dir)
		fillIMB(t, st, m, 2)
		other := charAddress(imbKey(m, 2), m, charEpoch)
		if err := os.Rename(filepath.Join(dir, other), filepath.Join(dir, addr)); err != nil {
			t.Fatal(err)
		}
		rejectedThenRepaired(t, dir)
	})
	t.Run("relabelled", func(t *testing.T) {
		// The same, with the envelope's recorded key edited to match the
		// address: the key derived from the content still gives it away.
		dir, _ := written(t)
		st, _ := diskStore(dir)
		fillIMB(t, st, m, 2)
		other, err := os.ReadFile(filepath.Join(dir, charAddress(imbKey(m, 2), m, charEpoch)))
		if err != nil {
			t.Fatal(err)
		}
		reenvelope(t, filepath.Join(dir, addr), other, func(c *CharArtifact) { c.Key = key })
		rejectedThenRepaired(t, dir)
	})
	t.Run("unwritable-dir", func(t *testing.T) {
		// A regular file where the directory should be: every open under it
		// fails, for root too.
		notDir := filepath.Join(t.TempDir(), "characterisation")
		if err := os.WriteFile(notDir, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		st, scope := diskStore(notDir)
		if got := fillIMB(t, st, m, ranks); !reflect.DeepEqual(got, fresh) {
			t.Error("fill with an unwritable directory did not serve the fresh table")
		}
		if got := fillSpec(t, st, m); len(got) == 0 {
			t.Error("SPEC fill with an unwritable directory served nothing")
		}
		if hits, writes, rejects, fails := diskCounters(scope); hits != 0 || writes != 0 || rejects != 2 || fails != 2 {
			t.Errorf("disk hits=%d writes=%d rejects=%d write_fails=%d, want 0/0/2/2", hits, writes, rejects, fails)
		}
	})
}

// TestCharAddressCoversMachineAndEpoch: a file written for another machine
// description or under another epoch lives at another address, so a build
// whose machine table or simulator changed never finds it — a plain miss,
// not a reject, and never the old build's table under the new build's key.
func TestCharAddressCoversMachineAndEpoch(t *testing.T) {
	m := arch.MustGet(arch.Hydra)
	dir := t.TempDir()
	st, _ := diskStore(dir)
	old := fillSpec(t, st, m)

	retuned := *m
	retuned.Net.LatencyUS *= 2
	if specKey(&retuned) != specKey(m) {
		t.Fatal("the layer key is expected to name the machine only")
	}
	st2, scope := diskStore(dir)
	if got := fillSpec(t, st2, &retuned); !reflect.DeepEqual(got, old) {
		// SPEC does not exercise the interconnect; the point is which file
		// was read, which the counters say.
		t.Error("SPEC results moved with the interconnect latency")
	}
	if hits, writes, rejects, _ := diskCounters(scope); hits != 0 || writes != 1 || rejects != 0 {
		t.Errorf("retuned machine: disk hits=%d writes=%d rejects=%d, want a plain miss and a second file (0/1/0)", hits, writes, rejects)
	}
	if names := dirNames(t, dir); len(names) != 2 {
		t.Errorf("directory holds %v, want one file per machine description", names)
	}

	key := specKey(m)
	if charAddress(key, m, charEpoch) == charAddress(key, m, charEpoch+1) {
		t.Error("the epoch is not part of the address")
	}
	if charAddress(key, m, charEpoch) == charAddress(imbKey(m, 4), m, charEpoch) {
		t.Error("the layer key is not part of the address")
	}
}

// charEpochPin is the SHA-256 of hydra's SPEC result set followed by its
// 32-rank IMB table (two nodes, so the inter-node fits are in it), both in
// persist wire form, as the simulator produced them when charEpoch was last
// set.
const charEpochPin = "5683f3bf851e45e8e9e6dcde4db3121ca59a149b3f014d6785cf621d0afecbcc"

// TestCharEpochPinsSimulatorOutput fails when the simulator's
// characterisation output changes, which is exactly when files written by
// the previous build stop being valid for their address.
func TestCharEpochPinsSimulatorOutput(t *testing.T) {
	m := arch.MustGet(arch.Hydra)
	results, err := spec.RunSuite(m, true)
	if err != nil {
		t.Fatal(err)
	}
	specBody, err := persist.MarshalSpec(m.Name, results)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := imb.Run(m, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	imbBody, err := persist.MarshalIMB(tab)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(specBody)
	h.Write(imbBody)
	if got := hex.EncodeToString(h.Sum(nil)); got != charEpochPin {
		t.Errorf("characterisation output changed: sha256 %s, pinned %s at charEpoch %d.\n"+
			"Files in every -data-dir were written by the old simulator: bump charEpoch in charfile.go "+
			"so they are never read again, then record the new sum in charEpochPin.", got, charEpochPin, charEpoch)
	}
}

// FuzzCharFile: arbitrary bytes sitting at a valid address never panic the
// load and never publish a value whose re-derived key differs from the key
// asked for — whatever the file says, the caller gets either a verified
// table for exactly that key or the fill's.
func FuzzCharFile(f *testing.F) {
	m := arch.MustGet(arch.Hydra)
	seedDir := f.TempDir()
	st, _ := diskStore(seedDir)
	fillSpec(f, st, m)
	// A short size grid keeps the IMB seed small enough for the fuzzer to
	// minimise what it finds; the file's shape is the same.
	if _, err := st.imbTable(context.Background(), m, 2, func() (*imb.Table, error) {
		return imb.Run(m, 2, units.Pow2Sizes(64, 4*units.KiB))
	}); err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{charAddress(specKey(m), m, charEpoch), charAddress(imbKey(m, 2), m, charEpoch)} {
		data, err := os.ReadFile(filepath.Join(seedDir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}

	// One directory and one store per fuzz worker, throughDisk called
	// directly, below the layer's LRU and fill goroutine, and a fill that
	// fails so nothing is written back (an fsync per execution starves the
	// fuzzer's minimiser): every input meets the file and nothing else.
	dir := f.TempDir()
	fst, scope := diskStore(dir)
	errFill := errors.New("the fill ran")
	fill := func() (charValue, error) { return charValue{}, errFill }
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, key := range []string{specKey(m), imbKey(m, 2)} {
			path := filepath.Join(dir, charAddress(key, m, charEpoch))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			hits0, _, rejects0, _ := diskCounters(scope)
			v, err := fst.throughDisk(key, m, fill)()
			hits, _, rejects, _ := diskCounters(scope)
			if err != nil {
				if !errors.Is(err, errFill) || hits != hits0 || rejects != rejects0+1 {
					t.Fatalf("err = %v with disk hits +%d rejects +%d, want the fill's after one reject", err, hits-hits0, rejects-rejects0)
				}
				continue
			}
			if hits != hits0+1 || rejects != rejects0 {
				t.Fatalf("file served with disk hits +%d rejects +%d, want +1/+0", hits-hits0, rejects-rejects0)
			}
			switch {
			case v.spec != nil && v.imb == nil:
				// The machine name is in the file, not the value: all the
				// value can say is which suite it belongs to.
				if key != specKey(m) {
					t.Fatalf("file published a SPEC result set under %q", key)
				}
			case v.imb != nil && v.spec == nil:
				if derived := imbKey(&arch.Machine{Name: v.imb.Machine}, v.imb.Ranks); derived != key {
					t.Fatalf("file published %q under %q", derived, key)
				}
			default:
				t.Fatalf("published %+v", v)
			}
		}
	})
}

package mpi

import (
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/units"
)

// scanEntry and scanList are the matcher the match table replaced, kept as
// its oracle: for each destination, a list of posted receives and a list
// of unexpected sends, each in post order, scanned for the oldest entry
// with the wanted (source, tag).
type scanEntry struct {
	src, tag int32
	id       int
}

type scanList []scanEntry

func (l *scanList) take(src, tag int32) (scanEntry, bool) {
	q := *l
	for i := range q {
		if q[i].src == src && q[i].tag == tag {
			p := q[i]
			copy(q[i:], q[i+1:])
			*l = q[:len(q)-1]
			return p, true
		}
	}
	return scanEntry{}, false
}

// scanMatcher is the lists of every destination, as makeSend and makeRecv
// used them: an operation takes the oldest of the other kind from its
// destination's list, or joins its own kind's.
type scanMatcher struct {
	lists map[int32]*[2]scanList // [0] receives, [1] sends
	live  int
}

func (m *scanMatcher) match(k matchKey, send bool, id int) (scanEntry, bool) {
	l := m.lists[k.dst]
	if l == nil {
		l = new([2]scanList)
		m.lists[k.dst] = l
	}
	mine, other := &l[0], &l[1]
	if send {
		mine, other = other, mine
	}
	if e, ok := other.take(k.src, k.tag); ok {
		m.live--
		return e, true
	}
	*mine = append(*mine, scanEntry{k.src, k.tag, id})
	m.live++
	return scanEntry{}, false
}

// checkTable fails t unless every key in use is where a lookup finds it,
// the slots are at most half full and keys counts them.
func checkTable(t *testing.T, mt *matchTable) {
	t.Helper()
	used := 0
	for i, s := range mt.slots {
		if s.tail == 0 {
			continue
		}
		used++
		if at := mt.find(s.key); at != i {
			t.Fatalf("key %+v sits in slot %d, a lookup ends at %d", s.key, i, at)
		}
	}
	if used != mt.keys || 2*used > len(mt.slots) {
		t.Fatalf("%d slots of %d in use, table counts %d", used, len(mt.slots), mt.keys)
	}
}

// FuzzMatchTable posts the same sends and receives to a match table and to
// the per-destination scan it replaced and wants the same entry matched, or
// none, at every post. Each op byte is a send bit, then a destination and
// a source (two bits each) and a tag (three bits): 128 keys on a table that
// starts at two slots, so probe runs wrap, the table rehashes as keys
// arrive, and every key emptied by a match shifts its run back.
func FuzzMatchTable(f *testing.F) {
	f.Add([]byte{0x00, 0x04, 0x10, 0x40, 0x01, 0x41, 0x11, 0x05})
	f.Add([]byte{0x00, 0x00, 0x02, 0x01, 0x03, 0x01, 0x03})
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x01, 0x01, 0x01})
	ramp := make([]byte, 0, 512)
	for i := 0; i < 256; i += 2 {
		ramp = append(ramp, byte(i))
	}
	for i := 255; i >= 0; i -= 6 {
		ramp = append(ramp, byte(i|1))
	}
	f.Add(ramp)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var mt matchTable
		mt.reserve(1)
		scan := scanMatcher{lists: map[int32]*[2]scanList{}}
		most := 0
		for id, op := range ops {
			send := op&1 != 0
			k := matchKey{dst: int32(op >> 1 & 3), src: int32(op >> 3 & 3), tag: int32(op >> 5)}
			var got pending
			e, ok := mt.match(k, send)
			if ok {
				got = mt.take(e)
			} else {
				q := &mt.pool[e]
				if *q != (pending{send: send, next: q.next}) {
					t.Fatalf("op %d: queued entry %d comes as %+v, want it zero but for its kind and link", id, e, *q)
				}
				q.post = units.Seconds(id)
			}
			want, wok := scan.match(k, send, id)
			if ok != wok || ok && got.post != units.Seconds(want.id) {
				t.Fatalf("op %d: %+v (send %v) matched (%v, %v), the scan matched (%v, %v)", id, k, send, got.post, ok, want.id, wok)
			}
			most = max(most, scan.live)
			checkTable(t, &mt)
		}
		// Drain: the other kind's posts match what is left, oldest first.
		for dst, l := range scan.lists {
			for kind, list := range l {
				for _, e := range list {
					k := matchKey{dst: dst, src: e.src, tag: e.tag}
					i, ok := mt.match(k, kind == 0)
					if !ok || mt.take(i).post != units.Seconds(e.id) {
						t.Fatalf("drain %+v: entry %d (matched %v), want post %d", k, i, ok, e.id)
					}
				}
			}
		}
		// The free list hands entries back, so the pool holds the most
		// that were ever live at once.
		if mt.keys != 0 || len(mt.pool)-1 != most {
			t.Fatalf("after the drain: %d keys, pool of %d entries for at most %d live", mt.keys, len(mt.pool)-1, most)
		}
	})
}

// TestPendingSize: every unmatched message writes a pending entry. Its key
// lives in its table slot, which keeps the entry at 32 bytes, a Request's
// size.
func TestPendingSize(t *testing.T) {
	if n := unsafe.Sizeof(pending{}); n != 32 {
		t.Errorf("pending is %d bytes, want 32", n)
	}
}

// TestNewWorldAllocatesPerWorld: a world carves its NICs and rank handles
// from slabs, and makes its match table at its first Run, so building one
// for 128 ranks makes the allocations one for 16 does: 8, where separate
// NIC slices, per-rank match lists and peer scratch made 14, and the
// table's slots and pool made at once 10.
func TestNewWorldAllocatesPerWorld(t *testing.T) {
	allocs := func(size int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := NewWorld(arch.MustGet(arch.Hydra), size); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(16), allocs(128); small != large || large > 8 {
		t.Errorf("NewWorld made %.0f allocations at 16 ranks and %.0f at 128, want the same and at most 8", small, large)
	}
}

package cluster

import (
	"fmt"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = GroupKey("hydra", fmt.Sprintf("target-%d", i))
	}
	return keys
}

// Every replica must compute identical ownership from identical membership,
// regardless of the order the peer list was written in — that is the whole
// routing-determinism contract.
func TestRingDeterministicAcrossPermutations(t *testing.T) {
	a := NewRing([]string{"http://a:1", "http://b:2", "http://c:3"})
	b := NewRing([]string{"http://c:3", "http://a:1", "http://b:2", "http://a:1"})
	if a.Len() != 3 || b.Len() != 3 {
		t.Fatalf("membership = %d, %d; want 3, 3 (deduplicated)", a.Len(), b.Len())
	}
	for _, k := range testKeys(200) {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("owner(%q) differs across permutations: %q vs %q", k, a.Owner(k), b.Owner(k))
		}
	}
}

// Removing one node must move only the keys that node owned; every other
// key keeps its owner (the consistent-hashing minimal-movement property).
func TestRingMinimalMovementOnNodeLoss(t *testing.T) {
	full := NewRing([]string{"http://a:1", "http://b:2", "http://c:3"})
	without := NewRing([]string{"http://a:1", "http://c:3"})
	keys := testKeys(500)
	moved := 0
	for _, k := range keys {
		before, after := full.Owner(k), without.Owner(k)
		if before == "http://b:2" {
			if after == "http://b:2" {
				t.Fatalf("key %q still owned by removed node", k)
			}
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %q moved %q -> %q though its owner survived", k, before, after)
		}
	}
	if moved == 0 {
		t.Fatal("removed node owned no test keys; distribution is broken")
	}
	if got := Moved(full, without, keys); got != moved {
		t.Errorf("Moved = %d, want %d", got, moved)
	}
}

// The vnode spread must keep ownership roughly even: with 3 nodes no node
// should own more than half of a large keyset.
func TestRingDistribution(t *testing.T) {
	r := NewRing([]string{"http://a:1", "http://b:2", "http://c:3"})
	counts := map[string]int{}
	keys := testKeys(3000)
	for _, k := range keys {
		counts[r.Owner(k)]++
	}
	for node, n := range counts {
		if n == 0 || n > len(keys)/2 {
			t.Errorf("node %s owns %d/%d keys; distribution badly skewed", node, n, len(keys))
		}
	}
	if len(counts) != 3 {
		t.Errorf("only %d nodes own keys, want 3", len(counts))
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	if owner := NewRing(nil).Owner("k"); owner != "" {
		t.Errorf("empty ring owner = %q, want \"\"", owner)
	}
	one := NewRing([]string{"http://solo:1"})
	for _, k := range testKeys(10) {
		if one.Owner(k) != "http://solo:1" {
			t.Fatal("single-node ring must own everything")
		}
	}
}

// GroupKey must never collapse distinct (base, target) pairs.
func TestGroupKeyCollisionFree(t *testing.T) {
	a := GroupKey(`hy"dra`, "t")
	b := GroupKey("hy", `dra"|t`)
	if a == b {
		t.Fatalf("GroupKey collided: %q", a)
	}
	if GroupKey("a", "b") == GroupKey("b", "a") {
		t.Fatal("GroupKey must be order-sensitive")
	}
}

// TestGroupKeyBytesPinned: ring ownership hashes GroupKey's bytes, so they
// must stay what fmt's %q|%q produced when every deployed ring was built —
// for names that need quoting as much as for the ones in the machine table.
func TestGroupKeyBytesPinned(t *testing.T) {
	names := []string{"", "hydra", "power6-575", `hy"dra`, `back\slash`, "tab\tnl\n\x00\x7f", "π-cluster ☃", "\xff\xfe", " ",
		"a-name-long-enough-to-outgrow-any-buffer-the-key-is-first-built-in-0123456789"}
	for _, base := range names {
		for _, target := range names {
			if got, want := GroupKey(base, target), fmt.Sprintf("%q|%q", base, target); got != want {
				t.Errorf("GroupKey(%q, %q) = %s, want %s", base, target, got, want)
			}
		}
	}
}

package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = GroupKey("hydra", fmt.Sprintf("target-%d", i))
	}
	return keys
}

// owner is the node owning key: the first of its preference order, "" with
// no nodes.
func owner(nodes []string, key string) string {
	if order := Preference(nodes, key); len(order) > 0 {
		return order[0]
	}
	return ""
}

// Every replica must compute identical ownership from identical membership,
// regardless of the order the peer list was written in — that is the whole
// routing-determinism contract. (A listed duplicate changes no owner either;
// the server's newPeerSet collapses them, TestPeerSetMembership.)
func TestRingDeterministicAcrossPermutations(t *testing.T) {
	a := []string{"http://a:1", "http://b:2", "http://c:3"}
	b := []string{"http://c:3", "http://a:1", "http://b:2", "http://a:1"}
	for _, k := range testKeys(200) {
		if owner(a, k) != owner(b, k) {
			t.Fatalf("owner(%q) differs across permutations: %q vs %q", k, owner(a, k), owner(b, k))
		}
	}
}

// Leaving one node out must move only the keys that node owned, each to the
// node its preference order names second; every other key keeps its owner
// (the minimal-movement property, which is what lets a caller skip an
// unreachable node without anything being rebuilt).
func TestRingMinimalMovementOnNodeLoss(t *testing.T) {
	full := []string{"http://a:1", "http://b:2", "http://c:3"}
	without := []string{"http://a:1", "http://c:3"}
	moved := 0
	for _, k := range testKeys(500) {
		order := Preference(full, k)
		before, after := order[0], owner(without, k)
		if before == "http://b:2" {
			if after != order[1] {
				t.Fatalf("key %q of the removed node went to %q, its preference order %v names %q next", k, after, order, order[1])
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
}

// TestPreferenceWalkIsTheRebuiltRing is the proof the server's routing leans
// on: over seeded memberships of 1–8 nodes, every dead subset and 1 000 keys,
// the first preferred node outside the dead set is exactly the owner among
// the survivors; the order holds each member once; and it does not depend on
// how the membership was written down.
func TestPreferenceWalkIsTheRebuiltRing(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	keys := testKeys(1000)
	for n := 1; n <= 8; n++ {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("http://10.0.%d.%d:%d", rng.Intn(256), rng.Intn(256), 1024+rng.Intn(60000))
		}
		shuffled := append([]string(nil), nodes...)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		orders := make([][]string, len(keys))
		for i, k := range keys {
			order := Preference(nodes, k)
			orders[i] = order
			if len(order) != n {
				t.Fatalf("n=%d key %q: order %v has %d entries, want each of the %d members once", n, k, order, len(order), n)
			}
			seen := map[string]bool{}
			for _, node := range order {
				if seen[node] || !slices.Contains(nodes, node) {
					t.Fatalf("n=%d key %q: order %v repeats or invents %q", n, k, order, node)
				}
				seen[node] = true
			}
			if permuted := Preference(shuffled, k); !slices.Equal(order, permuted) {
				t.Fatalf("n=%d key %q: order depends on how the membership was listed: %v vs %v", n, k, order, permuted)
			}
		}
		// Every dead subset, the empty one (the owner itself) and the full
		// one (nobody left) included.
		for dead := 0; dead < 1<<n; dead++ {
			var survivors []string
			isDead := map[string]bool{}
			for i, node := range nodes {
				if dead&(1<<i) != 0 {
					isDead[node] = true
				} else {
					survivors = append(survivors, node)
				}
			}
			for i, k := range keys {
				walked := ""
				for _, node := range orders[i] {
					if !isDead[node] {
						walked = node
						break
					}
				}
				if want := owner(survivors, k); walked != want {
					t.Fatalf("n=%d dead=%b key %q: the walk lands on %q, the survivors' own order on %q", n, dead, k, walked, want)
				}
			}
		}
	}
	if got := Preference(nil, "k"); len(got) != 0 {
		t.Errorf("preference over no nodes = %v, want none", got)
	}
}

// The scores must spread ownership roughly evenly: with 3 nodes no node
// should own more than half of a large keyset.
func TestRingDistribution(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:2", "http://c:3"}
	counts := map[string]int{}
	keys := testKeys(3000)
	for _, k := range keys {
		counts[owner(nodes, k)]++
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
	if o := owner(nil, "k"); o != "" {
		t.Errorf("owner over no nodes = %q, want \"\"", o)
	}
	one := []string{"http://solo:1"}
	for _, k := range testKeys(10) {
		if owner(one, k) != "http://solo:1" {
			t.Fatal("a single node must own everything")
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

// TestGroupKeyBytesPinned: ownership hashes GroupKey's bytes, so they must
// stay what fmt's %q|%q produced when every deployed replica was built —
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

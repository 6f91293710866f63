package cluster

import (
	"fmt"
	"math/rand"
	"testing"
)

// testKeys returns deterministic pseudo-token keys shaped like real session
// tokens (32 hex characters).
func testKeys(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x%016x", rng.Uint64(), rng.Uint64())
	}
	return keys
}

func testNodes(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("http://127.0.0.1:%d", 7001+i)
	}
	return nodes
}

func ringOf(nodes ...string) *Ring {
	r := NewRing()
	for _, n := range nodes {
		r = r.Add(n)
	}
	return r
}

// ownerMap routes every key on one ring snapshot.
func ownerMap(r *Ring, keys []string) map[string]string {
	m := make(map[string]string, len(keys))
	for _, k := range keys {
		m[k] = r.Lookup(k)
	}
	return m
}

// checkTotalCoverage asserts the core routing invariant on one snapshot:
// every key routes to exactly one node, that node is a live member, and
// repeated lookups agree (Lookup is a pure function of the snapshot).
func checkTotalCoverage(t *testing.T, r *Ring, keys []string) {
	t.Helper()
	if r.Len() == 0 {
		for _, k := range keys {
			if got := r.Lookup(k); got != "" {
				t.Fatalf("empty ring routed %q to %q", k, got)
			}
		}
		return
	}
	for _, k := range keys {
		owner := r.Lookup(k)
		if owner == "" {
			t.Fatalf("key %q routed nowhere on %v", k, r)
		}
		if !r.Has(owner) {
			t.Fatalf("key %q routed to non-member %q on %v", k, owner, r)
		}
		if again := r.Lookup(k); again != owner {
			t.Fatalf("key %q routed to %q then %q on the same snapshot", k, owner, again)
		}
	}
}

func TestRingLookupEmptyAndSingle(t *testing.T) {
	keys := testKeys(100, 1)
	empty := NewRing()
	checkTotalCoverage(t, empty, keys)
	if empty.Version() != 0 {
		t.Fatalf("fresh ring version = %d, want 0", empty.Version())
	}
	one := empty.Add("http://a")
	if one.Version() != 1 {
		t.Fatalf("version after first add = %d, want 1", one.Version())
	}
	for _, k := range keys {
		if got := one.Lookup(k); got != "http://a" {
			t.Fatalf("single-node ring routed %q to %q", k, got)
		}
	}
}

func TestRingAddRemoveIdempotent(t *testing.T) {
	r := ringOf(testNodes(3)...)
	if r2 := r.Add(testNodes(3)[0]); r2 != r {
		t.Fatal("re-adding a member built a new ring")
	}
	if r2 := r.Remove("http://absent"); r2 != r {
		t.Fatal("removing a non-member built a new ring")
	}
	if r2 := r.Add(""); r2 != r {
		t.Fatal("adding the empty node name built a new ring")
	}
}

// TestRingOrderIndependent: the ring is a pure function of the member set —
// whatever order members joined in, routing agrees.
func TestRingOrderIndependent(t *testing.T) {
	nodes := testNodes(5)
	keys := testKeys(2000, 2)
	a := ringOf(nodes...)
	b := ringOf(nodes[4], nodes[2], nodes[0], nodes[3], nodes[1])
	for _, k := range keys {
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatalf("join order changed routing for %q: %q vs %q", k, a.Lookup(k), b.Lookup(k))
		}
	}
}

// TestRingMinimalMovementOnJoin: adding a node may only move keys TO the
// new node; no key moves between two surviving nodes.
func TestRingMinimalMovementOnJoin(t *testing.T) {
	keys := testKeys(5000, 3)
	r := ringOf(testNodes(3)...)
	before := ownerMap(r, keys)
	joined := "http://127.0.0.1:7999"
	r2 := r.Add(joined)
	moved := 0
	for _, k := range keys {
		after := r2.Lookup(k)
		if after == before[k] {
			continue
		}
		if after != joined {
			t.Fatalf("key %q moved %q → %q on a join of %q", k, before[k], after, joined)
		}
		moved++
	}
	// The new node should take roughly 1/4 of the keys; allow a wide band.
	if moved == 0 || moved > len(keys)/2 {
		t.Fatalf("join moved %d/%d keys — expected a roughly fair share", moved, len(keys))
	}
}

// TestRingMinimalMovementOnLeave: removing a node may only move that node's
// keys; every other assignment is untouched.
func TestRingMinimalMovementOnLeave(t *testing.T) {
	keys := testKeys(5000, 4)
	nodes := testNodes(4)
	r := ringOf(nodes...)
	before := ownerMap(r, keys)
	r2 := r.Remove(nodes[1])
	for _, k := range keys {
		after := r2.Lookup(k)
		if before[k] == nodes[1] {
			if after == nodes[1] {
				t.Fatalf("key %q still routed to the removed node", k)
			}
			continue
		}
		if after != before[k] {
			t.Fatalf("key %q moved %q → %q on removal of %q", k, before[k], after, nodes[1])
		}
	}
}

// TestRingBalance: with virtual nodes, each member of a small cluster owns
// a non-degenerate share of the key space.
func TestRingBalance(t *testing.T) {
	keys := testKeys(20000, 5)
	nodes := testNodes(4)
	r := ringOf(nodes...)
	counts := make(map[string]int)
	for _, k := range keys {
		counts[r.Lookup(k)]++
	}
	fair := len(keys) / len(nodes)
	for _, n := range nodes {
		if counts[n] < fair/3 || counts[n] > fair*3 {
			t.Fatalf("node %s owns %d keys, fair share %d — imbalance beyond 3x", n, counts[n], fair)
		}
	}
}

// TestRingLookupZeroAlloc pins the routing hot path: hashing a token and
// walking the ring must not allocate (the CI alloc guard runs this).
func TestRingLookupZeroAlloc(t *testing.T) {
	r := ringOf(testNodes(5)...)
	keys := testKeys(64, 6)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		_ = r.Lookup(keys[i%len(keys)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Ring.Lookup allocates %v per op, want 0", allocs)
	}
}

// applyOps replays a join/leave script (byte-driven, as the fuzzer supplies
// it) over a ring, returning every intermediate snapshot.
func applyOps(ops []byte) []*Ring {
	pool := testNodes(8)
	r := NewRing()
	rings := []*Ring{r}
	for _, op := range ops {
		n := pool[int(op%8)]
		if op&0x80 == 0 {
			r = r.Add(n)
		} else {
			r = r.Remove(n)
		}
		rings = append(rings, r)
	}
	return rings
}

// FuzzRingConsistency drives random join/leave sequences and checks, at
// every intermediate ring version, total coverage (each key routes to
// exactly one live member) and minimal key movement between consecutive
// versions (a key changes owner only when its owner left or when it moved
// to the node that just joined).
func FuzzRingConsistency(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x83, 0x04})
	f.Add([]byte{0x00, 0x80, 0x00, 0x80, 0x00})
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x81, 0x82})
	keys := testKeys(300, 7)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		rings := applyOps(ops)
		for i, r := range rings {
			checkTotalCoverage(t, r, keys)
			if i == 0 {
				continue
			}
			prev := rings[i-1]
			if r == prev {
				continue // idempotent op: same snapshot
			}
			if r.Version() != prev.Version()+1 {
				t.Fatalf("step %d: version %d → %d, want +1", i, prev.Version(), r.Version())
			}
			joined, left := memberDiff(prev, r)
			for _, k := range keys {
				was, is := prev.Lookup(k), r.Lookup(k)
				if was == is {
					continue
				}
				// A moved key must be explained by this membership change.
				movedToJoiner := joined != "" && is == joined
				ownerLeft := left != "" && was == left
				if !movedToJoiner && !ownerLeft {
					t.Fatalf("step %d (%v → %v): key %q moved %q → %q without cause",
						i, prev, r, k, was, is)
				}
			}
		}
	})
}

// memberDiff returns the single node that joined and/or left between two
// consecutive snapshots ("" for none).
func memberDiff(prev, cur *Ring) (joined, left string) {
	in := make(map[string]bool, cur.Len())
	for _, n := range cur.Nodes() {
		in[n] = true
	}
	was := make(map[string]bool, prev.Len())
	for _, n := range prev.Nodes() {
		was[n] = true
		if !in[n] {
			left = n
		}
	}
	for _, n := range cur.Nodes() {
		if !was[n] {
			joined = n
		}
	}
	return joined, left
}

// Package cluster turns a set of independent gdrd nodes into one service:
// a stateless routing proxy consistent-hashes session tokens across the
// nodes (hash ring with virtual nodes), creates each session on its owning
// node, transparently forwards every /v1/sessions verb, and live-migrates
// sessions between nodes when the ring changes — drain, snapshot export,
// import-on-create under the original token, delete the source copy — so a
// moved session is byte-identical to one that never moved (the guarantee
// PR 4's snapshot format provides). Every session is also replicated
// shared-nothing: after each mutating round its snapshot is pushed,
// watermarked by mutation sequence, to the next distinct node on the ring.
// A health-checking membership loop (symmetric hysteresis in both
// directions) removes dead nodes from the ring and promotes their sessions
// onto the new owners from the freshest replicas; the proxy never reads a
// node's disk. One rule decides which copy of a session is real: a node
// returning from the dead sheds its copies of sessions the cluster now
// serves, and any other duplicate loses to the higher mutation watermark,
// decided only on a full inventory (see migrate.go). See ARCHITECTURE.md
// "Cluster".
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node fan-out of every node on every ring. 64
// points per node keeps the expected load imbalance across a handful of
// nodes in the few-percent range while the whole ring stays small enough to
// rebuild on every membership change. It is not configurable: proxies in
// front of one node set must hash each token to the same owner, or each
// one's rebalance would move the others' sessions back.
const DefaultVNodes = 64

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring snapshot. Mutations (Add,
// Remove) return a new Ring and bump its version; readers hold one snapshot
// for the duration of a routing decision, so a concurrent membership change
// can never tear a lookup. The zero ring owns nothing — Lookup returns "".
type Ring struct {
	version uint64
	points  []point  // sorted by hash, ties broken by node name
	nodes   []string // sorted member list
}

// NewRing builds an empty ring. Its version is 0; every membership change
// increments it.
func NewRing() *Ring { return &Ring{} }

// fnv64a hashes a string with FNV-1a. Hand-rolled (rather than hash/fnv)
// so the routing hot path hashes a token with zero allocations.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// vnodeHash places virtual node i of a node on the ring. The vnode index is
// folded in after the node name's FNV hash, so a node's points are stable
// across ring rebuilds — that stability is what makes key movement minimal
// when membership changes.
func vnodeHash(node string, i int) uint64 {
	// splitmix64 finalizer over (node hash, vnode index): full avalanche, so
	// a node's points spread evenly instead of clustering in one arc — a
	// weak mix here shows up directly as load imbalance.
	h := fnv64a(node) + uint64(i)*0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// Version identifies this membership snapshot; it increases by one per Add
// or Remove along a derivation chain.
func (r *Ring) Version() uint64 { return r.version }

// Nodes returns the sorted member list. The slice is shared — callers must
// not mutate it.
func (r *Ring) Nodes() []string { return r.nodes }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Has reports membership.
func (r *Ring) Has(node string) bool {
	i := sort.SearchStrings(r.nodes, node)
	return i < len(r.nodes) && r.nodes[i] == node
}

// Lookup returns the node owning a key, or "" on an empty ring. The owner
// is the first virtual node clockwise from the key's hash. It allocates
// nothing — this is the proxy's per-request hot path.
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.slot(key)].node
}

// LookupReplica returns the node holding a key's replica: the first
// virtual node clockwise past the owner that belongs to a DIFFERENT
// physical node. On a ring with fewer than two members there is nowhere
// distinct to replicate to and it returns "". Because the walk starts from
// the key's own arc, the replica is as stable across membership changes as
// the owner itself — and because the ring only ever contains live members,
// a key whose usual replica died is automatically hinted to the next
// distinct survivor.
func (r *Ring) LookupReplica(key string) string {
	if len(r.nodes) < 2 {
		return ""
	}
	lo := r.slot(key)
	owner := r.points[lo].node
	for i := 1; i < len(r.points); i++ {
		if n := r.points[(lo+i)%len(r.points)].node; n != owner {
			return n
		}
	}
	return ""
}

// slot returns the index of the point owning a key: the first point
// clockwise from the key's hash. The ring must have points. Both lookups
// share it, and it allocates nothing.
func (r *Ring) slot(key string) int {
	h := fnv64a(key)
	// Binary search, inlined rather than sort.Search: the closure there
	// costs an allocation and this runs on every routed request.
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0 // wrap: the first point owns the arc past the last hash
	}
	return lo
}

// rebuild constructs the sorted point list for a member set.
func rebuild(nodes []string) []point {
	points := make([]point, 0, len(nodes)*DefaultVNodes)
	for _, n := range nodes {
		for i := 0; i < DefaultVNodes; i++ {
			points = append(points, point{hash: vnodeHash(n, i), node: n})
		}
	}
	// Ties (two vnodes hashing identically) are broken by node name so the
	// ring is a pure function of the member set — never of insertion order.
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].node < points[j].node
	})
	return points
}

// Add returns a new ring including node (a no-op snapshot bump is avoided:
// adding an existing member returns the receiver unchanged).
func (r *Ring) Add(node string) *Ring {
	if node == "" || r.Has(node) {
		return r
	}
	nodes := make([]string, 0, len(r.nodes)+1)
	nodes = append(nodes, r.nodes...)
	nodes = append(nodes, node)
	sort.Strings(nodes)
	return &Ring{
		version: r.version + 1,
		points:  rebuild(nodes),
		nodes:   nodes,
	}
}

// Remove returns a new ring without node (removing a non-member returns the
// receiver unchanged).
func (r *Ring) Remove(node string) *Ring {
	if !r.Has(node) {
		return r
	}
	nodes := make([]string, 0, len(r.nodes)-1)
	for _, n := range r.nodes {
		if n != node {
			nodes = append(nodes, n)
		}
	}
	return &Ring{
		version: r.version + 1,
		points:  rebuild(nodes),
		nodes:   nodes,
	}
}

// String renders the ring for logs and /healthz.
func (r *Ring) String() string {
	return fmt.Sprintf("ring v%d %v", r.version, r.nodes)
}

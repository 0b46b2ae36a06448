// Package fleet turns N mapd daemons into one horizontally scaled
// mapping service.
//
// The design leans entirely on the property the rest of the stack already
// guarantees: a search result is a pure function of its serve fingerprint.
// That reduces fleet coordination to three mechanisms, none of which needs
// consensus:
//
//   - Placement: a consistent-hash ring (this file) maps every fingerprint
//     to exactly one owner replica per ring epoch, so request coalescing —
//     single-owner semantics in each replica's store — stays exactly-once
//     fleet-wide. The ring hash is a process-independent FNV-1a, so every
//     router and replica computes the same placement from the same member
//     list.
//   - Replication: the owner pushes checkpoint bundles to the fingerprint's
//     backup (the ring successor) while searching and the finished result
//     when done; any replica pulls a finished result it is missing from its
//     peers on demand (replica.go). Removing a dead owner from the ring
//     remaps its keys onto exactly the replicas that hold their bundles.
//   - Admission: per-tenant token buckets and an in-flight cap at the
//     router shed overload as 429 + Retry-After instead of queueing into
//     timeouts (admission.go, router.go).
package fleet

import (
	"fmt"
	"sort"
)

// Vnodes is the number of virtual nodes per replica. It is part of the
// placement function, so it is a constant rather than a setting: a router
// and a replica that disagreed on it would route keys to replicas that do
// not own them. 64 keeps the per-replica load spread within a few percent
// for small fleets while the ring stays tiny.
const Vnodes = 64

// point is one virtual node: a position on the hash circle owned by a
// replica.
type point struct {
	hash    uint64
	replica string
}

// Ring is a consistent-hash ring over replica names. The zero value is
// not usable; use NewRing. Ring is not goroutine-safe — the router guards
// it with its own lock and replicas treat theirs as immutable.
type Ring struct {
	vnodes int
	points []point // sorted by hash
	names  map[string]bool
}

// NewRing returns an empty ring with vnodes virtual nodes per replica. The
// fleet's rings use Vnodes; tests build smaller ones.
func NewRing(vnodes int) *Ring {
	return &Ring{vnodes: vnodes, names: make(map[string]bool)}
}

// fnv1a is the ring's process-independent base hash (FNV-1a 64). maphash
// would be faster but is seeded per process, and placement must agree
// across the router and every replica binary.
func fnv1a(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// ringHash positions a string on the circle: FNV-1a plus a 64-bit
// avalanche finalizer. Raw FNV-1a of near-identical short strings
// ("r1#0", "r1#1", ...) leaves the high bits — which dominate ring
// ordering — correlated enough to skew per-replica shares by an order of
// magnitude; the finalizer (the standard murmur3 fmix64 constants)
// restores uniformity. TestRingBalance holds the line.
func ringHash(s string) uint64 {
	h := fnv1a(s)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Add inserts a replica's virtual nodes. Adding a present member is a
// no-op.
func (r *Ring) Add(name string) {
	if r.names[name] {
		return
	}
	r.names[name] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{ringHash(fmt.Sprintf("%s#%d", name, i)), name})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (astronomically rare) break by name so every ring
		// instance orders identically.
		return r.points[i].replica < r.points[j].replica
	})
}

// Remove deletes a replica's virtual nodes; its arcs fall to the next
// replica clockwise, every other assignment is untouched.
func (r *Ring) Remove(name string) {
	if !r.names[name] {
		return
	}
	delete(r.names, name)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.replica != name {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len returns the number of member replicas.
func (r *Ring) Len() int { return len(r.names) }

// Members returns the member names in sorted order.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.names))
	//mapvet:unordered out is sorted before returning
	for name := range r.names {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// OwnerN returns up to n distinct replicas for key in ring order: the
// owner (the first virtual node clockwise from the key's hash) first, then the successors that inherit the key if the replicas
// before them leave. OwnerN(k, 2)[1] is therefore exactly the replica
// that becomes k's owner when the current owner is removed — which is why
// checkpoint bundles replicate to it.
func (r *Ring) OwnerN(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if n > len(r.names) {
		n = len(r.names)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, p.replica)
		}
	}
	return out
}

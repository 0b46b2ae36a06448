package fleet

import (
	"fmt"
	"testing"
)

// testKeys returns n deterministic fingerprint-shaped keys.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%024x", fnv1a(fmt.Sprintf("key-%d", i)))
	}
	return keys
}

// TestRingPlacementAgreement: placement must be a pure function of the
// member set — every router and replica computes it independently, so two
// rings built in different insertion orders must agree on every owner.
func TestRingPlacementAgreement(t *testing.T) {
	a := NewRing(Vnodes)
	b := NewRing(Vnodes)
	for _, name := range []string{"r0", "r1", "r2", "r3", "r4"} {
		a.Add(name)
	}
	for _, name := range []string{"r3", "r0", "r4", "r2", "r1"} {
		b.Add(name)
	}
	// b also went through churn that ends at the same member set.
	b.Add("transient")
	b.Remove("transient")
	for _, key := range testKeys(2000) {
		if ao, bo := a.OwnerN(key, 1)[0], b.OwnerN(key, 1)[0]; ao != bo {
			t.Fatalf("rings disagree on %s: %q vs %q", key, ao, bo)
		}
	}
}

// TestRingBalance: with Vnodes the per-replica key share stays
// within a constant factor of fair (the bound the package comment
// promises: a few tens of percent; we assert the conservative 2x / x/3
// envelope so the test is not a coin flip).
func TestRingBalance(t *testing.T) {
	const replicas = 5
	r := NewRing(Vnodes)
	for i := 0; i < replicas; i++ {
		r.Add(fmt.Sprintf("r%d", i))
	}
	counts := make(map[string]int)
	keys := testKeys(20000)
	for _, key := range keys {
		owner := r.OwnerN(key, 1)[0]
		if owner == "" {
			t.Fatalf("no owner for %s", key)
		}
		counts[owner]++
	}
	mean := float64(len(keys)) / replicas
	for _, name := range r.Members() {
		share := float64(counts[name])
		if share > 2*mean || share < mean/3 {
			t.Errorf("replica %s owns %.0f keys, mean is %.0f — ring is unbalanced: %v",
				name, share, mean, counts)
		}
	}
}

// TestRingRemoveRemapsOnlyArc: removing a replica must move exactly the
// keys it owned, and each must land on its recorded ring successor —
// the replica its checkpoint bundles were pushed to.
func TestRingRemoveRemapsOnlyArc(t *testing.T) {
	r := NewRing(Vnodes)
	for i := 0; i < 5; i++ {
		r.Add(fmt.Sprintf("r%d", i))
	}
	keys := testKeys(5000)
	before := make(map[string][]string, len(keys))
	for _, key := range keys {
		before[key] = r.OwnerN(key, 2)
	}
	const victim = "r2"
	r.Remove(victim)
	moved := 0
	for _, key := range keys {
		after := r.OwnerN(key, 1)[0]
		prev := before[key]
		if prev[0] != victim {
			if after != prev[0] {
				t.Fatalf("key %s moved from %s to %s though %s was removed",
					key, prev[0], after, victim)
			}
			continue
		}
		moved++
		if after != prev[1] {
			t.Fatalf("key %s fell to %s, not its recorded successor %s",
				key, after, prev[1])
		}
	}
	if moved == 0 {
		t.Fatal("victim owned no keys; test is vacuous")
	}
}

// TestRingAddRemapsOnlyToNew: adding a replica must only steal keys for
// itself; no key may move between two pre-existing replicas.
func TestRingAddRemapsOnlyToNew(t *testing.T) {
	r := NewRing(Vnodes)
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("r%d", i))
	}
	keys := testKeys(5000)
	before := make(map[string]string, len(keys))
	for _, key := range keys {
		before[key] = r.OwnerN(key, 1)[0]
	}
	r.Add("new")
	stolen := 0
	for _, key := range keys {
		after := r.OwnerN(key, 1)[0]
		if after == before[key] {
			continue
		}
		if after != "new" {
			t.Fatalf("adding a replica moved key %s from %s to %s", key, before[key], after)
		}
		stolen++
	}
	if stolen == 0 {
		t.Fatal("new replica stole no keys; test is vacuous")
	}
}

// TestRingOwnerN: successor lists are distinct, bounded by membership,
// and extend the shorter list (OwnerN(k, m) is a prefix of OwnerN(k, n)
// for m < n — the failover order is stable).
func TestRingOwnerN(t *testing.T) {
	r := NewRing(Vnodes)
	for i := 0; i < 4; i++ {
		r.Add(fmt.Sprintf("r%d", i))
	}
	for _, key := range testKeys(500) {
		full := r.OwnerN(key, 10)
		if len(full) != 4 {
			t.Fatalf("OwnerN(%s, 10) = %v, want all 4 members", key, full)
		}
		seen := make(map[string]bool)
		for _, name := range full {
			if seen[name] {
				t.Fatalf("OwnerN(%s) repeats %s: %v", key, name, full)
			}
			seen[name] = true
		}
		for n := 1; n < 4; n++ {
			prefix := r.OwnerN(key, n)
			if len(prefix) != n {
				t.Fatalf("OwnerN(%s, %d) has %d entries", key, n, len(prefix))
			}
			for i := range prefix {
				if prefix[i] != full[i] {
					t.Fatalf("OwnerN(%s, %d) = %v is not a prefix of %v", key, n, prefix, full)
				}
			}
		}
	}
}

// TestRingEmptyAndSingle covers the degenerate memberships.
func TestRingEmptyAndSingle(t *testing.T) {
	r := NewRing(Vnodes)
	if got := r.OwnerN("abc123", 3); got != nil {
		t.Fatalf("empty ring OwnerN = %v", got)
	}
	r.Add("only")
	r.Add("only") // duplicate adds must not double the vnodes
	if n := len(r.points); n != Vnodes {
		t.Fatalf("single member has %d points, want %d", n, Vnodes)
	}
	for _, key := range testKeys(50) {
		if got := r.OwnerN(key, 1)[0]; got != "only" {
			t.Fatalf("single-member ring owner = %q", got)
		}
	}
	r.Remove("only")
	r.Remove("only") // removing an absent member is a no-op
	if r.Len() != 0 || len(r.points) != 0 {
		t.Fatalf("ring not empty after removal: %d members, %d points", r.Len(), len(r.points))
	}
}

// FuzzRingChurn: arbitrary add/remove churn must preserve the ring
// invariants — the point count always equals members x vnodes, owners are
// always members, and a rebuilt ring with the same final member set
// agrees on placement (history independence).
func FuzzRingChurn(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0x81, 3, 0x80}, "abc123")
	f.Add([]byte{5, 5, 0x85, 5}, "00ff00ff")
	f.Fuzz(func(t *testing.T, ops []byte, key string) {
		const vnodes = 8 // small so the fuzzer explores more churn per run
		r := NewRing(vnodes)
		for _, op := range ops {
			name := fmt.Sprintf("r%d", op&0x7f)
			if op&0x80 == 0 {
				r.Add(name)
			} else {
				r.Remove(name)
			}
		}
		if got, want := len(r.points), r.Len()*vnodes; got != want {
			t.Fatalf("%d points for %d members (vnodes=%d)", got, r.Len(), vnodes)
		}
		owners := r.OwnerN(key, r.Len()+2)
		if len(owners) != r.Len() {
			t.Fatalf("OwnerN returned %d of %d members", len(owners), r.Len())
		}
		rebuilt := NewRing(vnodes)
		for _, name := range r.Members() {
			rebuilt.Add(name)
		}
		for i, name := range rebuilt.OwnerN(key, rebuilt.Len()+2) {
			if owners[i] != name {
				t.Fatalf("churned ring %v disagrees with rebuilt ring at %d", owners, i)
			}
		}
	})
}

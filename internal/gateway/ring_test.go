package gateway

import (
	"fmt"
	"sort"
	"testing"
)

// TestRingGoldenAssignment pins the exact key→backend mapping for a
// fixed membership. The ring hashes with SHA-256, so this table must
// hold on every platform and Go release — if it ever changes, rolling
// upgrades would silently re-home the whole keyspace.
func TestRingGoldenAssignment(t *testing.T) {
	r := NewRing(64)
	for _, id := range []string{"alpha", "beta", "gamma"} {
		r.Add(id)
	}
	golden := []struct{ key, owner string }{
		{"0000000000000000000000000000000000000000000000000000000000000000", "alpha"},
		{"0000000000000000000000000000000000000000000000000000000000000001", "alpha"},
		{"0000000000000000000000000000000000000000000000000000000000000002", "beta"},
		{"0000000000000000000000000000000000000000000000000000000000000003", "gamma"},
		{"0000000000000000000000000000000000000000000000000000000000000004", "gamma"},
		{"0000000000000000000000000000000000000000000000000000000000000005", "beta"},
		{"0000000000000000000000000000000000000000000000000000000000000006", "alpha"},
		{"0000000000000000000000000000000000000000000000000000000000000007", "alpha"},
		{"0000000000000000000000000000000000000000000000000000000000000008", "beta"},
		{"0000000000000000000000000000000000000000000000000000000000000009", "gamma"},
		{"000000000000000000000000000000000000000000000000000000000000000a", "gamma"},
		{"000000000000000000000000000000000000000000000000000000000000000b", "gamma"},
	}
	for _, g := range golden {
		owner, ok := r.Owner(g.key)
		if !ok || owner != g.owner {
			t.Errorf("Owner(%s) = %q, %v; want %q", g.key, owner, ok, g.owner)
		}
	}
}

// testKeys builds n distinct well-formed (64-hex) keys.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i)
	}
	return keys
}

// TestRingBuildOrderIndependence proves the assignment is a pure
// function of the membership set: two gateways that learned of the
// same backends in different orders route identically.
func TestRingBuildOrderIndependence(t *testing.T) {
	a := NewRing(32)
	b := NewRing(32)
	for _, id := range []string{"n1", "n2", "n3", "n4"} {
		a.Add(id)
	}
	for _, id := range []string{"n3", "n1", "n4", "n2"} {
		b.Add(id)
	}
	for _, k := range testKeys(512) {
		oa, _ := a.Owner(k)
		ob, _ := b.Owner(k)
		if oa != ob {
			t.Fatalf("Owner(%s) differs by build order: %q vs %q", k, oa, ob)
		}
	}
}

// TestRingMinimalMovementOnJoin is the consistent-hashing contract:
// when a fourth backend joins a three-backend ring, only keys that
// re-home onto the joiner move (no key changes hands between existing
// members), and the moved share is about 1/4 of the keyspace.
func TestRingMinimalMovementOnJoin(t *testing.T) {
	keys := testKeys(4000)
	r := NewRing(64)
	for _, id := range []string{"n1", "n2", "n3"} {
		r.Add(id)
	}
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k], _ = r.Owner(k)
	}

	r.Add("n4")
	moved := 0
	for _, k := range keys {
		after, _ := r.Owner(k)
		if after == before[k] {
			continue
		}
		if after != "n4" {
			t.Fatalf("key %s moved %q → %q, but only the joiner n4 may gain keys", k, before[k], after)
		}
		moved++
	}
	if moved == 0 {
		t.Fatal("no keys moved to the joiner: the ring is not rebalancing")
	}
	// Expected share is 1/4; vnode placement scatter allows some slack,
	// but far more than that means the ring is not spreading load.
	if frac := float64(moved) / float64(len(keys)); frac > 0.40 {
		t.Fatalf("join moved %.0f%% of keys, want about 25%% (≤ 40%%)", frac*100)
	}
}

// TestRingExactPreservationOnLeave is the other half of the contract:
// removing a member re-homes exactly its own keys and leaves every
// other assignment untouched — and the result equals a ring that never
// contained the member at all.
func TestRingExactPreservationOnLeave(t *testing.T) {
	keys := testKeys(2000)
	r := NewRing(64)
	for _, id := range []string{"n1", "n2", "n3", "n4"} {
		r.Add(id)
	}
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k], _ = r.Owner(k)
	}

	r.Remove("n2")
	fresh := NewRing(64)
	for _, id := range []string{"n1", "n3", "n4"} {
		fresh.Add(id)
	}
	for _, k := range keys {
		after, _ := r.Owner(k)
		if before[k] != "n2" && after != before[k] {
			t.Fatalf("key %s moved %q → %q on an unrelated leave", k, before[k], after)
		}
		if want, _ := fresh.Owner(k); after != want {
			t.Fatalf("key %s: post-leave owner %q != fresh-ring owner %q", k, after, want)
		}
	}
}

// TestRingOwnersPreference checks the peer-probe order: the current
// owner leads, every member appears exactly once, and for a key that
// just re-homed onto a joiner, the second candidate is the key's
// previous owner — the property the peer-fetch warm path leans on.
func TestRingOwnersPreference(t *testing.T) {
	r := NewRing(64)
	for _, id := range []string{"n1", "n2", "n3"} {
		r.Add(id)
	}
	keys := testKeys(1000)
	for _, k := range keys {
		owners := r.Owners(k)
		if len(owners) != 3 {
			t.Fatalf("Owners(%s) = %v, want all 3 members", k, owners)
		}
		seen := map[string]bool{}
		for _, id := range owners {
			if seen[id] {
				t.Fatalf("Owners(%s) = %v repeats %q", k, owners, id)
			}
			seen[id] = true
		}
		if first, _ := r.Owner(k); owners[0] != first {
			t.Fatalf("Owners(%s)[0] = %q, Owner = %q", k, owners[0], first)
		}
	}

	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k], _ = r.Owner(k)
	}
	r.Add("n4")
	checked := 0
	for _, k := range keys {
		owner, _ := r.Owner(k)
		if owner != "n4" || before[k] == "n4" {
			continue
		}
		if owners := r.Owners(k); owners[1] != before[k] {
			t.Fatalf("key %s re-homed to n4; Owners[1] = %q, want previous owner %q", k, owners[1], before[k])
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no key re-homed onto the joiner; preference property unexercised")
	}
}

// TestRingEmptyAndMembership covers the degenerate cases: an empty
// ring owns nothing, duplicate adds and absent removes are no-ops, and
// Members reports the sorted live set.
func TestRingEmptyAndMembership(t *testing.T) {
	r := NewRing(0) // 0 selects DefaultVNodes
	if _, ok := r.Owner("00"); ok {
		t.Fatal("empty ring claimed an owner")
	}
	if got := r.Owners("00"); got != nil {
		t.Fatalf("empty ring Owners = %v, want nil", got)
	}
	r.Add("b")
	r.Add("a")
	r.Add("b") // duplicate: no-op
	if got := r.Members(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Members = %v, want [a b]", got)
	}
	r.Remove("zzz") // absent: no-op
	if got := r.Members(); len(got) != 2 {
		t.Fatalf("Members after absent remove = %v, want [a b]", got)
	}
	owner, ok := r.Owner("00")
	if !ok || (owner != "a" && owner != "b") {
		t.Fatalf("Owner = %q, %v", owner, ok)
	}
}

// Members reports the backend ids on the ring, sorted.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.members))
	for id := range r.members {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

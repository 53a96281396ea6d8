// Package gateway is sppgw's core: one HTTP front-end that makes a
// fleet of sppd backends look like a single daemon. Results are
// content-addressed (experiments.Spec.Key is a SHA-256 of the canonical
// configuration), so the keyspace shards trivially: a consistent-hash
// ring with virtual nodes maps every key to exactly one owning backend,
// submit/status/result/cancel route to that owner, list fans out, and
// /metrics serves a merged per-backend + cluster-total view. Membership
// is dynamic — backends join with heartbeats and are evicted on silence
// or connection failure, after which their keys re-hash onto the
// survivors. Because every job is a pure re-runnable function of its
// spec, a re-hash is always safe; the peer endpoint makes it cheap, by
// letting the new owner copy the previous owner's store entry instead
// of recomputing.
//
// The package is deliberately simulator-independent (enforced by the
// simlint deps analyzer): it moves opaque bodies keyed by opaque hex
// strings, and the one piece of spec knowledge it needs — turning a
// submit body into a key — is injected by cmd/sppgw as Config.SubmitKey.
package gateway

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per backend when Config
// leaves VNodes zero. More virtual nodes smooth the key distribution
// (the expected per-backend share concentrates around 1/N) at a small
// memory and rebuild cost; 64 keeps the imbalance within a few percent
// for the cluster sizes sppgw targets.
const DefaultVNodes = 64

// Ring is a consistent-hash ring mapping content keys to backend ids.
// Each backend contributes vnodes points (SHA-256 of "id#v"), a key is
// owned by the first point at or clockwise after its own hash, and
// membership changes move only the keys adjacent to the changed points
// — joining or losing one of N backends re-homes about 1/N of the
// keyspace and leaves every other key's owner untouched. The zero
// value is not usable; create with NewRing. Ring is not safe for
// concurrent use (Gateway guards it with its own lock).
type Ring struct {
	vnodes  int
	points  []point // sorted by (hash, id)
	members map[string]bool
}

// point is one virtual node: the hash position and its backend.
type point struct {
	hash uint64
	id   string
}

// NewRing returns an empty ring with the given virtual-node count per
// backend (<= 0 selects DefaultVNodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]bool)}
}

// ringHash positions a label on the ring: the first 8 bytes of its
// SHA-256, so placement is deterministic across processes, platforms,
// and Go releases — the same property Spec.Key already leans on.
func ringHash(label string) uint64 {
	sum := sha256.Sum256([]byte(label))
	return binary.BigEndian.Uint64(sum[:8])
}

// vnodeLabel names one virtual node. The '#' separator cannot appear in
// the hex keys the ring serves, so a key can never land exactly on a
// label and distinct (id, v) pairs can never collide textually.
func vnodeLabel(id string, v int) string {
	return id + "#" + strconv.Itoa(v)
}

// Add inserts a backend's virtual nodes; adding a present member is a
// no-op. Points sort by (hash, id) so a hash collision between two
// backends' virtual nodes still yields one deterministic order.
func (r *Ring) Add(id string) {
	if r.members[id] {
		return
	}
	r.members[id] = true
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, point{ringHash(vnodeLabel(id, v)), id})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id
	})
}

// Remove deletes a backend's virtual nodes; removing an absent member
// is a no-op. Only keys the member owned re-home (to their next point
// clockwise); every other assignment is untouched.
func (r *Ring) Remove(id string) {
	if !r.members[id] {
		return
	}
	delete(r.members, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.id != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Owner reports the backend owning key: the first virtual node at or
// clockwise after the key's hash, wrapping at the top. False on an
// empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].id, true
}

// Owners reports every member in the ring's preference order for key:
// the current owner first, then each further distinct backend in
// clockwise point order. The order doubles as the peer-fetch probe
// order — when a key re-homes after a join, the joining backend's
// successor in this list is exactly the key's previous owner, so the
// warm copy is found on the first probe.
func (r *Ring) Owners(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, len(r.members))
	out := make([]string, 0, len(r.members))
	for n := 0; n < len(r.points) && len(out) < len(r.members); n++ {
		p := r.points[(start+n)%len(r.points)]
		if !seen[p.id] {
			seen[p.id] = true
			out = append(out, p.id)
		}
	}
	return out
}

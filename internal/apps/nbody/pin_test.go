package nbody

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"testing"
)

// treePinHash is the SHA-256 of treeOutputs over pinnedSets. It was
// recorded before the tree's storage last changed and must never be
// edited: any change to how the octree is stored has to leave every
// force, work count and cell count as they were.
const treePinHash = "702bc76f2575e06387cb1c70e263cf99794cd8c46c7edf7200f5c1c8be2b444a"

// pinnedSets are the inputs TestTreeOutputsPinned hashes: Morton-ordered
// Plummer spheres, the clustered set, and a set where every third body
// sits on one point.
func pinnedSets() map[string]*Bodies {
	sets := map[string]*Bodies{"clustered": clustered()}
	for _, n := range []int{2000, 32768} {
		for seed := uint64(1); seed <= 3; seed++ {
			b := plummerPositions(n, seed)
			SortMorton(b)
			sets[fmt.Sprintf("plummer-%d-%d", n, seed)] = b
		}
	}
	coincident := plummerPositions(2000, 4)
	for i := 3; i < coincident.N(); i += 3 {
		coincident.X[i], coincident.Y[i], coincident.Z[i] = coincident.X[0], coincident.Y[0], coincident.Z[0]
	}
	sets["coincident"] = coincident
	return sets
}

// treeOutputs hashes, for each set in name order, the tree's NumNodes
// and every body's Force(i, 0.7, 0.05): the bit patterns of ax, ay, az
// and the Visited and Interactions counts.
func treeOutputs(sets map[string]*Bodies) string {
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	slices.Sort(names)
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, name := range names {
		b := sets[name]
		tr := Build(b)
		h.Write([]byte(name))
		put(uint64(tr.NumNodes()))
		for i := range b.N() {
			ax, ay, az, st := tr.Force(i, 0.7, 0.05)
			put(math.Float64bits(ax))
			put(math.Float64bits(ay))
			put(math.Float64bits(az))
			put(uint64(st.Visited))
			put(uint64(st.Interactions))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Every force, work count and cell count of the tree is pinned.
func TestTreeOutputsPinned(t *testing.T) {
	if got := treeOutputs(pinnedSets()); got != treePinHash {
		t.Fatalf("tree outputs hash %s, pinned %s", got, treePinHash)
	}
}

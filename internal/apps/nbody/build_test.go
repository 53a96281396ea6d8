package nbody

import (
	"math"
	"slices"
	"sort"
	"testing"

	"spp1000/internal/runner"
)

// sortSlicePermutation is the body order the sort.Slice implementation
// of SortMorton produced: the reference SortMorton must keep matching.
func sortSlicePermutation(b *Bodies) []int {
	recs := mortonKeys(b)
	sort.Slice(recs, func(i, j int) bool { return recs[i].key < recs[j].key })
	perm := make([]int, len(recs))
	for i, r := range recs {
		perm[i] = r.idx
	}
	return perm
}

// sortMortonPermutation runs SortMorton on a copy of b whose VX holds
// each body's original index, and reads the permutation back from it.
func sortMortonPermutation(b *Bodies) []int {
	c := &Bodies{
		X: slices.Clone(b.X), Y: slices.Clone(b.Y), Z: slices.Clone(b.Z),
		VX: make([]float64, b.N()), VY: slices.Clone(b.VY), VZ: slices.Clone(b.VZ),
		M: slices.Clone(b.M),
	}
	for i := range c.VX {
		c.VX[i] = float64(i)
	}
	SortMorton(c)
	perm := make([]int, c.N())
	for i, v := range c.VX {
		perm[i] = int(v)
	}
	return perm
}

// SortMorton's permutation, ties included, equals the sort.Slice one:
// the N-body outputs depend on the order of bodies with equal keys.
func TestSortMortonTieOrderMatchesSortSlice(t *testing.T) {
	plummer := NewPlummer(20000, 5)
	// Coincident bodies: every body sits on one of 37 points, so long
	// runs of equal keys reach pdqsort's equal-element partitioning.
	coincident := NewPlummer(20000, 6)
	for i := range coincident.X {
		j := i * 7 % 37
		coincident.X[i], coincident.Y[i], coincident.Z[i] = coincident.X[j], coincident.Y[j], coincident.Z[j]
	}
	// Half the bodies duplicated onto the other half.
	mixed := NewPlummer(20000, 7)
	for i := 0; i < mixed.N(); i += 2 {
		j := (i*13)%mixed.N() | 1
		mixed.X[i], mixed.Y[i], mixed.Z[i] = mixed.X[j], mixed.Y[j], mixed.Z[j]
	}
	for name, b := range map[string]*Bodies{"plummer": plummer, "coincident": coincident, "mixed": mixed} {
		recs := mortonKeys(b)
		keys := make(map[uint64]bool, len(recs))
		for _, r := range recs {
			keys[r.key] = true
		}
		if name != "plummer" && len(keys) > len(recs)/2+37 {
			t.Fatalf("%s: %d distinct keys of %d, want many ties", name, len(keys), len(recs))
		}
		if got, want := sortMortonPermutation(b), sortSlicePermutation(b); !slices.Equal(got, want) {
			t.Errorf("%s: SortMorton permutation differs from sort.Slice's", name)
		}
	}
}

// Build reserves nodeCapacity nodes up front; Plummer spheres must fit
// without the slice regrowing.
func TestBuildDoesNotRegrow(t *testing.T) {
	for _, n := range []int{32768, 262144} {
		for seed := uint64(1); seed <= 10; seed++ {
			b := NewPlummer(n, seed)
			SortMorton(b)
			tr := Build(b)
			if got, want := cap(tr.nodes), nodeCapacity(n); got != want {
				t.Fatalf("n=%d seed=%d: %d nodes regrew cap to %d, want %d",
					n, seed, tr.NumNodes(), got, want)
			}
		}
	}
}

// A clustered set needs far more nodes than the Plummer estimate: Build
// must grow the slice and still produce a consistent tree.
func TestBuildClusteredExceedsEstimate(t *testing.T) {
	const n = 2000
	b := NewPlummer(n, 3)
	// Pair up the bodies 1e-9 apart: separating each pair takes ~30
	// levels of single-child cells.
	for i := 1; i < n; i += 2 {
		b.X[i], b.Y[i], b.Z[i] = b.X[i-1]+1e-9, b.Y[i-1], b.Z[i-1]
	}
	tr := Build(b)
	if tr.NumNodes() <= nodeCapacity(n) {
		t.Fatalf("%d nodes for %d clustered bodies, want more than the estimate %d",
			tr.NumNodes(), n, nodeCapacity(n))
	}
	root := tr.nodes[0]
	if int(root.count) != n || math.Abs(root.mass-1) > 1e-9 {
		t.Fatalf("root count %d mass %v, want %d and 1", root.count, root.mass, n)
	}
	checkTreeConsistency(t, tr)
}

// CountWorkload samples its blocks on the runner pool; the counts must
// not depend on the pool width.
func TestCountWorkloadWorkerInvariant(t *testing.T) {
	t.Cleanup(func() { runner.SetWorkers(0) })
	for _, n := range []int{32768, 262144} {
		for _, seed := range []uint64{1, 2} {
			runner.SetWorkers(1)
			serial := CountWorkload(n, 96, seed)
			runner.SetWorkers(4)
			par := CountWorkload(n, 96, seed)
			if serial.TreeNodes != par.TreeNodes || serial.Visited != par.Visited ||
				!slices.Equal(serial.MicroBlocks, par.MicroBlocks) {
				t.Fatalf("n=%d seed=%d: 1 worker %d nodes %d visited, 4 workers %d nodes %d visited",
					n, seed, serial.TreeNodes, serial.Visited, par.TreeNodes, par.Visited)
			}
		}
	}
}

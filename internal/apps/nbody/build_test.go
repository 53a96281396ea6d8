package nbody

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"spp1000/internal/rng"
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

// Build gives each root octant nodeCapacity(its body count) nodes.
// Plummer spheres must fit every octant, so they never fall back to
// the one-region build.
func TestBuildDoesNotRegrow(t *testing.T) {
	for _, n := range []int{32768, 262144} {
		for seed := uint64(1); seed <= 10; seed++ {
			b := NewPlummer(n, seed)
			SortMorton(b)
			tr, half := newTree(b)
			if !tr.buildOctants(half) {
				t.Fatalf("n=%d seed=%d: an octant outgrew its region", n, seed)
			}
		}
	}
}

// buildBoth builds b's tree as eight octant regions and as one region.
// ok reports whether the region build fit.
func buildBoth(b *Bodies) (octants, whole *Tree, ok bool) {
	octants, half := newTree(b)
	ok = octants.buildOctants(half)
	whole, _ = newTree(b)
	whole.buildWhole(half)
	return octants, whole, ok
}

// sameForces fails t unless the two trees give every body bit-identical
// accelerations and work counts.
func sameForces(t *testing.T, a, b *Tree) {
	t.Helper()
	for i := range a.bodies.N() {
		ax, ay, az, as := a.Force(i, 0.7, 0.05)
		bx, by, bz, bs := b.Force(i, 0.7, 0.05)
		if math.Float64bits(ax) != math.Float64bits(bx) || math.Float64bits(ay) != math.Float64bits(by) ||
			math.Float64bits(az) != math.Float64bits(bz) || as != bs {
			t.Fatalf("body %d: (%v %v %v %+v) vs (%v %v %v %+v)", i, ax, ay, az, as, bx, by, bz, bs)
		}
	}
}

// sameTree fails t unless the two trees have the same cells, compared
// bitwise, in the same octant structure; node indices may differ, but
// empty slots and inline leaves must be equal.
func sameTree(t *testing.T, a, b *Tree, na, nb int32) {
	t.Helper()
	ca, cb := a.nodes[na], b.nodes[nb]
	if ca.count != cb.count || ca.body != cb.body ||
		math.Float64bits(ca.half) != math.Float64bits(cb.half) ||
		math.Float64bits(ca.mass) != math.Float64bits(cb.mass) ||
		math.Float64bits(ca.comX) != math.Float64bits(cb.comX) ||
		math.Float64bits(ca.comY) != math.Float64bits(cb.comY) ||
		math.Float64bits(ca.comZ) != math.Float64bits(cb.comZ) {
		t.Fatalf("cell %d %+v differs from cell %d %+v", na, ca, nb, cb)
	}
	for o := range ca.children {
		switch {
		case ca.children[o] >= 0 && cb.children[o] >= 0:
			sameTree(t, a, b, ca.children[o], cb.children[o])
		case ca.children[o] != cb.children[o]:
			t.Fatalf("cell %d and cell %d differ in octant %d: slots %d and %d",
				na, nb, o, ca.children[o], cb.children[o])
		}
	}
}

// The octant regions number cells differently from the one-region
// build, but Force and computeMoments visit children by octant, so
// every cell, the cell count and every force are bit-identical.
func TestBuildOctantsMatchesWhole(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		b := NewPlummer(32768, seed)
		SortMorton(b)
		matchWhole(t, fmt.Sprintf("seed %d", seed), b)
	}
}

// matchWhole fails t unless b's region build fits and equals its
// one-region build cell for cell and force for force.
func matchWhole(t *testing.T, name string, b *Bodies) {
	t.Helper()
	octants, whole, ok := buildBoth(b)
	if !ok {
		t.Fatalf("%s: the region build fell back", name)
	}
	if octants.NumNodes() != whole.NumNodes() {
		t.Fatalf("%s: %d cells in regions, %d in one region", name, octants.NumNodes(), whole.NumNodes())
	}
	sameTree(t, octants, whole, 0, 0)
	sameForces(t, octants, whole)
	checkTreeConsistency(t, octants)
	// Every real node holds a body; the unused slots at the ends of
	// the regions are empty cells, never a leaf holding body 0.
	used := 0
	for i, nd := range octants.nodes {
		if nd.count > 0 {
			used++
		} else if nd != cell(0) {
			t.Fatalf("%s: unused slot %d is %+v, want an empty cell", name, i, nd)
		}
	}
	if used+octants.leaves != octants.NumNodes() {
		t.Fatalf("%s: %d slots in use and %d inline leaves, NumNodes %d",
			name, used, octants.leaves, octants.NumNodes())
	}
}

// Coincident bodies in several root octants: inline leaves become leaf
// nodes inside bounded regions, and the coincident leaves stay nodes.
func TestBuildOctantsCoincident(t *testing.T) {
	b := NewPlummer(8000, 8)
	// Bodies on five points in different root octants: one in seven
	// bodies, from body 100 on, is moved onto a point.
	root, _ := newTree(b)
	c := root.cx
	var points []int
	seen := map[int]bool{}
	for i := 0; len(points) < 5; i++ {
		if o := octant(c, c, c, b.X[i], b.Y[i], b.Z[i]); !seen[o] {
			seen[o] = true
			points = append(points, i)
		}
	}
	for i := 100; i < b.N(); i += 7 {
		p := points[i%len(points)]
		b.X[i], b.Y[i], b.Z[i] = b.X[p], b.Y[p], b.Z[p]
	}
	matchWhole(t, "coincident", b)
	tr := Build(b)
	shared := 0
	for _, nd := range tr.nodes {
		if nd.body >= 0 && nd.count > 1 {
			shared++
		}
	}
	if shared < len(points) {
		t.Fatalf("%d coincident leaf nodes, want at least %d", shared, len(points))
	}
}

// A root octant holding one body is an inline leaf of the root in the
// region build, as in the one-region build.
func TestBuildOctantsLoneBody(t *testing.T) {
	b := NewPlummer(2000, 9)
	for i := range b.N() {
		b.X[i], b.Y[i], b.Z[i] = -math.Abs(b.X[i]), -math.Abs(b.Y[i]), -math.Abs(b.Z[i])
	}
	b.X[0], b.Y[0], b.Z[0] = 20, 20, 20 // alone in octant 7
	matchWhole(t, "lone body", b)
	if tr := Build(b); tr.nodes[0].children[7] != leafRef(0) {
		t.Fatalf("root octant 7 slot %d, want leafRef(0) = %d", tr.nodes[0].children[7], leafRef(0))
	}
}

// The clustered set outgrows its octant regions, so Build falls back
// to the one-region build and gives exactly that tree.
func TestBuildClusteredFallsBack(t *testing.T) {
	b := clustered()
	_, whole, ok := buildBoth(b)
	if ok {
		t.Fatal("the clustered set fit its octant regions; want the fallback")
	}
	tr := Build(b)
	if tr.NumNodes() != whole.NumNodes() || len(tr.nodes)+tr.leaves != tr.NumNodes() {
		t.Fatalf("Build: %d cells in %d slots and %d inline leaves, one-region build %d cells",
			tr.NumNodes(), len(tr.nodes), tr.leaves, whole.NumNodes())
	}
	sameTree(t, tr, whole, 0, 0)
	sameForces(t, tr, whole)
	checkTreeConsistency(t, tr)
}

// clustered is a 2000-body set whose bodies come in pairs 1e-9 apart:
// separating each pair takes ~30 levels of single-child cells.
func clustered() *Bodies {
	const n = 2000
	b := NewPlummer(n, 3)
	for i := 1; i < n; i += 2 {
		b.X[i], b.Y[i], b.Z[i] = b.X[i-1]+1e-9, b.Y[i-1], b.Z[i-1]
	}
	return b
}

// A clustered set needs far more nodes than the Plummer estimate: Build
// must grow the slice and still produce a consistent tree.
func TestBuildClusteredExceedsEstimate(t *testing.T) {
	b := clustered()
	n := b.N()
	tr := Build(b)
	if tr.NumNodes() <= nodeCapacity(n) || len(tr.nodes) <= nodeCapacity(n) {
		t.Fatalf("%d cells (%d nodes) for %d clustered bodies, want more than the estimate %d",
			tr.NumNodes(), len(tr.nodes), n, nodeCapacity(n))
	}
	root := tr.nodes[0]
	if int(root.count) != n || math.Abs(root.mass-1) > 1e-9 {
		t.Fatalf("root count %d mass %v, want %d and 1", root.count, root.mass, n)
	}
	checkTreeConsistency(t, tr)
}

// With distinct keys the sorted order is unique, so the radix sort
// gives slices.SortFunc's records exactly, at any pool width.
func TestRadixSortMatchesSortFunc(t *testing.T) {
	t.Cleanup(func() { runner.SetWorkers(0) })
	for _, n := range []int{20000, 262144} {
		b := NewPlummer(n, 1)
		want := mortonKeys(b)
		slices.SortFunc(want, func(p, q mortonRec) int { return cmp.Compare(p.key, q.key) })
		for i := 1; i < n; i++ {
			if want[i].key == want[i-1].key {
				t.Fatalf("n=%d: keys %d and %d are equal; want a distinct-key set", n, i-1, i)
			}
		}
		for _, w := range []int{1, 4} {
			runner.SetWorkers(w)
			recs := mortonKeys(b)
			if got := radixSort(recs, make([]mortonRec, n)); !slices.Equal(got, want) {
				t.Fatalf("n=%d workers=%d: radix order differs from slices.SortFunc's", n, w)
			}
		}
	}
}

// NewPlummer draws serially and transforms on the pool; at any pool
// width its arrays must be bitwise those of the all-serial loop it
// replaced.
func TestNewPlummerMatchesSerialLoop(t *testing.T) {
	t.Cleanup(func() { runner.SetWorkers(0) })
	const n = 200000 // several pool chunks
	for _, seed := range []uint64{1, 2} {
		r := rng.New(seed)
		want := &Bodies{
			X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n),
			VX: make([]float64, n), VY: make([]float64, n), VZ: make([]float64, n),
			M: make([]float64, n),
		}
		for i := 0; i < n; i++ {
			u := r.Float64()
			if u < 1e-10 {
				u = 1e-10
			}
			rad := 1 / math.Sqrt(math.Pow(u, -2.0/3.0)-1)
			if rad > 10 {
				rad = 10
			}
			z := 2*r.Float64() - 1
			phi := 2 * math.Pi * r.Float64()
			s := math.Sqrt(1 - z*z)
			want.X[i] = rad * s * math.Cos(phi)
			want.Y[i] = rad * s * math.Sin(phi)
			want.Z[i] = rad * z
			want.VX[i] = r.NormFloat64() * 0.1
			want.VY[i] = r.NormFloat64() * 0.1
			want.VZ[i] = r.NormFloat64() * 0.1
			want.M[i] = 1.0 / float64(n)
		}
		for _, w := range []int{1, 4} {
			runner.SetWorkers(w)
			got := NewPlummer(n, seed)
			for k, pair := range [][2][]float64{
				{got.X, want.X}, {got.Y, want.Y}, {got.Z, want.Z},
				{got.VX, want.VX}, {got.VY, want.VY}, {got.VZ, want.VZ}, {got.M, want.M},
			} {
				for i := range pair[0] {
					if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
						t.Fatalf("seed %d workers %d: array %d body %d is %v, serial loop %v",
							seed, w, k, i, pair[0][i], pair[1][i])
					}
				}
			}
		}
	}
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

// At Fig. 8's largest size the region build must fit. A fallback to
// the one-region build would change no output, only time and memory,
// so no output test would notice it.
func TestBuildOctantsFitsPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three 2M-body trees")
	}
	for _, seed := range []uint64{1, 2, 42} {
		b := NewPlummer(benchBodies, seed)
		SortMorton(b)
		tr, half := newTree(b)
		if !tr.buildOctants(half) {
			t.Fatalf("seed %d: an octant of the %d-body tree outgrew its region", seed, benchBodies)
		}
	}
}

// refInsert is the insert every build used before insert resumed from
// the last path: it descends from the root for every body and counts
// every cell it passes. refBuildWhole builds with it.
func refInsert(t *Tree, body int32) bool {
	n := t.root
	cx, cy, cz := t.cx, t.cy, t.cz
	x, y, z := t.bodies.X, t.bodies.Y, t.bodies.Z
	for {
		nd := &t.nodes[n]
		nd.count++
		if nd.count == 1 {
			// Empty root: take the body.
			nd.body = body
			return true
		}
		h := nd.half / 2
		if nd.body >= 0 {
			// Leaf node: push the resident body down into an inline
			// leaf, unless the two coincide too closely to separate
			// (give up splitting below a minimum cell size).
			if nd.half < 1e-12 {
				return true // degenerate: coincident points share the leaf's monopole
			}
			old := nd.body
			nd.body = -1
			nd.children[octant(cx, cy, cz, x[old], y[old], z[old])] = leafRef(old)
			t.leaves++
		}
		// Internal: descend.
		o := octant(cx, cy, cz, x[body], y[body], z[body])
		c := nd.children[o]
		if c == -1 {
			nd.children[o] = leafRef(body)
			t.leaves++
			return true
		}
		if c < -1 {
			// An inline leaf gets a second body: it becomes a leaf node,
			// which the next pass splits.
			child := t.newNode(h)
			if child < 0 {
				return false
			}
			t.nodes[n].children[o] = child // newNode may have reallocated
			t.nodes[child].body = leafBody(c)
			t.nodes[child].count = 1
			t.leaves--
			c = child
		}
		n = c
		cx, cy, cz = childCenter(cx, cy, cz, h, o)
	}
}

// refBuildWhole is buildWhole with refInsert. Its cell counts are the
// ones refInsert kept, not the sums computeMoments writes.
func refBuildWhole(b *Bodies) *Tree {
	t, half := newTree(b)
	t.nodes = make([]node, 0, nodeCapacity(b.N()))
	t.newNode(half)
	for i := range b.N() {
		refInsert(t, int32(i))
	}
	counts := make([]int32, len(t.nodes))
	for i := range t.nodes {
		counts[i] = t.nodes[i].count
	}
	t.computeMoments(0)
	for i := range t.nodes {
		t.nodes[i].count = counts[i]
	}
	t.used = len(t.nodes)
	return t
}

// sameNodes fails t unless the two node slices are equal field for
// field, floats compared bitwise.
func sameNodes(t *testing.T, name string, got, want []node) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d nodes, reference %d", name, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.children != w.children || g.body != w.body || g.count != w.count ||
			math.Float64bits(g.half) != math.Float64bits(w.half) ||
			math.Float64bits(g.mass) != math.Float64bits(w.mass) ||
			math.Float64bits(g.comX) != math.Float64bits(w.comX) ||
			math.Float64bits(g.comY) != math.Float64bits(w.comY) ||
			math.Float64bits(g.comZ) != math.Float64bits(w.comZ) {
			t.Fatalf("%s: node %d is %+v, reference %+v", name, i, g, w)
		}
	}
}

// onCentres is a set whose bodies lie on cell boundaries. For each of
// a number of cells C it holds two bodies in C's lower octant (a cell
// with two inline leaves) and then a body on the lower octant's
// centre, moved on one axis onto C's centre. The last insert's path
// then ends in a box whose upper bound on that axis is the third
// body's coordinate, and the half-open box test must send it back up
// to C. Two bodies at (-1,-1,-1) and (1,1,1) fix the root cell.
func onCentres() *Bodies {
	b := &Bodies{X: []float64{-1, 1}, Y: []float64{-1, 1}, Z: []float64{-1, 1}}
	root, half := newTree(b)
	r := rng.New(11)
	for a := 0; a < 150; a++ {
		c, h := [3]float64{root.cx, root.cy, root.cz}, half
		for range 2 + r.Intn(6) {
			h /= 2
			c[0], c[1], c[2] = childCenter(c[0], c[1], c[2], h, r.Intn(8))
		}
		inside := true
		for _, v := range c {
			inside = inside && v-h >= -1 && v+h <= 1
		}
		if !inside {
			continue
		}
		q := h / 2 // half side of C's lower octant
		var p [3][3]float64
		for k, v := range c {
			p[0][k], p[1][k], p[2][k] = v-q-q/2, v-q+q/2, v-q
		}
		p[2][a%3] = c[a%3]
		for _, v := range p {
			b.X, b.Y, b.Z = append(b.X, v[0]), append(b.Y, v[1]), append(b.Z, v[2])
		}
	}
	b.M = make([]float64, b.N())
	for i := range b.M {
		b.M[i] = 1 / float64(b.N())
	}
	return b
}

// insert resumes each descent from the last insert's path and counts
// only leaf nodes, leaving computeMoments to sum the counts; the tree
// must be the one the root-descent refInsert builds, node for node.
// Morton order is the case the resume is for; the unsorted,
// clustered, coincident and on-centre sets climb far, deep and to
// exact box bounds.
func TestInsertMatchesRootDescent(t *testing.T) {
	sorted := NewPlummer(32768, 1)
	SortMorton(sorted)
	coincident := NewPlummer(2000, 4)
	for i := 3; i < coincident.N(); i += 3 {
		coincident.X[i], coincident.Y[i], coincident.Z[i] = coincident.X[0], coincident.Y[0], coincident.Z[0]
	}
	centres := onCentres()
	if centres.N() < 100 {
		t.Fatalf("onCentres made %d bodies, want at least 100", centres.N())
	}
	for _, set := range []struct {
		name string
		b    *Bodies
	}{
		{"morton", sorted}, {"unsorted", NewPlummer(20000, 2)}, {"clustered", clustered()},
		{"coincident", coincident}, {"on-centres", centres},
	} {
		ref := refBuildWhole(set.b)
		whole, half := newTree(set.b)
		whole.buildWhole(half)
		sameNodes(t, set.name, whole.nodes, ref.nodes)
		if whole.NumNodes() != ref.NumNodes() {
			t.Fatalf("%s: %d cells, reference %d", set.name, whole.NumNodes(), ref.NumNodes())
		}
		tr := Build(set.b)
		if tr.NumNodes() != ref.NumNodes() {
			t.Fatalf("%s: Build made %d cells, reference %d", set.name, tr.NumNodes(), ref.NumNodes())
		}
		sameTree(t, tr, ref, 0, 0)
	}
}

// CountWorkload samples positions only; its workload must be the one
// counted over the full NewPlummer bodies.
func TestCountWorkloadPositionsOnly(t *testing.T) {
	for _, n := range []int{32768, 262144} {
		for seed := uint64(1); seed <= 3; seed++ {
			got := CountWorkload(n, 96, seed)
			want := countBodies(NewPlummer(n, seed), 96)
			if got.N != want.N || got.TreeNodes != want.TreeNodes || got.Visited != want.Visited ||
				!slices.Equal(got.MicroBlocks, want.MicroBlocks) {
				t.Fatalf("n=%d seed=%d: positions only %+v, full bodies %+v", n, seed, got, want)
			}
		}
	}
}

// plummerPositions skips the velocity draws; at any pool width its
// positions and masses must be bitwise the all-serial loop's, which
// draws the velocities and drops them.
func TestPlummerPositionsMatchesSerialLoop(t *testing.T) {
	t.Cleanup(func() { runner.SetWorkers(0) })
	const n = 200000 // several pool chunks
	for _, seed := range []uint64{1, 2} {
		r := rng.New(seed)
		want := &Bodies{X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n), M: make([]float64, n)}
		for i := 0; i < n; i++ {
			u := r.Float64()
			if u < 1e-10 {
				u = 1e-10
			}
			rad := 1 / math.Sqrt(math.Pow(u, -2.0/3.0)-1)
			if rad > 10 {
				rad = 10
			}
			z := 2*r.Float64() - 1
			phi := 2 * math.Pi * r.Float64()
			s := math.Sqrt(1 - z*z)
			want.X[i] = rad * s * math.Cos(phi)
			want.Y[i] = rad * s * math.Sin(phi)
			want.Z[i] = rad * z
			for range 3 {
				r.NormFloat64()
			}
			want.M[i] = 1.0 / float64(n)
		}
		for _, w := range []int{1, 4} {
			runner.SetWorkers(w)
			got := plummerPositions(n, seed)
			if got.VX != nil || got.VY != nil || got.VZ != nil {
				t.Fatalf("seed %d workers %d: plummerPositions drew velocities", seed, w)
			}
			for k, pair := range [][2][]float64{
				{got.X, want.X}, {got.Y, want.Y}, {got.Z, want.Z}, {got.M, want.M},
			} {
				for i := range pair[0] {
					if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
						t.Fatalf("seed %d workers %d: array %d body %d is %v, serial loop %v",
							seed, w, k, i, pair[0][i], pair[1][i])
					}
				}
			}
		}
	}
}
